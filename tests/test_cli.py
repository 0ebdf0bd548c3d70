import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rankfair import cli
from rankfair.cli import _FLAG_KEYS, _write_outputs, load_config, main
from rankfair.ingest import parse_annotations, parse_qrels, parse_run
from rankfair.core import GroupScheme


RUNS = """\
q1 Q0 d1 1 4.0 sysA
q1 Q0 d2 2 3.0 sysA
q1 Q0 d3 3 2.0 sysA
q1 Q0 d4 4 1.0 sysA
q1 Q0 d3 1 4.0 sysB
q1 Q0 d4 2 3.0 sysB
q1 Q0 d1 3 2.0 sysB
q1 Q0 d2 4 1.0 sysB
q1 Q0 d1 1 4.0 sysC
q1 Q0 d3 2 3.0 sysC
q1 Q0 d2 3 2.0 sysC
q1 Q0 d4 4 1.0 sysC
q2 Q0 d5 1 2.0 sysA
q2 Q0 d6 2 1.0 sysA
q2 Q0 d6 1 2.0 sysB
q2 Q0 d5 2 1.0 sysB
q2 Q0 d5 1 2.0 sysC
q2 Q0 d7 2 1.0 sysC
"""

QRELS = """\
q1 0 d1 1
q1 0 d2 1
q1 0 d3 2
q1 0 d4 0
q2 0 d5 1
q2 0 d6 1
"""

HUMAN = """\
d1\tpair\tg0:1.0
d2\tpair\tg0:1.0
d3\tpair\tg1:1.0
d4\tpair\tg1:1.0
d5\tpair\tg0:1.0
d6\tpair\tg1:1.0
d7\tpair\tg1:1.0
"""

# one annotation flipped relative to HUMAN
MODEL = HUMAN.replace("d2\tpair\tg0:1.0", "d2\tpair\tg1:1.0")


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "runs.txt").write_text(RUNS)
    (tmp_path / "qrels.txt").write_text(QRELS)
    (tmp_path / "human.tsv").write_text(HUMAN)
    (tmp_path / "model.tsv").write_text(MODEL)
    config = {
        "schemes": [{"name": "pair", "groups": ["g0", "g1"]}],
        "runs": str(tmp_path / "runs.txt"),
        "qrels": str(tmp_path / "qrels.txt"),
        "annotations": str(tmp_path / "human.tsv"),
        "annotations_b": str(tmp_path / "model.tsv"),
        "target": "qrels",
        "seed": 0,
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return tmp_path, path, config


def invoke(*args):
    runner = CliRunner()
    return runner.invoke(main, list(args), catch_exceptions=False)


def read_out(tmp_path, name):
    return (tmp_path / "out" / name).read_text()


class TestEvaluate:
    def test_minimal_shape(self, workspace):
        tmp_path, config_path, _ = workspace
        result = invoke("evaluate", "--config", str(config_path))
        assert result.exit_code == 0
        lines = read_out(tmp_path, "metrics.csv").splitlines()
        assert lines[0] == "system,query,metric,value"
        # 3 systems x 2 queries x 1 metric
        assert len(lines) == 1 + 6
        assert read_out(tmp_path, "metrics_system.csv").splitlines()[0] == "system,metric,value"

    def test_rerun_byte_identical(self, workspace):
        tmp_path, config_path, _ = workspace
        invoke("evaluate", "--config", str(config_path))
        first = {n: read_out(tmp_path, n) for n in ("metrics.csv", "metrics_system.csv", "metrics.json")}
        invoke("evaluate", "--config", str(config_path))
        second = {n: read_out(tmp_path, n) for n in first}
        assert first == second

    def test_missing_qrels_names_path(self, workspace, tmp_path):
        _, config_path, config = workspace
        config["qrels"] = str(tmp_path / "nope.qrels")
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", "--config", str(bad)])
        assert result.exit_code == 1
        assert "nope.qrels" in result.output

    def test_error_leaves_no_partial_outputs(self, workspace, tmp_path):
        _, config_path, config = workspace
        config["annotations"] = str(tmp_path / "nope.tsv")
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", "--config", str(bad)])
        assert result.exit_code == 1
        out_dir = tmp_path / "out"
        assert not out_dir.exists() or not list(out_dir.iterdir())

    def test_agrees_with_library(self, workspace):
        tmp_path, config_path, _ = workspace
        invoke("evaluate", "--config", str(config_path))
        from rankfair.metrics import MetricConfig, reports_to_csv, score_runset

        scheme = GroupScheme("pair", ("g0", "g1"))
        runset = parse_run(RUNS)
        qrels = parse_qrels(QRELS)
        table = parse_annotations(HUMAN, [scheme])
        scores = score_runset(runset, qrels, table, ["pair"], MetricConfig())
        assert read_out(tmp_path, "metrics.csv") == reports_to_csv(scores)


class TestCompare:
    def test_identical_sources_all_ones(self, workspace, tmp_path):
        _, config_path, config = workspace
        config["annotations_b"] = config["annotations"]
        same = tmp_path / "same.json"
        same.write_text(json.dumps(config))
        result = invoke("compare", "--config", str(same))
        assert result.exit_code == 0
        lines = read_out(tmp_path, "correlation_system.csv").splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "system"
        assert fields[2] == "1.0" and fields[4] == "1.0"
        assert fields[6] == "true"
        for line in read_out(tmp_path, "correlation_query.csv").splitlines()[1:]:
            fields = line.split(",")
            assert fields[2] == "1.0" and fields[6] == "true"

    def test_matches_library_report(self, workspace):
        tmp_path, config_path, _ = workspace
        result = invoke("compare", "--config", str(config_path))
        assert result.exit_code == 0
        from rankfair.metrics import MetricConfig, score_runset
        from rankfair.stats import agreement, correlation_to_json

        scheme = GroupScheme("pair", ("g0", "g1"))
        runset = parse_run(RUNS)
        qrels = parse_qrels(QRELS)
        scores_a = score_runset(runset, qrels, parse_annotations(HUMAN, [scheme]), ["pair"], MetricConfig())
        scores_b = score_runset(runset, qrels, parse_annotations(MODEL, [scheme]), ["pair"], MetricConfig())
        want = agreement(scores_a, scores_b)
        assert read_out(tmp_path, "correlation.json") == correlation_to_json(want)

    def test_mismatched_system_sets(self, workspace, tmp_path):
        _, config_path, config = workspace
        other = RUNS.replace("sysA", "sysX")
        (tmp_path / "runs_b.txt").write_text(other)
        config["runs_b"] = str(tmp_path / "runs_b.txt")
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(main, ["compare", "--config", str(bad)])
        assert result.exit_code == 1
        assert "SystemSetMismatch" in result.output

    def test_non_finite_weight_is_one_error_line(self, workspace):
        tmp_path, config_path, _ = workspace
        (tmp_path / "model.tsv").write_text(MODEL.replace("d2\tpair\tg1:1.0", "d2\tpair\tg1:inf"))
        result = CliRunner().invoke(main, ["compare", "--config", str(config_path)])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith("Error: MalformedLine: line 2: ")
        assert "'g1'" in lines[0] and "not finite" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_overflowing_weight_total_is_one_error_line(self, workspace):
        tmp_path, config_path, _ = workspace
        model = MODEL.replace("d2\tpair\tg1:1.0", "d2\tpair\tg0:1e308,g1:1e308")
        (tmp_path / "model.tsv").write_text(model)
        result = CliRunner().invoke(main, ["compare", "--config", str(config_path)])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith("Error: MalformedLine: line 2: ")
        assert "'d2'" in lines[0] and "not finite" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, workspace):
        tmp_path, config_path, _ = workspace
        invoke("compare", "--config", str(config_path))
        first = read_out(tmp_path, "correlation.json")
        invoke("compare", "--config", str(config_path))
        assert read_out(tmp_path, "correlation.json") == first


def test_compare_and_sweep_leave_scipy_unloaded(workspace):
    # scipy is a test-only dependency: no command imports it, p-values included
    tmp_path, config_path, _ = workspace
    sweep_config = TestSweep()._config(tmp_path)
    commands = [["compare", "--config", str(config_path)],
                ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "swept")]]
    code = (
        "import json, sys\n"
        "from rankfair.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    main(args, standalone_mode=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines()[-1] == "[]"
    assert "pearson_p" in read_out(tmp_path, "correlation_system.csv")
    assert "pearson_p" in (tmp_path / "swept" / "sweep_trials.csv").read_text()


class TestSweep:
    def _config(self, tmp_path, workers=1):
        config = {
            "schemes": [],
            "testbed": {"queries": 4, "docs_per_query": 40, "groups": 4,
                        "systems": 6, "spread": 1.0, "seed": 3},
            "sweep": {"levels": [0.25, 0.5, 0.75, 1.0], "trials": 3, "workers": workers},
            "seed": 1,
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / f"sweep_{workers}.json"
        path.write_text(json.dumps(config))
        return path

    def test_shapes_and_perfect_level(self, tmp_path):
        result = invoke("sweep", "--config", str(self._config(tmp_path)))
        assert result.exit_code == 0
        trials = read_out(tmp_path, "sweep_trials.csv").splitlines()
        assert len(trials) == 1 + 12
        summary = read_out(tmp_path, "sweep_summary.csv").splitlines()
        assert len(summary) == 1 + 4
        for line in trials[1:]:
            if line.startswith("1.0,"):
                assert line.split(",")[2] == "1.0"

    def test_serial_parallel_identical(self, tmp_path):
        invoke("sweep", "--config", str(self._config(tmp_path, workers=1)))
        serial = read_out(tmp_path, "sweep.json")
        invoke("sweep", "--config", str(self._config(tmp_path, workers=3)))
        parallel = read_out(tmp_path, "sweep.json")
        assert serial == parallel

    def test_level_flag_overrides(self, tmp_path):
        result = invoke(
            "sweep", "--config", str(self._config(tmp_path)), "--levels", "0.5,1.0",
            "--trials", "1",
        )
        assert result.exit_code == 0
        trials = read_out(tmp_path, "sweep_trials.csv").splitlines()
        assert len(trials) == 1 + 2


class TestSample:
    def _annotations(self, tmp_path, per_group=30):
        lines = []
        for g in range(2):
            for j in range(per_group):
                lines.append(f"g{g}_doc{j:03d}\tpair\tg{g}:1.0\n")
        path = tmp_path / "ann.tsv"
        path.write_text("".join(lines))
        config = {
            "schemes": [{"name": "pair", "groups": ["g0", "g1"]}],
            "annotations": str(path),
            "out": str(tmp_path / "out"),
        }
        cpath = tmp_path / "sample.json"
        cpath.write_text(json.dumps(config))
        return cpath

    def test_counts_and_disjoint(self, tmp_path):
        cpath = self._annotations(tmp_path)
        result = invoke("sample", "--config", str(cpath), "--train", "10", "--test", "5")
        assert result.exit_code == 0
        train = set(read_out(tmp_path, "train.txt").splitlines())
        test = set(read_out(tmp_path, "test.txt").splitlines())
        assert len(train) == 20 and len(test) == 10
        assert not train & test

    def test_seed_changes_membership(self, tmp_path):
        cpath = self._annotations(tmp_path)
        invoke("sample", "--config", str(cpath), "--train", "10", "--test", "5", "--seed", "1")
        first = read_out(tmp_path, "train.txt")
        invoke("sample", "--config", str(cpath), "--train", "10", "--test", "5", "--seed", "2")
        second = read_out(tmp_path, "train.txt")
        assert first != second
        invoke("sample", "--config", str(cpath), "--train", "10", "--test", "5", "--seed", "1")
        assert read_out(tmp_path, "train.txt") == first

    def test_two_configured_schemes_need_the_flag(self, tmp_path):
        cpath = self._annotations(tmp_path)
        config = json.loads(cpath.read_text())
        config["schemes"].append({"name": "other", "groups": ["a", "b"]})
        config["eval_schemes"] = ["pair", "other"]
        cpath.write_text(json.dumps(config))
        args = ["sample", "--config", str(cpath), "--train", "10", "--test", "5"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert ("ConfigError: sample takes exactly one scheme, got 2: pair, other; "
                "pass --scheme once") in result.output
        assert not (tmp_path / "out").exists()
        assert invoke(*args, "--scheme", "pair").exit_code == 0

    def test_a_repeated_scheme_is_an_error(self, tmp_path):
        cpath = self._annotations(tmp_path)
        config = json.loads(cpath.read_text())
        config["schemes"].append({"name": "other", "groups": ["a", "b"]})
        cpath.write_text(json.dumps(config))
        args = ["sample", "--config", str(cpath), "--train", "10", "--test", "5"]
        result = CliRunner().invoke(main, [*args, "--scheme", "other", "--scheme", "pair"])
        assert result.exit_code == 1
        assert ("ConfigError: sample takes exactly one scheme, got 2: other, pair; "
                "pass --scheme once") in result.output
        assert not (tmp_path / "out").exists()

    def test_no_scheme_is_an_error(self, tmp_path):
        cpath = self._annotations(tmp_path)
        config = json.loads(cpath.read_text())
        config["schemes"] = []
        cpath.write_text(json.dumps(config))
        args = ["sample", "--config", str(cpath), "--train", "10", "--test", "5"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert ("ConfigError: sample takes exactly one scheme and none was given; "
                "pass --scheme") in result.output
        assert not (tmp_path / "out").exists()

    def test_insufficient_documents(self, tmp_path):
        cpath = self._annotations(tmp_path, per_group=3)
        runner = CliRunner()
        result = runner.invoke(
            main, ["sample", "--config", str(cpath), "--train", "10", "--test", "5"]
        )
        assert result.exit_code == 1
        assert "InsufficientDocuments" in result.output


class TestGenTestbed:
    def test_outputs_parse_back(self, tmp_path):
        result = invoke(
            "gen-testbed", "--queries", "3", "--docs", "20", "--groups", "3",
            "--systems", "4", "--seed", "7", "--out", str(tmp_path / "out"),
        )
        assert result.exit_code == 0
        scheme_obj = json.loads(read_out(tmp_path, "scheme.json"))
        scheme = GroupScheme(scheme_obj["name"], tuple(scheme_obj["groups"]))
        runset = parse_run(read_out(tmp_path, "runs.txt"))
        qrels = parse_qrels(read_out(tmp_path, "qrels.txt"))
        table = parse_annotations(read_out(tmp_path, "annotations.tsv"), [scheme])
        assert len(runset.systems) == 4
        assert len(qrels) == 3
        assert len(table.docs(scheme.name)) == 60

    def test_files_unchanged(self, tmp_path):
        # sha256 of the files this command wrote when every ranking was held
        # as a tuple of (doc, score) pairs; the columnar run set must not
        # change a byte of them
        want = {
            "annotations.tsv": "984af53cfa43425e85e68d3f3557a405f90edc0e8171d3d18a68567dad321a0b",
            "qrels.txt": "2c6299a34dbe0bd30c46582a4f239dc9d019afd7da54dcf6bc56c00fbe0ae4ff",
            "runs.txt": "0c4600b8fe00f0e2829b71bbab4bdc3262c96de126dceb12eef1ca9c332ea980",
            "scheme.json": "b3289828c38136c8890d684c470c578d8a7e8b7beab3eeaf0365072665ed9654",
        }
        result = invoke(
            "gen-testbed", "--queries", "3", "--docs", "20", "--groups", "3",
            "--systems", "4", "--seed", "7", "--out", str(tmp_path / "out"),
        )
        assert result.exit_code == 0
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()
        }
        assert got == want

    @pytest.mark.parametrize(
        "shape, want",
        [
            (["--queries", "5", "--docs", "100", "--groups", "3", "--systems", "30"], {
                "annotations.tsv": "2c052ae5f561700d153463237351d988fecaacfb52042d23d348564b9af2a397",
                "qrels.txt": "9d3a6552d7a83b6b00d5195fbf4f6ebc5b2b36cc8a4c53a8d7f69ebffa13c064",
                "runs.txt": "a510f3bb46ed87cb41c51663133898d6d2a50a34dfea6f6574cb1513a8b116f0",
                "scheme.json": "b3289828c38136c8890d684c470c578d8a7e8b7beab3eeaf0365072665ed9654",
            }),
            ([], {
                "annotations.tsv": "99f479c602fe799c71e32884886ba0355e4fe8713cb7ba6eb1f9a1f3fbfcec5e",
                "qrels.txt": "996949d3f9c4f7292cb881eb997e174424f9f80d206f5b0bb62034aad23f0e78",
                "runs.txt": "1b89c7365d7a37da88b50adf5a74e6f0b19e32e3eb642a8ea4860effddde4822",
                "scheme.json": "d8ec31504d488d6bda8ac2ca2c3acefeb3c45504ccd1587a599870646695808b",
            }),
        ],
        ids=["small", "default"],
    )
    def test_fixture_sizes_unchanged(self, tmp_path, shape, want):
        """sha256 of the files written at the output fixtures' two sizes
        with seed 0, taken before the run codes were written in place; the
        benchmark's input digests and criterion 9 rest on these bytes."""
        result = invoke("gen-testbed", *shape, "--seed", "0", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()
        }
        assert got == want

    def test_numeric_strings_in_config_still_accepted(self, tmp_path):
        flags = invoke(
            "gen-testbed", "--queries", "3", "--docs", "20", "--groups", "3",
            "--systems", "4", "--seed", "7", "--out", str(tmp_path / "flags"),
        )
        assert flags.exit_code == 0
        config = {
            "seed": "0",
            "epsilon": "1e-10",
            "testbed": {"queries": "3", "docs_per_query": 20, "groups": 3.0,
                        "systems": "4", "spread": "1.0", "seed": 7},
            "out": str(tmp_path / "config"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = invoke("gen-testbed", "--config", str(path))
        assert result.exit_code == 0, result.output
        for name in ("annotations.tsv", "qrels.txt", "runs.txt", "scheme.json"):
            got, want = (tmp_path / d / name for d in ("config", "flags"))
            assert got.read_bytes() == want.read_bytes()


class TestRunsFiles:
    def _split(self, tmp_path):
        lines = RUNS.splitlines(keepends=True)
        first = tmp_path / "runs_ab.txt"
        second = tmp_path / "runs_c.txt"
        first.write_text("".join(line for line in lines if not line.endswith("sysC\n")))
        second.write_text("".join(line for line in lines if line.endswith("sysC\n")))
        return first, second

    def test_several_files_score_as_one(self, workspace, tmp_path):
        _, config_path, _ = workspace
        assert invoke("evaluate", "--config", str(config_path)).exit_code == 0
        whole = read_out(tmp_path, "metrics.csv")
        first, second = self._split(tmp_path)
        result = invoke(
            "evaluate", "--config", str(config_path), "--runs", str(first), "--runs", str(second)
        )
        assert result.exit_code == 0
        assert read_out(tmp_path, "metrics.csv") == whole

    def test_ranking_in_two_files_is_a_config_error(self, workspace, tmp_path):
        _, config_path, _ = workspace
        first, _ = self._split(tmp_path)
        runner = CliRunner()
        result = runner.invoke(
            main, ["evaluate", "--config", str(config_path), "--runs", str(first),
                   "--runs", str(tmp_path / "runs.txt")],
        )
        assert result.exit_code == 1
        assert "ConfigError: duplicate ranking for ('sysA', 'q1')" in result.output

    def test_non_utf8_runs_file_is_a_config_error(self, workspace, tmp_path):
        _, config_path, _ = workspace
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("q1 Q0 d\xe9 1 1.0 sysA\n".encode("latin-1"))
        result = CliRunner().invoke(
            main, ["evaluate", "--config", str(config_path), "--runs", str(bad)]
        )
        assert result.exit_code == 1
        assert "ConfigError" in result.output and "latin1.txt" in result.output

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep"])
    def test_runs_file_without_rankings_is_a_config_error(self, workspace, tmp_path, command):
        _, config_path, _ = workspace
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        result = CliRunner().invoke(main, [command, "--config", str(config_path),
                                           "--runs", str(empty)])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert lines == [f"Error: ConfigError: runs file {empty} holds no rankings"]
        assert not (tmp_path / "out").exists()


class TestAtomicOutputs:
    def _fail_on_call(self, monkeypatch, target, name, call):
        real = getattr(target, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == call:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)

    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        _write_outputs(str(out), {"a.csv": "old a\n", "b.csv": "old b\n"})
        self._fail_on_call(monkeypatch, Path, "write_text", 2)
        with pytest.raises(OSError):
            _write_outputs(str(out), {"a.csv": "new a\n", "b.csv": "new b\n", "c.csv": "c\n"})
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.csv"]
        assert (out / "a.csv").read_text() == "old a\n"
        assert (out / "b.csv").read_text() == "old b\n"

    def test_failed_move_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        _write_outputs(str(out), {"a.csv": "old a\n", "b.csv": "old b\n"})
        self._fail_on_call(monkeypatch, os, "replace", 2)
        with pytest.raises(OSError):
            _write_outputs(str(out), {"a.csv": "new a\n", "b.csv": "new b\n"})
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.csv"]
        assert (out / "b.csv").read_text() == "old b\n"

    def test_command_failing_after_a_run_keeps_its_reports(self, workspace, tmp_path):
        _, config_path, config = workspace
        assert invoke("evaluate", "--config", str(config_path)).exit_code == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        (tmp_path / "runs.txt").write_text(RUNS + "q9 Q0 broken\n")
        result = CliRunner().invoke(main, ["evaluate", "--config", str(config_path)])
        assert result.exit_code == 1
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


class TestCheckBeforeWork:
    """A config without schemes, or an --out that cannot be a directory,
    fails with one named error line before any input is read."""

    @pytest.fixture
    def spied(self, workspace, monkeypatch):
        calls = []
        for name in ("parse_run", "parse_annotations", "parse_qrels", "generate_testbed"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        return workspace, calls

    def fails(self, args, error):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {error}"), result.output
        assert "Traceback" not in result.output
        return lines[0]

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep"])
    def test_no_schemes(self, spied, command):
        (tmp_path, _, config), calls = spied
        del config["schemes"]
        path = write_config(tmp_path, config, "bare.json")
        self.fails([command, "--config", path], "ConfigError: no schemes declared")
        assert calls == [] and not (tmp_path / "out").exists()

    def test_sweep_with_two_schemes(self, spied):
        (tmp_path, _, config), calls = spied
        config["schemes"].append({"name": "other", "groups": ["h0", "h1"]})
        path = write_config(tmp_path, config, "two.json")
        self.fails(["sweep", "--config", path], "ConfigError: sweep needs exactly one scheme; pass --scheme")
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep"])
    def test_a_repeated_scheme_name(self, spied, command):
        (tmp_path, config_path, config), calls = spied
        args = [command, "--config", str(config_path), "--scheme", "pair", "--scheme", "pair"]
        self.fails(args, "ConfigError: --scheme repeats schemes ['pair']")
        config["eval_schemes"] = ["pair", "pair"]
        path = write_config(tmp_path, config, "twice.json")
        self.fails([command, "--config", path], "ConfigError: config key 'eval_schemes' repeats schemes ['pair']")
        config["schemes"] *= 2
        del config["eval_schemes"]
        path = write_config(tmp_path, config, "declared.json")
        self.fails([command, "--config", path], "ConfigError: config key 'schemes' repeats schemes ['pair']")
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep"])
    def test_a_negative_epsilon(self, spied, command):
        (tmp_path, _, config), calls = spied
        config.update(epsilon=-0.4, divergence="kl")
        path = write_config(tmp_path, config, "negative.json")
        line = self.fails([command, "--config", path], "ConfigError: config key 'epsilon'")
        assert line == "Error: ConfigError: config key 'epsilon' must be at least 0.0, got -0.4"
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,flag,role",
        [
            ("compare", "--annotations-b", "annotations"),
            ("evaluate", "--qrels", "qrels"),
            ("evaluate", "--target", "target"),
            ("sweep", "--annotations", "annotations"),
            ("sample", "--annotations", "annotations"),
        ],
    )
    @pytest.mark.parametrize(
        "kind,reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory"),
         ("unreadable", "Permission denied")],
    )
    def test_input_that_cannot_be_read(self, spied, monkeypatch, command, flag, role, kind, reason):
        (tmp_path, config_path, _), calls = spied
        target = tmp_path / kind
        if kind == "directory":
            target.mkdir()
        elif kind == "unreadable":
            # a permission bit does not stop root, so the open itself is refused
            target.write_text("")

            def refusing(path, *args, **kwargs):
                if str(path) == str(target):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return open(path, *args, **kwargs)

            monkeypatch.setattr(cli, "open", refusing, raising=False)
        args = [command, "--config", str(config_path), flag, str(target)]
        line = self.fails(args, "ConfigError: ")
        assert line.endswith(f"cannot read {role} file {target}: {reason}")
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare", "sweep", "sample", "gen-testbed"])
    @pytest.mark.parametrize("out,reason", [("afile", "File exists"), ("afile/x", "Not a directory")])
    def test_out_that_cannot_be_a_directory(self, spied, command, out, reason):
        (tmp_path, config_path, _), calls = spied
        (tmp_path / "afile").write_text("kept\n")
        target = str(tmp_path / out)
        line = self.fails([command, "--config", str(config_path), "--out", target], "OutputError: ")
        assert line.endswith(f"cannot write --out {target}: {reason}")
        assert calls == [] and (tmp_path / "afile").read_text() == "kept\n"

    def test_write_error_names_out(self, tmp_path):
        from rankfair.errors import OutputError

        (tmp_path / "afile").write_text("kept\n")
        with pytest.raises(OutputError, match=f"^cannot write --out {tmp_path / 'afile'}: File exists$"):
            _write_outputs(str(tmp_path / "afile"), {"a.csv": "a\n"})
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestCost:
    def test_json_matches_printed_total(self):
        plain = invoke("cost", "--docs", "1000", "--rate", "0.5", "--tokens", "512")
        printed_total = float(plain.output.strip().splitlines()[-1].split("$")[1])
        as_json = invoke("cost", "--docs", "1000", "--rate", "0.5", "--tokens", "512", "--json")
        payload = json.loads(as_json.output)
        assert payload["total"] == printed_total == 0.256

    def test_default_model_exceeds_2000(self):
        result = invoke("cost", "--docs", "6000000", "--json")
        payload = json.loads(result.output)
        assert payload["model"] == "gpt-3.5-turbo"
        assert payload["total"] > 2000.0

    def test_zero_docs_fixed_only(self):
        result = invoke("cost", "--docs", "0", "--rate", "1.0", "--fixed", "25.0", "--json")
        assert json.loads(result.output)["total"] == 25.0

    def test_unknown_model(self):
        runner = CliRunner()
        result = runner.invoke(main, ["cost", "--docs", "10", "--model", "nope"])
        assert result.exit_code == 1


# (command and flags, config changes, what the message names): the flag or
# config key of a ConfigError, or another error's class and text
BAD_INPUTS = [
    (["sweep", "--trials", "0"], {}, "--trials"),
    (["sweep", "--levels", "0.5,abc"], {}, "--levels"),
    (["sweep", "--workers", "0"], {}, "--workers"),
    (["sweep", "--workers", "-3"], {}, "--workers"),
    (["evaluate", "--cutoff", "0"], {}, "--cutoff"),
    (["evaluate"], {"attention": {"kind": "bogus"}}, "'attention'"),
    (["evaluate"], {"attention": {"kind": "uniform"}}, "'attention'"),
    (["sweep"], {"sweep": {"trials": 0}}, "'sweep.trials'"),
    (["sweep"], {"sweep": {"workers": -1}}, "'sweep.workers'"),
    (["sweep"], {"sweep": {"levels": [0.5, "x"]}}, "'sweep.levels'"),
    (["gen-testbed", "--groups", "1"], {}, "--groups"),
    (["gen-testbed", "--queries", "0"], {}, "--queries"),
    (["evaluate"], {"schemes": [{"name": "pair", "groups": ["g0", "g0"]}]}, "'schemes'"),
    (["sample", "--train", "-1"], {}, "--train"),
    (["cost", "--docs", "-5"], {}, "--docs"),
    (["gen-testbed"], {"seed": "abc"}, "'seed'"),
    (["gen-testbed"], {"seed": None}, "'seed'"),
    (["gen-testbed"], {"seed": [1]}, "'seed'"),
    (["gen-testbed"], {"epsilon": "x"}, "'epsilon'"),
    (["gen-testbed"], {"epsilon": 10**400}, "'epsilon'"),
    (["gen-testbed"], {"sweep": 5}, "'sweep'"),
    (["sweep"], {"sweep": ["levels"]}, "'sweep'"),
    (["gen-testbed"], {"testbed": 5}, "'testbed'"),
    (["gen-testbed"], {"testbed": ["queries"]}, "'testbed'"),
    (["gen-testbed"], {"testbed": {"queries": "x"}}, "'testbed.queries'"),
    (["gen-testbed"], {"testbed": {"docs_per_query": None}}, "'testbed.docs_per_query'"),
    (["gen-testbed"], {"testbed": {"groups": "four"}}, "'testbed.groups'"),
    (["gen-testbed"], {"testbed": {"systems": {}}}, "'testbed.systems'"),
    (["gen-testbed"], {"testbed": {"spread": None}}, "'testbed.spread'"),
    (["gen-testbed"], {"testbed": {"grade_probs": 5}}, "'testbed.grade_probs'"),
    (["gen-testbed"], {"testbed": {"seed": "q"}}, "'testbed.seed'"),
    (["evaluate"], {"complement": "no"}, "'complement'"),
    (["evaluate"], {"include_overall": "false"}, "'include_overall'"),
    (["evaluate"], {"schemes": 5}, "'schemes'"),
    (["evaluate"], {"runs": 5}, "'runs'"),
    (["evaluate"], {"eval_schemes": 7}, "'eval_schemes'"),
    (["evaluate"], {"annotations": 0}, "'annotations'"),
    (["evaluate"], {"qrels": 5}, "'qrels'"),
    (["evaluate"], {"target_mode": "grade"}, "'target_mode'"),
    (["evaluate"], {"eval_schemes": "group"}, "'eval_schemes'"),
    (["evaluate"], {"annotation_format": "csv"}, "'annotation_format'"),
    (["sweep"], {"sweep": {"style": 5}}, "'sweep.style'"),
    (["sweep"], {"sweep": {"trails": 1}}, "'sweep.trails'"),
    (["evaluate"], {"attention": {"patinece": 0.9}}, "'attention.patinece'"),
    (["gen-testbed"], {"seed": 1.7}, "'seed'"),
    (["gen-testbed"], {"seed": True}, "'seed'"),
    (["cost", "--docs", "nan"], {}, "--docs"),
    (["cost", "--docs", "inf"], {}, "--docs"),
    (["cost", "--docs", "10", "--tokens", "nan"], {}, "--tokens"),
    (["sample", "--scheme", "nope"], {}, "--scheme"),
    (["evaluate", "--patience", "nan"], {}, "--patience"),
    (["evaluate"], {"schemes": [{"name": "pair", "groups": "ab"}]}, "'schemes'"),
    (["evaluate"], {"schemes": [{"name": 5, "groups": ["g0", "g1"]}]}, "'schemes'"),
    (["evaluate"], {"schemes": [{"name": "pair", "groups": ["g0", "g1"], "unknown": True}]},
     "'schemes'"),
    (["evaluate"], {"schemes": [{"name": "pair", "groups": [1, 2]}]}, "'schemes'"),
    (["evaluate"], {"schemes": [{"name": "pair", "groups": ["g0", "g1"], "colour": 1}]},
     "'schemes'"),
    (["evaluate", "--patience", "1.5"], {}, "--patience"),
    (["evaluate"], {"attention": {"patience": 1.5}}, "'attention'"),
    (["sweep", "--levels", "0.5,1.0", "--trials", "1"],
     {"testbed": {"queries": 2, "docs_per_query": 4, "groups": 2, "systems": 3, "seed": 1}},
     "ConstantInput: accuracy 0.5, trial 0: the degraded system means are constant"),
    (["sweep", "--levels", "0.5,1.0", "--trials", "1"],
     {"testbed": {"queries": 2, "docs_per_query": 10, "groups": 2, "systems": 2, "seed": 1}},
     "TooFewSamples: need at least 3 systems, got 2"),
    (["sweep", "--runs", "runs.txt"], {}, "--annotations"),
    (["sweep"], {"annotations": "human.tsv"}, "--runs"),
    (["sweep"], {"runs": "runs.txt"}, "'annotations'"),
]


@pytest.mark.parametrize("args,changes,name", BAD_INPUTS)
def test_bad_input_is_one_named_error_line(tmp_path, args, changes, name):
    config = {
        "schemes": [{"name": "pair", "groups": ["g0", "g1"]}],
        "testbed": {"queries": 2, "docs_per_query": 10, "groups": 2, "systems": 3, "seed": 1},
        "out": str(tmp_path / "out"),
        **changes,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    config_flag = [] if args[0] == "cost" else ["--config", str(path)]
    result = CliRunner().invoke(main, [*args, *config_flag])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    error = name.split(": ")[0] if ": " in name else "ConfigError"
    assert len(lines) == 1 and lines[0].startswith(f"Error: {error}: "), result.output
    assert name in lines[0]
    assert not (tmp_path / "out").exists()


# a value for every flag, as click passes it to the command
FLAG_VALUES = {
    "--seed": 7, "--out": "elsewhere", "--runs": ("a.txt", "b.txt"), "--qrels": "q.txt",
    "--annotations": "h.tsv", "--annotations-b": "m.tsv", "--scheme": ("pair",),
    "--divergence": "kl", "--patience": 0.8, "--cutoff": 20, "--target": "uniform",
    "--target-mode": "graded", "--fallback": "reject", "--complement": True,
    "--exclude-missing": True, "--levels": ["0.5", "1.0"], "--trials": 2, "--workers": 3,
    "--style": "biased", "--queries": 3, "--docs": 20, "--groups": 3, "--systems": 4,
    "--spread": 0.5, "--grade-probs": ["0.5", "0.5"],
}
SCHEMES = {"schemes": [{"name": "pair", "groups": ["g0", "g1"]}]}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_every_flag_has_a_value():
    assert set(FLAG_VALUES) == set(_FLAG_KEYS)


@pytest.mark.parametrize("flag", sorted(_FLAG_KEYS))
def test_flag_and_its_config_key_give_the_same_config(tmp_path, flag):
    value = FLAG_VALUES[flag]
    section, _, key = _FLAG_KEYS[flag].rpartition(".")
    by_key = {**SCHEMES, **({section: {key: value}} if section else {key: value})}
    base = write_config(tmp_path, SCHEMES, "base.json")
    cfg = load_config(write_config(tmp_path, by_key))
    assert load_config(base, {flag: value}) == cfg != load_config(base)


def test_every_option_of_a_config_command_is_in_the_flag_table():
    # an option missing from the table would be read by click and then ignored
    own = {"config_path", "train_n", "test_n"}
    for command in ("evaluate", "compare", "sweep", "sample", "gen-testbed"):
        for param in main.commands[command].params:
            assert param.name in own or param.opts[0] in _FLAG_KEYS, (command, param.opts)


def test_readme_config_table_names_the_flag_of_each_key():
    from rankfair.cli import _FLAGS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    flags = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            named = re.match(r"`(--[a-z-]+)`", cells[4])
            flags[cells[0].strip("`")] = named and named.group(1)
    assert "testbed.seed" in flags and "`gen-testbed` only" in readme
    want = {key: flag for flag, (key, _, _) in _FLAGS.items()}
    want["testbed.seed"] = "--seed"  # gen-testbed's --seed
    assert {key: flag for key, flag in flags.items() if flag} == want


class TestSeedRules:
    TESTBED = {"queries": 3, "docs_per_query": 20, "groups": 3, "systems": 4}

    def test_testbed_section_without_seed_takes_the_config_seed(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5, "testbed": self.TESTBED})
        assert load_config(path).testbed.seed == 5
        assert load_config(write_config(tmp_path, {"testbed": self.TESTBED})).testbed.seed == 0

    def test_sweep_seed_flag_leaves_the_testbed_seed(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5, "testbed": self.TESTBED})
        cfg = load_config(path, {"--seed": 9})
        assert (cfg.seed, cfg.testbed.seed) == (9, 5)
        seeded = write_config(tmp_path, {"seed": 5, "testbed": {**self.TESTBED, "seed": 3}})
        cfg = load_config(seeded, {"--seed": 9})
        assert (cfg.seed, cfg.testbed.seed) == (9, 3)

    def test_gen_testbed_seed_flag_sets_the_testbed_seed(self, tmp_path):
        flags = ["--queries", "3", "--docs", "20", "--groups", "3", "--systems", "4"]
        result = invoke("gen-testbed", *flags, "--seed", "7", "--out", str(tmp_path / "a"))
        assert result.exit_code == 0
        config = {"seed": 5, "testbed": {**self.TESTBED, "seed": 3}, "out": str(tmp_path / "b")}
        path = write_config(tmp_path, config)
        assert invoke("gen-testbed", "--config", path, "--seed", "7").exit_code == 0
        for name in ("annotations.tsv", "qrels.txt", "runs.txt", "scheme.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("A typical config:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_config(tmp_path, json.loads(example)))
    assert cfg.schemes[0].name == "gender" and cfg.testbed is not None


def test_readme_library_example_runs(tmp_path, monkeypatch):
    from rankfair.ingest import write_annotations, write_qrels, write_run
    from rankfair.simulate import TestbedConfig, apply_confusion, confusion_for_accuracy, generate_testbed

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    bed = generate_testbed(TestbedConfig(n_queries=3, docs_per_query=40, n_groups=4, n_systems=5, seed=2))
    model = apply_confusion(bed.table, confusion_for_accuracy(bed.table.scheme("group"), 0.7), seed=3)
    (tmp_path / "runs.txt").write_text(write_run(bed.runset))
    (tmp_path / "qrels.txt").write_text(write_qrels(bed.qrels))
    labels = {"\tgroup\t": "\tgender\t", "g0:": "male:", "g1:": "female:", "g2:": "nonbinary:",
              "g3:": "unknown:"}
    for name, table in (("human.tsv", bed.table), ("model.tsv", model)):
        text = write_annotations(table)
        for old, new in labels.items():
            text = text.replace(old, new)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(example, namespace)
    assert len(namespace["report"].system_rows()) == 1
    assert namespace["scores_h"].values.shape == (1, 5, 3)
