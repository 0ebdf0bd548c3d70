"""Command-line entry point.

Commands wire file-based inputs through the library and write report files;
they perform no computation of their own, so CLI results always match direct
library calls. Every command is deterministic given its inputs, flags, and
seed. Report files are written to temporary files and moved into place
only once all of them are written, so a failing command leaves the previous
reports as they were.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterator, Mapping

import click

from .core import GroupScheme, MissingPolicy, Qrels, RunSet
from .errors import ConfigError, RankfairError
from .exposure import DEFAULT_ATTENTION, AttentionModel, ExposureVector
from .ingest import (
    SamplePlan,
    parse_annotations,
    parse_qrels,
    parse_run,
    stratified_sample,
    write_annotations,
    write_qrels,
    write_run,
)
from .metrics import (
    MetricConfig,
    aggregates_to_csv,
    evaluate_runset,
    reports_to_csv,
    reports_to_json,
)
from .simulate import (
    Testbed,
    TestbedConfig,
    accuracy_sweep,
    annotation_cost,
    default_cost_rates,
    generate_testbed,
    sweep_summary_to_csv,
    sweep_to_json,
    sweep_trials_to_csv,
)
from .stats import (
    CorrelationReport,
    correlation_report,
    correlation_to_csv,
    correlation_to_json,
)

_CONFIG_KEYS = {
    "schemes", "runs", "runs_b", "qrels", "annotations", "annotations_b",
    "annotation_format", "eval_schemes", "divergence", "attention", "epsilon",
    "target", "target_mode", "fallback", "complement", "exclude_unknown",
    "exclude_missing", "include_overall", "seed", "out", "testbed", "sweep",
}

_TESTBED_KEYS = {
    "queries", "docs_per_query", "groups", "systems", "spread", "grade_probs", "seed",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment settings; any flag can override a field."""

    schemes: tuple[GroupScheme, ...] = ()
    runs: tuple[str, ...] = ()
    runs_b: tuple[str, ...] = ()
    qrels: str | None = None
    annotations: str | None = None
    annotations_b: str | None = None
    annotation_format: str = "tsv"
    eval_schemes: tuple[str, ...] = ()
    divergence: str = "js"
    attention: AttentionModel = DEFAULT_ATTENTION
    epsilon: float = 1e-10
    target: str = "qrels"  # "qrels" | "uniform" | path to a target file
    target_mode: str = "binary"
    fallback: str = "uniform"
    complement: bool = False
    exclude_unknown: bool = False
    exclude_missing: bool = False
    include_overall: bool = True
    seed: int = 0
    out: str = "reports"
    testbed: TestbedConfig | None = None
    levels: tuple[float, ...] = (0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 1.0)
    trials: int = 5
    workers: int = 1
    confusion_style: str = "uniform"


@contextmanager
def _config_errors(name: str) -> Iterator[None]:
    """Re-raise a ``ValueError`` from building a config object as a
    ``ConfigError`` that names the flag or config key it came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _scheme_from_obj(obj: Mapping) -> GroupScheme:
    try:
        name = obj["name"]
        groups = tuple(str(g) for g in obj["groups"])
    except (KeyError, TypeError):
        raise ConfigError("scheme entries need 'name' and 'groups'") from None
    unknown = obj.get("unknown")
    if unknown is None:
        index = None
    elif isinstance(unknown, int):
        index = unknown
    else:
        if unknown not in groups:
            raise ConfigError(f"unknown label {unknown!r} not in scheme {name!r}")
        index = groups.index(unknown)
    with _config_errors(f"config key 'schemes', scheme {name!r}"):
        return GroupScheme(name, groups, index)


def _attention_from_obj(obj: Mapping) -> AttentionModel:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"config key 'attention' must be an object, got {obj!r}")
    try:
        return AttentionModel(
            obj.get("kind", "geometric"),
            patience=float(obj.get("patience", 0.5)),
            cutoff=obj.get("cutoff"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'attention': {exc}") from None


def _integer(value, name: str) -> int:
    """A flag or config value that must be an integer."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _number(value, name: str) -> float:
    """A config value that must be a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _count(value, name: str) -> int:
    """A flag or config value that must be an integer of at least 1."""
    count = _integer(value, name)
    if count < 1:
        raise ConfigError(f"{name} must be at least 1, got {count}")
    return count


def _levels(values, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}") from None


def _testbed_from_obj(obj, default_seed: int) -> TestbedConfig:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"config key 'testbed' must be an object, got {obj!r}")
    extra = set(obj) - _TESTBED_KEYS
    if extra:
        raise ConfigError(f"unknown testbed keys: {sorted(extra)}")

    def field(key, convert, default):
        return convert(obj.get(key, default), f"config key 'testbed.{key}'")

    with _config_errors("config key 'testbed'"):
        return TestbedConfig(
            n_queries=field("queries", _integer, 50),
            docs_per_query=field("docs_per_query", _integer, 1000),
            n_groups=field("groups", _integer, 4),
            n_systems=field("systems", _integer, 30),
            spread=field("spread", _number, 1.0),
            grade_probs=field("grade_probs", _levels, (0.7, 0.2, 0.1)),
            seed=field("seed", _integer, default_seed),
        )


def load_config(path: str | None) -> ExperimentConfig:
    """Load a JSON experiment config; a missing path yields the defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    extra = set(raw) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    seed = _integer(raw.get("seed", 0), "config key 'seed'")
    runs = raw.get("runs", ())
    if isinstance(runs, str):
        runs = (runs,)
    runs_b = raw.get("runs_b", ())
    if isinstance(runs_b, str):
        runs_b = (runs_b,)
    sweep = raw.get("sweep", {})
    if not isinstance(sweep, Mapping):
        raise ConfigError(f"config key 'sweep' must be an object, got {sweep!r}")
    cfg = ExperimentConfig(
        schemes=tuple(_scheme_from_obj(o) for o in raw.get("schemes", ())),
        runs=tuple(str(r) for r in runs),
        runs_b=tuple(str(r) for r in runs_b),
        qrels=raw.get("qrels"),
        annotations=raw.get("annotations"),
        annotations_b=raw.get("annotations_b"),
        annotation_format=raw.get("annotation_format", "tsv"),
        eval_schemes=tuple(raw.get("eval_schemes", ())),
        divergence=raw.get("divergence", "js"),
        attention=_attention_from_obj(raw.get("attention", {})),
        epsilon=_number(raw.get("epsilon", 1e-10), "config key 'epsilon'"),
        target=raw.get("target", "qrels"),
        target_mode=raw.get("target_mode", "binary"),
        fallback=raw.get("fallback", "uniform"),
        complement=bool(raw.get("complement", False)),
        exclude_unknown=bool(raw.get("exclude_unknown", False)),
        exclude_missing=bool(raw.get("exclude_missing", False)),
        include_overall=bool(raw.get("include_overall", True)),
        seed=seed,
        out=raw.get("out", "reports"),
        testbed=_testbed_from_obj(raw["testbed"], seed) if "testbed" in raw else None,
        levels=_levels(sweep.get("levels", ExperimentConfig.levels), "config key 'sweep.levels'"),
        trials=_count(sweep.get("trials", 5), "config key 'sweep.trials'"),
        workers=_count(sweep.get("workers", 1), "config key 'sweep.workers'"),
        confusion_style=sweep.get("style", "uniform"),
    )
    return cfg


def _override(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    changes = {k: v for k, v in kwargs.items() if v not in (None, (), "")}
    return replace(cfg, **changes) if changes else cfg


@contextmanager
def _input(path: str | None, role: str) -> Iterator[IO[str]]:
    """An input file opened for parsing; read errors become ``ConfigError``."""
    if path is None:
        raise ConfigError(f"no {role} file configured")
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot read {role} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{role} file {path} is not UTF-8 text: {exc.reason}") from None


def _load_runset(cfg: ExperimentConfig, paths: tuple[str, ...] | None = None) -> RunSet:
    paths = cfg.runs if paths is None else paths
    if not paths:
        raise ConfigError("no runs file configured")
    parts = []
    for path in paths:
        with _input(path, "runs") as fh:
            parts.append(parse_run(fh))
    if len(parts) == 1:
        return parts[0]
    try:
        return RunSet.concat(parts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_table(cfg: ExperimentConfig, path: str | None, provenance: str):
    if not cfg.schemes:
        raise ConfigError("no schemes declared; add a 'schemes' list to the config")
    with _input(path, "annotations") as fh:
        return parse_annotations(fh, cfg.schemes, cfg.annotation_format, provenance=provenance)


def _load_qrels_if_needed(cfg: ExperimentConfig) -> Qrels | None:
    if cfg.target == "qrels":
        with _input(cfg.qrels, "qrels") as fh:
            return parse_qrels(fh)
    return None


def _load_explicit_targets(cfg: ExperimentConfig):
    with _input(cfg.target, "target") as fh:
        table = parse_annotations(fh, cfg.schemes, cfg.annotation_format)
    targets: dict[str, dict[str, ExposureVector]] = {}
    for name in table.scheme_names:
        scheme = table.scheme(name)
        targets[name] = {
            qid: ExposureVector(scheme, vector.weights, normalized=True)
            for qid, vector in table.docs(name).items()
        }
    return targets


def _metric_config(cfg: ExperimentConfig) -> MetricConfig:
    try:
        fallback = MissingPolicy(cfg.fallback)
    except ValueError:
        raise ConfigError(f"unknown fallback policy {cfg.fallback!r}") from None
    if cfg.target == "qrels":
        target = "qrels-binary" if cfg.target_mode == "binary" else "qrels-graded"
        explicit = None
    elif cfg.target == "uniform":
        target, explicit = "uniform", None
    else:
        target = "file"
        explicit = _load_explicit_targets(cfg)
    return MetricConfig(
        attention=cfg.attention,
        divergence=cfg.divergence,
        epsilon=cfg.epsilon,
        target=target,
        explicit_targets=explicit,
        fallback=fallback,
        include_overall=cfg.include_overall,
        complement=cfg.complement,
        exclude_unknown=cfg.exclude_unknown,
    )


def _eval_scheme_names(cfg: ExperimentConfig) -> list[str]:
    if cfg.eval_schemes:
        return list(cfg.eval_schemes)
    return [s.name for s in cfg.schemes]


def _write_outputs(out_dir: str, files: Mapping[str, str]) -> None:
    """Write every file to a temporary file in ``out_dir``, then move each
    into place, so that a failure leaves the previous outputs as they were
    and no temporary file behind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged = {out / f".{name}.{os.getpid()}.tmp": out / name for name in files}
    try:
        for tmp, content in zip(staged, files.values()):
            tmp.write_text(content, encoding="utf-8")
        for tmp, path in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _guarded(fn):
    try:
        fn()
    except RankfairError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group()
def main():
    """Group-fairness evaluation of ranked retrieval runs."""


_config_option = click.option(
    "--config", "config_path", default=None, help="Path to a JSON experiment config."
)
_seed_option = click.option("--seed", type=int, default=None, help="Override the seed.")
_out_option = click.option("--out", default=None, help="Output directory.")


def _eval_options(fn):
    for option in (
        click.option("--runs", multiple=True, help="Run file (repeatable)."),
        click.option("--qrels", default=None, help="Qrels file."),
        click.option("--annotations", default=None, help="Annotation table."),
        click.option(
            "--scheme", "eval_schemes", multiple=True,
            help="Evaluate only these declared schemes (repeatable).",
        ),
        click.option("--divergence", type=click.Choice(["kl", "js"]), default=None),
        click.option("--patience", type=float, default=None, help="Geometric attention patience."),
        click.option("--cutoff", type=int, default=None, help="Attention cutoff rank."),
        click.option("--target", default=None, help="qrels, uniform, or a target file path."),
        click.option("--target-mode", type=click.Choice(["binary", "graded"]), default=None),
        click.option(
            "--fallback", type=click.Choice(["uniform", "all-unknown", "reject"]), default=None
        ),
        click.option("--complement", is_flag=True, default=False,
                     help="Report 1 - JS/ln2 (higher is fairer)."),
    ):
        fn = option(fn)
    return fn


def _effective_config(config_path, seed, out, **kwargs) -> ExperimentConfig:
    cfg = load_config(config_path)
    attention = cfg.attention
    patience = kwargs.pop("patience", None)
    cutoff = kwargs.pop("cutoff", None)
    if cutoff is not None:
        _count(cutoff, "--cutoff")
    if patience is not None or cutoff is not None:
        attention = AttentionModel(
            attention.kind,
            patience=patience if patience is not None else attention.patience,
            cutoff=cutoff if cutoff is not None else attention.cutoff,
        )
    complement = kwargs.pop("complement", False) or cfg.complement
    return _override(
        cfg,
        seed=seed,
        out=out,
        attention=attention,
        complement=complement,
        **kwargs,
    )


@main.command()
@_config_option
@_seed_option
@_out_option
@_eval_options
def evaluate(config_path, seed, out, **kwargs):
    """Score every system's rankings against the target exposure."""

    def body():
        cfg = _effective_config(config_path, seed, out, **kwargs)
        runset = _load_runset(cfg)
        table = _load_table(cfg, cfg.annotations, "human")
        qrels = _load_qrels_if_needed(cfg)
        reports = evaluate_runset(
            runset, qrels, table, _eval_scheme_names(cfg), _metric_config(cfg)
        )
        _write_outputs(
            cfg.out,
            {
                "metrics.csv": reports_to_csv(reports),
                "metrics_system.csv": aggregates_to_csv(reports),
                "metrics.json": reports_to_json(reports),
            },
        )
        click.echo(f"evaluated {len(reports)} systems -> {cfg.out}")

    _guarded(body)


@main.command()
@_config_option
@_seed_option
@_out_option
@_eval_options
@click.option("--annotations-b", default=None, help="Second annotation table.")
@click.option("--exclude-missing", is_flag=True, default=False,
              help="Drop queries any system failed to return from query-level rows.")
def compare(config_path, seed, out, annotations_b, exclude_missing, **kwargs):
    """Correlate metrics computed under two annotation sources."""

    def body():
        cfg = _effective_config(config_path, seed, out, **kwargs)
        cfg = _override(cfg, annotations_b=annotations_b,
                        exclude_missing=exclude_missing or cfg.exclude_missing)
        runset = _load_runset(cfg)
        runset_b = _load_runset(cfg, cfg.runs_b) if cfg.runs_b else runset
        table_a = _load_table(cfg, cfg.annotations, "human")
        table_b = _load_table(cfg, cfg.annotations_b, "model")
        qrels = _load_qrels_if_needed(cfg)
        mconfig = _metric_config(cfg)
        names = _eval_scheme_names(cfg)
        reports_a = evaluate_runset(runset, qrels, table_a, names, mconfig)
        reports_b = evaluate_runset(runset_b, qrels, table_b, names, mconfig)
        report = correlation_report(
            reports_a, reports_b, level="both", exclude_missing=cfg.exclude_missing
        )
        system_part = CorrelationReport(report.alpha, report.system_rows(), report.skipped)
        query_part = CorrelationReport(report.alpha, report.query_rows(), ())
        _write_outputs(
            cfg.out,
            {
                "correlation_system.csv": correlation_to_csv(system_part),
                "correlation_query.csv": correlation_to_csv(query_part),
                "correlation.json": correlation_to_json(report),
            },
        )
        click.echo(f"compared {len(reports_a)} systems -> {cfg.out}")

    _guarded(body)


@main.command()
@_config_option
@_seed_option
@_out_option
@_eval_options
@click.option("--levels", default=None, help="Comma-separated accuracy levels.")
@click.option("--trials", type=int, default=None, help="Trials per accuracy level.")
@click.option("--workers", type=int, default=None,
              help="Accepted for compatibility (at least 1); trials always run serially.")
@click.option("--style", type=click.Choice(["uniform", "biased"]), default=None,
              help="Confusion matrix error structure.")
def sweep(config_path, seed, out, levels, trials, workers, style, **kwargs):
    """Sweep annotation accuracy and correlate degraded vs. true metrics.

    Uses run/qrels/annotation files when configured, otherwise generates the
    configured (or default) synthetic testbed.
    """

    def body():
        cfg = _effective_config(config_path, seed, out, **kwargs)
        if levels is not None:
            cfg = _override(cfg, levels=_levels(levels.split(","), "--levels"))
        for value, flag in ((trials, "--trials"), (workers, "--workers")):
            if value is not None:
                _count(value, flag)
        cfg = _override(cfg, trials=trials, workers=workers, confusion_style=style)
        scheme_name = None
        if cfg.runs and cfg.annotations:
            runset = _load_runset(cfg)
            table = _load_table(cfg, cfg.annotations, "human")
            qrels = _load_qrels_if_needed(cfg)
            if qrels is None:
                qrels = Qrels({})
            names = _eval_scheme_names(cfg)
            if len(names) != 1:
                raise ConfigError("sweep needs exactly one scheme; pass --scheme")
            scheme_name = names[0]
            testbed = Testbed(table, qrels, runset)
        else:
            testbed = generate_testbed(cfg.testbed or TestbedConfig(seed=cfg.seed))
        result = accuracy_sweep(
            testbed,
            cfg.levels,
            cfg.trials,
            metric_config=_metric_config(cfg),
            seed=cfg.seed,
            workers=cfg.workers,
            style=cfg.confusion_style,
            scheme_name=scheme_name,
        )
        _write_outputs(
            cfg.out,
            {
                "sweep_trials.csv": sweep_trials_to_csv(result),
                "sweep_summary.csv": sweep_summary_to_csv(result),
                "sweep.json": sweep_to_json(result),
            },
        )
        click.echo(
            f"swept {len(result.levels)} levels x {cfg.trials} trials -> {cfg.out}"
        )

    _guarded(body)


@main.command()
@_config_option
@_seed_option
@_out_option
@click.option("--annotations", default=None, help="Annotation table.")
@click.option("--scheme", "scheme_name", default=None, help="Scheme to stratify on.")
@click.option("--train", "train_n", type=int, default=500, show_default=True,
              help="Training documents per group.")
@click.option("--test", "test_n", type=int, default=100, show_default=True,
              help="Testing documents per group.")
def sample(config_path, seed, out, annotations, scheme_name, train_n, test_n):
    """Draw disjoint train/test document samples, equally sized per group."""

    def body():
        cfg = _effective_config(config_path, seed, out, annotations=annotations)
        name = scheme_name or (cfg.eval_schemes[0] if cfg.eval_schemes else None)
        if name is None:
            if len(cfg.schemes) != 1:
                raise ConfigError("pass --scheme to pick the sampling scheme")
            name = cfg.schemes[0].name
        with _config_errors("--train or --test"):
            plan = SamplePlan(name, train_n, test_n, seed=cfg.seed)
        table = _load_table(cfg, cfg.annotations, "human")
        train, test = stratified_sample(table, plan)
        _write_outputs(
            cfg.out,
            {
                "train.txt": "".join(f"{d}\n" for d in sorted(train)),
                "test.txt": "".join(f"{d}\n" for d in sorted(test)),
            },
        )
        click.echo(f"sampled {len(train)} train / {len(test)} test ids -> {cfg.out}")

    _guarded(body)


@main.command("gen-testbed")
@_config_option
@_seed_option
@_out_option
@click.option("--queries", type=int, default=None)
@click.option("--docs", type=int, default=None, help="Documents per query.")
@click.option("--groups", type=int, default=None)
@click.option("--systems", type=int, default=None)
@click.option("--spread", type=float, default=None)
@click.option("--grade-probs", default=None, help="Comma-separated grade probabilities.")
def gen_testbed(config_path, seed, out, queries, docs, groups, systems, spread, grade_probs):
    """Generate a synthetic testbed and write its annotation/qrels/run files."""

    def body():
        cfg = _effective_config(config_path, seed, out)
        base = cfg.testbed or TestbedConfig(seed=cfg.seed)
        flags = (
            ("--queries", "n_queries", queries),
            ("--docs", "docs_per_query", docs),
            ("--groups", "n_groups", groups),
            ("--systems", "n_systems", systems),
            ("--spread", "spread", spread),
            ("--grade-probs", "grade_probs", grade_probs),
            ("--seed", "seed", seed),
        )
        # one field at a time, so that an error names the flag that caused it
        for flag, field, value in flags:
            if value is not None:
                with _config_errors(flag):
                    if field == "grade_probs":
                        value = tuple(float(p) for p in value.split(","))
                    base = replace(base, **{field: value})
        testbed = generate_testbed(base)
        scheme = testbed.table.scheme(testbed.scheme_name)
        scheme_obj = {"name": scheme.name, "groups": list(scheme.groups), "unknown": None}
        _write_outputs(
            cfg.out,
            {
                "annotations.tsv": write_annotations(testbed.table),
                "qrels.txt": write_qrels(testbed.qrels),
                "runs.txt": write_run(testbed.runset),
                "scheme.json": json.dumps(scheme_obj, indent=2) + "\n",
            },
        )
        click.echo(
            f"generated testbed ({base.n_queries} queries, {base.n_systems} systems) -> {cfg.out}"
        )

    _guarded(body)


@main.command()
@click.option("--docs", "n_docs", type=float, required=True, help="Documents to annotate.")
@click.option("--model", default="gpt-3.5-turbo", show_default=True,
              help="Pricing preset from the bundled rate table.")
@click.option("--tokens", type=float, default=None, help="Tokens per document.")
@click.option("--rate", type=float, default=None, help="Price per 1M tokens (overrides preset).")
@click.option("--fixed", type=float, default=None, help="Fixed cost, e.g. fine-tuning.")
@click.option("--json", "as_json", is_flag=True, default=False, help="Machine-readable output.")
def cost(n_docs, model, tokens, rate, fixed, as_json):
    """Estimate the price of annotating a corpus with a priced model."""

    def body():
        rates = default_cost_rates()
        if rate is None:
            try:
                preset = rates["models"][model]
            except KeyError:
                raise ConfigError(
                    f"unknown model {model!r}; known: {sorted(rates['models'])}"
                ) from None
            rate_value = preset["rate_per_million_tokens"]
            fixed_value = preset["fixed_cost"] if fixed is None else fixed
        else:
            rate_value = rate
            fixed_value = 0.0 if fixed is None else fixed
        tokens_value = rates["tokens_per_doc"] if tokens is None else tokens
        with _config_errors("--docs, --tokens, --rate or --fixed"):
            variable = annotation_cost(n_docs, tokens_value, rate_value, 0.0)
            total = annotation_cost(n_docs, tokens_value, rate_value, fixed_value)
        if as_json:
            click.echo(
                json.dumps(
                    {
                        "model": model if rate is None else None,
                        "docs": n_docs,
                        "tokens_per_doc": tokens_value,
                        "rate_per_million_tokens": rate_value,
                        "fixed_cost": fixed_value,
                        "variable_cost": variable,
                        "total": total,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            if rate is None:
                click.echo(f"model: {model}")
            click.echo(f"documents: {n_docs:g}")
            click.echo(f"tokens per document: {tokens_value:g}")
            click.echo(f"rate: ${rate_value:g} per 1M tokens")
            click.echo(f"variable cost: ${variable!r}")
            click.echo(f"fixed cost: ${fixed_value!r}")
            click.echo(f"total: ${total!r}")

    _guarded(body)


if __name__ == "__main__":
    main()
