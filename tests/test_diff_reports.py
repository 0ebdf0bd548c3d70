import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "diff_reports.py"
_spec = importlib.util.spec_from_file_location("diff_reports", _PATH)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)

CSV = "level,pearson_r,pearson_p,significant\nsystem,{r},{p},True\n"


def reports(tmp_path, name, r=0.5, p=1e-3, rows_p=(1e-3, 0.2)):
    d = tmp_path / name
    d.mkdir()
    (d / "correlation.csv").write_text(CSV.format(r=r, p=p))
    rows = [{"pearson_r": r, "pearson_p": v, "level": "system"} for v in rows_p]
    (d / "correlation.json").write_text(json.dumps({"alpha": 0.05, "rows": rows,
                                                    "pearson_p": list(rows_p)}))
    return d


def run(tmp_path, *flags):
    return diff_reports.main([str(tmp_path / "a"), str(tmp_path / "b"), "--tol", "0", *flags])


def test_a_key_tolerance_admits_only_its_own_cells(tmp_path, capsys):
    reports(tmp_path, "a")
    reports(tmp_path, "b", p=1e-3 + 5e-14, rows_p=(1e-3, 0.2 + 5e-13))
    assert run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "correlation.csv: FAIL" in out and "1:2 (pearson_p)" in out
    assert "correlation.json: FAIL" in out
    assert run(tmp_path, "--key-tol", "pearson_p=1e-12") == 0
    assert capsys.readouterr().out.count(": ok") == 2
    assert run(tmp_path, "--key-tol", "pearson_p=1e-13") == 1  # the JSON leaf moved 5e-13
    out = capsys.readouterr().out
    assert "correlation.csv: ok" in out and "correlation.json: FAIL" in out


def test_other_cells_keep_the_global_tolerance(tmp_path, capsys):
    reports(tmp_path, "a")
    reports(tmp_path, "b", r=0.5 + 1e-15)
    assert run(tmp_path, "--key-tol", "pearson_p=1", "--key-tol", "spearman_p=1") == 1
    out = capsys.readouterr().out
    assert "1:1 (pearson_r): |diff| 9.99e-16 > 0" in out
    assert "/rows/0/pearson_r (pearson_r)" in out


def test_list_items_take_the_key_that_holds_the_list(tmp_path, capsys):
    reports(tmp_path, "a")
    reports(tmp_path, "b", rows_p=(1e-3, 0.2 + 1e-13))
    assert run(tmp_path, "--key-tol", "pearson_p=1e-12") == 0
    (tmp_path / "b" / "correlation.json").write_text(json.dumps({"alpha": 0.05, "rows": [
        {"pearson_r": 0.5, "pearson_p": 1e-3, "level": "system"},
        {"pearson_r": 0.5, "pearson_p": 0.2, "level": "system"}], "pearson_p": [1e-3, 0.3]}))
    assert run(tmp_path, "--key-tol", "pearson_p=1e-12") == 1
    assert "/pearson_p/1 (pearson_p)" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["pearson_p", "=1e-12", "pearson_p=x"])
def test_a_malformed_key_tolerance_is_a_usage_error(tmp_path, bad):
    reports(tmp_path, "a")
    reports(tmp_path, "b")
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "--key-tol", bad)
    assert exc.value.code == 2
