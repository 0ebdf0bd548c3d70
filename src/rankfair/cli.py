"""Command-line entry point.

Commands wire file-based inputs through the library and write report files;
they perform no computation of their own, so CLI results always match direct
library calls. Every command is deterministic given its inputs, flags, and
seed. Report files are written to temporary files and moved into place
only once all of them are written, so a failing command leaves the previous
reports as they were.
"""

from __future__ import annotations

import errno
import json
import math
import os
from contextlib import contextmanager, suppress
from functools import cache, wraps
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Iterator, Mapping, get_type_hints

import click

from .core import GroupScheme, MissingPolicy, Qrels, RunSet
from .errors import ConfigError, InvalidPatience, OutputError, RankfairError
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
    reports_to_csv,
    reports_to_json,
    score_runset,
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
    agreement,
    correlation_to_csv,
    correlation_to_json,
)

@contextmanager
def _config_errors(name: str) -> Iterator[None]:
    """Re-raise a ``ValueError`` or ``InvalidPatience`` from building a
    config object as a ``ConfigError`` that names the flag or config key it
    came from."""
    try:
        yield
    except (ValueError, InvalidPatience) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _integer(value, name: str) -> int:
    """An integer; an integral number or an integer string also counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with suppress(ValueError):
            return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """A finite number; a number string also counts."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):
            number = float(value)
            if math.isfinite(number):
                return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _boolean(value, name: str) -> bool:
    if value in (0, 1):  # true and false are 1 and 0
        return bool(value)
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def _string(value, name: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name} must be a string, got {value!r}")


def _strings(value, name: str) -> tuple[str, ...]:
    """A list of strings; a single string is a list of one."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigError(f"{name} must be a string or a list of strings, got {value!r}")


def _numbers(value, name: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_number(v, f"each entry of {name}") for v in value)
    raise ConfigError(f"{name} must be a list of numbers, got {value!r}")


def _scheme_from_obj(obj, name: str) -> GroupScheme:
    if not isinstance(obj, Mapping) or not {"name", "groups"} <= obj.keys():
        raise ConfigError(f"{name}: scheme entries need 'name' and 'groups'")
    extra = sorted(obj.keys() - {"name", "groups", "unknown"})
    if extra:
        raise ConfigError(f"{name}: unknown scheme keys {extra}")
    scheme = _string(obj["name"], f"{name}, scheme name")
    groups = obj["groups"]
    if not isinstance(groups, list) or not all(isinstance(g, str) for g in groups):
        raise ConfigError(f"{name}, scheme {scheme!r}: groups must be a list of strings, got {groups!r}")
    unknown = obj.get("unknown")  # a label, or its index
    if isinstance(unknown, str):
        if unknown not in groups:
            raise ConfigError(f"{name}: unknown label {unknown!r} not in scheme {scheme!r}")
        unknown = groups.index(unknown)
    elif unknown is not None:
        unknown = _integer(unknown, f"{name}, scheme {scheme!r} unknown")
    with _config_errors(f"{name}, scheme {scheme!r}"):
        return GroupScheme(scheme, groups, unknown)


def _schemes(value, name: str) -> tuple[GroupScheme, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_scheme_from_obj(obj, name) for obj in value)
    raise ConfigError(f"{name} must be a list of scheme objects, got {value!r}")


def _setting(default, **checks):
    """A field whose config value must also pass ``checks``: one of
    ``choices``, or at least ``minimum``."""
    return field(default=default, metadata=checks)


@dataclass(frozen=True)
class SweepConfig:
    """Accuracy levels, trials per level and confusion style of ``sweep``."""

    levels: tuple[float, ...] = (0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 1.0)
    trials: int = _setting(5, minimum=1)
    workers: int = _setting(1, minimum=1)
    style: str = _setting("uniform", choices=("uniform", "biased"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment settings; any flag can override a field."""

    schemes: tuple[GroupScheme, ...] = ()
    runs: tuple[str, ...] = ()
    runs_b: tuple[str, ...] = ()
    qrels: str | None = None
    annotations: str | None = None
    annotations_b: str | None = None
    annotation_format: str = _setting("tsv", choices=("tsv", "jsonl"))
    eval_schemes: tuple[str, ...] = ()
    divergence: str = _setting("js", choices=("kl", "js"))
    attention: AttentionModel = DEFAULT_ATTENTION
    epsilon: float = 1e-10
    target: str = "qrels"  # "qrels" | "uniform" | path to a target file
    target_mode: str = _setting("binary", choices=("binary", "graded"))
    fallback: str = _setting("uniform", choices=("uniform", "all-unknown", "reject"))
    complement: bool = False
    exclude_unknown: bool = False
    exclude_missing: bool = False
    include_overall: bool = True
    seed: int = 0
    out: str = "reports"
    testbed: TestbedConfig | None = None
    sweep: SweepConfig = SweepConfig()


#: config section -> the dataclass it builds
_SECTIONS = {"attention": AttentionModel, "sweep": SweepConfig, "testbed": TestbedConfig}
#: field -> config key, for the fields whose key is not their name
_RENAMED = {"n_queries": "queries", "n_groups": "groups", "n_systems": "systems"}

#: the commands that score run files
_EVAL = "evaluate compare sweep"
#: flag -> (the config key it sets, its help text, the commands that take
#: it), in the order ``--help`` lists them; its type and choices are those of
#: the field its key sets
_FLAGS = {
    "--seed": ("seed", "Override the seed.", f"{_EVAL} sample gen-testbed"),
    "--out": ("out", "Output directory.", f"{_EVAL} sample gen-testbed"),
    "--complement": ("complement", "Report 1 - JS/ln2 (higher is fairer).", _EVAL),
    "--fallback": ("fallback", None, _EVAL),
    "--target-mode": ("target_mode", None, _EVAL),
    "--target": ("target", "qrels, uniform, or a target file path.", _EVAL),
    "--cutoff": ("attention.cutoff", "Attention cutoff rank.", _EVAL),
    "--patience": ("attention.patience", "Geometric attention patience.", _EVAL),
    "--divergence": ("divergence", None, _EVAL),
    "--scheme": ("eval_schemes", "Evaluate only these declared schemes (repeatable).",
                 f"{_EVAL} sample"),
    "--annotations": ("annotations", "Annotation table.", f"{_EVAL} sample"),
    "--qrels": ("qrels", "Qrels file.", _EVAL),
    "--runs": ("runs", "Run file (repeatable).", _EVAL),
    "--annotations-b": ("annotations_b", "Second annotation table.", "compare"),
    "--exclude-missing": ("exclude_missing",
                          "Drop queries any system failed to return from query-level rows.",
                          "compare"),
    "--levels": ("sweep.levels", "Comma-separated accuracy levels.", "sweep"),
    "--trials": ("sweep.trials", "Trials per accuracy level.", "sweep"),
    "--workers": ("sweep.workers",
                  "Accepted for compatibility (at least 1); cells run in this process.",
                  "sweep"),
    "--style": ("sweep.style", "Confusion matrix error structure.", "sweep"),
    "--queries": ("testbed.queries", None, "gen-testbed"),
    "--docs": ("testbed.docs_per_query", "Documents per query.", "gen-testbed"),
    "--groups": ("testbed.groups", None, "gen-testbed"),
    "--systems": ("testbed.systems", None, "gen-testbed"),
    "--spread": ("testbed.spread", None, "gen-testbed"),
    "--grade-probs": ("testbed.grade_probs", "Comma-separated grade probabilities.", "gen-testbed"),
}
#: flag -> the config key it sets
_FLAG_KEYS = {flag: key for flag, (key, _, _) in _FLAGS.items()}


def _optional(convert):
    return lambda value, name: None if value is None else convert(value, name)


#: field type -> the converter of a config value to that type
_CONVERTERS = {
    int: _integer, float: _number, bool: _boolean, str: _string,
    int | None: _optional(_integer), str | None: _optional(_string),
    tuple[str, ...]: _strings, tuple[float, ...]: _numbers, tuple[GroupScheme, ...]: _schemes,
}


@cache
def _schema(section: str) -> dict[str, tuple[str, object, Mapping]]:
    """Config key -> (field name, type, checks) of each field of one config
    section (the top level when ``section`` is empty)."""
    cls = _SECTIONS.get(section, ExperimentConfig)
    types = get_type_hints(cls)
    return {_RENAMED.get(f.name, f.name): (f.name, types[f.name], f.metadata) for f in fields(cls)}


def _convert(raw, section: str, set_by: Mapping[str, str]) -> dict:
    """Keyword arguments from one config section (the top level when
    ``section`` is empty), each converted by the type of the field it sets.
    An error names the flag that set the key (``set_by``), if one did."""
    schema = _schema(section)
    prefix = f"{section}." if section else ""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config key '{section}' must be an object, got {raw!r}")
    unknown = [prefix + key for key in raw if key not in schema]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        name = set_by.get(prefix + key, f"config key '{prefix}{key}'")
        field_name, kind, checks = schema[key]
        value = kwargs[field_name] = _CONVERTERS[kind](value, name)
        if "choices" in checks and value not in checks["choices"]:
            raise ConfigError(f"{name} must be one of {', '.join(checks['choices'])}; got {value!r}")
        if "minimum" in checks and value < checks["minimum"]:
            raise ConfigError(f"{name} must be at least {checks['minimum']}, got {value}")
    return kwargs


def load_config(
    path: str | None = None,
    flags: Mapping[str, object] | None = None,
    flag_keys: Mapping[str, str] = _FLAG_KEYS,
) -> ExperimentConfig:
    """Load a JSON experiment config (a missing path yields the defaults)
    with flag values set over the config keys ``flag_keys`` maps them to.

    A flag whose value is None, False or empty was not given. A testbed
    section without a seed takes the config file's top-level seed.
    """
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    file_seed = {"seed": raw["seed"]} if "seed" in raw else {}
    set_by: dict[str, str] = {}  # config key -> the flag that set it
    for flag, value in (flags or {}).items():
        if value is None or value is False or value in ((), ""):
            continue
        key = flag_keys[flag]
        set_by[key] = flag
        section, _, sub = key.rpartition(".")
        part = raw.setdefault(section, {}) if section else raw
        if isinstance(part, dict):
            part[sub] = value
    if isinstance(raw.get("testbed"), dict):
        raw["testbed"] = {**file_seed, **raw["testbed"]}
    parts = {section: raw.pop(section) for section in _SECTIONS if section in raw}
    kwargs = _convert(raw, "", set_by)
    for section, part in parts.items():
        values = _convert(part, section, set_by)
        setters = [flag for key, flag in set_by.items() if key.startswith(f"{section}.")]
        # a section sets fields over the default of the field it builds
        default = getattr(ExperimentConfig, section) or _SECTIONS[section]()
        with _config_errors(" or ".join(setters) or f"config key '{section}'"):
            kwargs[section] = replace(default, **values)
    cfg = ExperimentConfig(**kwargs)
    for key, names in (("schemes", [s.name for s in cfg.schemes]), ("eval_schemes", cfg.eval_schemes)):
        if repeated := sorted({n for n in names if names.count(n) > 1}):
            raise ConfigError(f"{set_by.get(key, f'config key {key!r}')} repeats schemes {repeated}")
    undeclared = set(cfg.eval_schemes) - {s.name for s in cfg.schemes}
    if cfg.schemes and undeclared:
        name = set_by.get("eval_schemes", "config key 'eval_schemes'")
        raise ConfigError(f"{name} names undeclared schemes {sorted(undeclared)}")
    return cfg


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


def _load_runset(paths: tuple[str, ...]) -> RunSet:
    parts = []
    for path in paths:
        with _input(path, "runs") as fh:
            part = parse_run(fh)
        if not len(part):
            raise ConfigError(f"runs file {path} holds no rankings")
        parts.append(part)
    if len(parts) == 1:
        return parts[0]
    try:
        return RunSet.concat(parts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_inputs(cfg: ExperimentConfig, pair: bool = False) -> None:
    """Open and close each input file of a scoring command in the order the
    command parses them, so that a missing, unreadable or unconfigured one
    fails, with the error its parse would raise, before any parse. ``pair``
    adds ``compare``'s second runs and annotation files."""
    runs = (cfg.runs or (None,)) + (cfg.runs_b if pair else ())
    annotations = (cfg.annotations, cfg.annotations_b) if pair else (cfg.annotations,)
    files = [(path, "runs") for path in runs] + [(path, "annotations") for path in annotations]
    if cfg.target == "qrels":
        files.append((cfg.qrels, "qrels"))
    elif cfg.target != "uniform":
        files.append((cfg.target, "target"))
    for path, role in files:
        with _input(path, role):
            pass


def _check_schemes(cfg: ExperimentConfig) -> None:
    if not cfg.schemes:
        raise ConfigError("no schemes declared; add a 'schemes' list to the config")


def _load_table(cfg: ExperimentConfig, path: str | None, provenance: str):
    _check_schemes(cfg)
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
    return {
        name: {
            qid: ExposureVector(table.scheme(name), tuple(row), normalized=True)
            for qid, row in zip(*table.columns(name))
        }
        for name in table.scheme_names
    }


def _metric_config(cfg: ExperimentConfig) -> MetricConfig:
    if cfg.target == "qrels":
        target, explicit = f"qrels-{cfg.target_mode}", None
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
        fallback=MissingPolicy(cfg.fallback),
        include_overall=cfg.include_overall,
        complement=cfg.complement,
        exclude_unknown=cfg.exclude_unknown,
    )


def _eval_scheme_names(cfg: ExperimentConfig) -> list[str]:
    if cfg.eval_schemes:
        return list(cfg.eval_schemes)
    return [s.name for s in cfg.schemes]


@contextmanager
def _output_errors(out_dir: str) -> Iterator[None]:
    """Re-raise an ``OSError`` as an ``OutputError`` that names ``--out``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write --out {out_dir}: {exc.strerror or exc}") from None


def _check_out(out_dir: str) -> None:
    """Fail before any work unless ``out_dir`` is a directory, or a path
    whose nearest existing parent is a writable directory."""
    path = Path(out_dir).absolute()
    with _output_errors(out_dir):
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            code = errno.EEXIST if nearest == path else errno.ENOTDIR
        elif not os.access(nearest, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            return
        raise OSError(code, os.strerror(code))


def _write_outputs(out_dir: str, files: Mapping[str, str]) -> None:
    """Write every file to a temporary file in ``out_dir``, then move each
    into place, so that a failure leaves the previous outputs as they were
    and no temporary file behind."""
    out = Path(out_dir)
    with _output_errors(out_dir):
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


def _guarded(command):
    """Report a ``RankfairError`` from ``command`` as one error line."""

    @wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except RankfairError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc

    return run


@click.group()
def main():
    """Group-fairness evaluation of ranked retrieval runs."""


def _comma_list(ctx, param, value):
    """A comma-separated flag value as the list its config key holds."""
    return None if value is None else value.split(",")


#: field type -> how the flag that sets it reads its value
_FLAG_FORMS = {
    bool: {"is_flag": True}, int: {"type": int}, int | None: {"type": int}, float: {"type": float},
    tuple[str, ...]: {"multiple": True}, tuple[float, ...]: {"callback": _comma_list},
}


def _config_command(command):
    """``command`` as a command of ``main`` that takes ``--config``, then the
    flags that ``_FLAGS`` gives it, then its own options; a ``RankfairError``
    is one error line."""
    name = command.__name__.replace("_", "-")
    command = _guarded(command)
    # click lists the option added last first
    for flag, (key, text, commands) in reversed(_FLAGS.items()):
        if name in commands.split():
            section, _, sub = key.rpartition(".")
            _, kind, checks = _schema(section)[sub]
            form = _FLAG_FORMS.get(kind, {})
            if "choices" in checks:
                form = {"type": click.Choice(checks["choices"])}
            command = click.option(flag, help=text, **form)(command)
    config = click.option("--config", "config_path", help="Path to a JSON experiment config.")
    return main.command(name)(config(command))


def _effective_config(flag_keys: Mapping[str, str] = _FLAG_KEYS) -> ExperimentConfig:
    """The running command's config file with its flags set over it, once
    its ``--out`` is known to be writable."""
    ctx = click.get_current_context()
    flags = {p.opts[0]: ctx.params[p.name] for p in ctx.command.params if p.opts[0] in flag_keys}
    cfg = load_config(ctx.params["config_path"], flags, flag_keys)
    _check_out(cfg.out)
    return cfg


@_config_command
def evaluate(**_):
    """Score every system's rankings against the target exposure."""
    cfg = _effective_config()
    _check_schemes(cfg)
    _check_inputs(cfg)
    runset = _load_runset(cfg.runs)
    table = _load_table(cfg, cfg.annotations, "human")
    qrels = _load_qrels_if_needed(cfg)
    scores = score_runset(runset, qrels, table, _eval_scheme_names(cfg), _metric_config(cfg))
    _write_outputs(
        cfg.out,
        {
            "metrics.csv": reports_to_csv(scores),
            "metrics_system.csv": aggregates_to_csv(scores),
            "metrics.json": reports_to_json(scores),
        },
    )
    click.echo(f"evaluated {len(scores.systems)} systems -> {cfg.out}")


@_config_command
def compare(**_):
    """Correlate metrics computed under two annotation sources."""
    cfg = _effective_config()
    _check_schemes(cfg)
    _check_inputs(cfg, pair=True)
    runset = _load_runset(cfg.runs)
    runset_b = _load_runset(cfg.runs_b) if cfg.runs_b else runset
    table_a = _load_table(cfg, cfg.annotations, "human")
    table_b = _load_table(cfg, cfg.annotations_b, "model")
    qrels = _load_qrels_if_needed(cfg)
    mconfig = _metric_config(cfg)
    names = _eval_scheme_names(cfg)
    scores_a = score_runset(runset, qrels, table_a, names, mconfig)
    scores_b = score_runset(runset_b, qrels, table_b, names, mconfig)
    report = agreement(scores_a, scores_b, exclude_missing=cfg.exclude_missing)
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
    click.echo(f"compared {len(scores_a.systems)} systems -> {cfg.out}")


@_config_command
def sweep(**_):
    """Sweep annotation accuracy and correlate degraded vs. true metrics.

    Uses run/qrels/annotation files when configured, otherwise generates the
    configured (or default) synthetic testbed.
    """
    cfg = _effective_config()
    scheme_name = None
    if bool(cfg.runs) != bool(cfg.annotations):
        given, missing = ("runs", "annotations") if cfg.runs else ("annotations", "runs")
        raise ConfigError(f"sweep got {given} but no {missing} file; pass --{missing} (config key "
                          f"'{missing}'), or neither to sweep the synthetic testbed")
    if cfg.runs:
        _check_schemes(cfg)
        names = _eval_scheme_names(cfg)
        if len(names) != 1:
            raise ConfigError("sweep needs exactly one scheme; pass --scheme")
        scheme_name = names[0]
        _check_inputs(cfg)
        runset = _load_runset(cfg.runs)
        table = _load_table(cfg, cfg.annotations, "human")
        qrels = _load_qrels_if_needed(cfg)
        if qrels is None:
            qrels = Qrels({})
        testbed = Testbed(table, qrels, runset)
    else:
        testbed = generate_testbed(cfg.testbed or TestbedConfig(seed=cfg.seed))
    result = accuracy_sweep(
        testbed,
        cfg.sweep.levels,
        cfg.sweep.trials,
        metric_config=_metric_config(cfg),
        seed=cfg.seed,
        workers=cfg.sweep.workers,
        style=cfg.sweep.style,
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
        f"swept {len(result.levels)} levels x {cfg.sweep.trials} trials -> {cfg.out}"
    )


@_config_command
@click.option("--train", "train_n", type=int, default=500, show_default=True,
              help="Training documents per group.")
@click.option("--test", "test_n", type=int, default=100, show_default=True,
              help="Testing documents per group.")
def sample(train_n, test_n, **_):
    """Draw disjoint train/test document samples, equally sized per group."""
    cfg = _effective_config()
    names = _eval_scheme_names(cfg)
    if not names:
        raise ConfigError("sample takes exactly one scheme and none was given; pass --scheme")
    if len(names) > 1:
        raise ConfigError(f"sample takes exactly one scheme, got {len(names)}: "
                          f"{', '.join(names)}; pass --scheme once")
    with _config_errors("--train or --test"):
        plan = SamplePlan(names[0], train_n, test_n, seed=cfg.seed)
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


@_config_command
def gen_testbed(**_):
    """Generate a synthetic testbed and write its annotation/qrels/run files."""
    # here --seed seeds the testbed, whatever its config section says
    cfg = _effective_config({**_FLAG_KEYS, "--seed": "testbed.seed"})
    testbed_config = cfg.testbed or TestbedConfig(seed=cfg.seed)
    testbed = generate_testbed(testbed_config)
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
        f"generated testbed ({testbed_config.n_queries} queries, "
        f"{testbed_config.n_systems} systems) -> {cfg.out}"
    )


@main.command()
@click.option("--docs", "n_docs", type=float, required=True, help="Documents to annotate.")
@click.option("--model", default="gpt-3.5-turbo", show_default=True,
              help="Pricing preset from the bundled rate table.")
@click.option("--tokens", type=float, default=None, help="Tokens per document.")
@click.option("--rate", type=float, default=None, help="Price per 1M tokens (overrides preset).")
@click.option("--fixed", type=float, default=None, help="Fixed cost, e.g. fine-tuning.")
@click.option("--json", "as_json", is_flag=True, default=False, help="Machine-readable output.")
@_guarded
def cost(n_docs, model, tokens, rate, fixed, as_json):
    """Estimate the price of annotating a corpus with a priced model."""
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


if __name__ == "__main__":
    main()
