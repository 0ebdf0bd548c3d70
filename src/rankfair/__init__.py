"""Group-fairness evaluation for ranked retrieval runs.

The package evaluates how fairly rankings expose groups of documents
(attention-weighted rank fairness and expected-exposure metrics) and
measures how group-annotation errors propagate into those metrics through
correlation analysis and controlled annotation-noise simulation.
"""

from .core import (
    GroupMembershipTable,
    GroupScheme,
    MembershipVector,
    MissingPolicy,
    Qrels,
    Ranking,
    RankingSequence,
    RunSet,
    intersect_tables,
    membership_of,
    normalize,
    one_hot,
    product_scheme,
)
from .exposure import (
    DEFAULT_ATTENTION,
    AttentionModel,
    ExposureVector,
    attention_weights,
    cumulative_exposure,
    expected_group_exposure,
    target_from_qrels,
    target_group_exposure,
    target_uniform,
)
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
    MetricReport,
    ScoreTable,
    awrf,
    ee_metrics,
    evaluate_runset,
    js_divergence,
    kl_divergence,
    score_runset,
)
from .simulate import (
    ConfusionMatrix,
    SweepResult,
    Testbed,
    TestbedConfig,
    accuracy_sweep,
    annotation_cost,
    apply_confusion,
    confusion_for_accuracy,
    generate_testbed,
)
from .stats import CorrelationResult, agreement, pearson, spearman

__version__ = "0.1.0"

__all__ = [
    "AttentionModel",
    "ConfusionMatrix",
    "CorrelationResult",
    "DEFAULT_ATTENTION",
    "ExposureVector",
    "GroupMembershipTable",
    "GroupScheme",
    "MembershipVector",
    "MetricConfig",
    "MetricReport",
    "MissingPolicy",
    "Qrels",
    "Ranking",
    "RankingSequence",
    "RunSet",
    "SamplePlan",
    "ScoreTable",
    "SweepResult",
    "Testbed",
    "TestbedConfig",
    "accuracy_sweep",
    "agreement",
    "annotation_cost",
    "apply_confusion",
    "attention_weights",
    "awrf",
    "confusion_for_accuracy",
    "cumulative_exposure",
    "ee_metrics",
    "evaluate_runset",
    "expected_group_exposure",
    "generate_testbed",
    "intersect_tables",
    "js_divergence",
    "kl_divergence",
    "membership_of",
    "normalize",
    "one_hot",
    "parse_annotations",
    "parse_qrels",
    "parse_run",
    "pearson",
    "product_scheme",
    "score_runset",
    "spearman",
    "stratified_sample",
    "target_from_qrels",
    "target_group_exposure",
    "target_uniform",
    "write_annotations",
    "write_qrels",
    "write_run",
]
