"""Negative-control benchmarking for causal discovery evaluation."""

from .graphs import (
    Cpdag,
    Dag,
    ExtensionCapExceeded,
    GraphError,
    VStructure,
    d_separated,
    dag_to_cpdag,
    enumerate_extensions,
    is_acyclic,
    skeleton,
    v_structures,
)
from .hypergeom import (
    ConfusionCounts,
    DegenerateParamsError,
    HyperParams,
    MetricValue,
    expected_metric,
    expected_tp,
    metric_from_counts,
    metric_quantile,
    pmf,
    quantile,
    skeleton_fit_log10_p,
    skeleton_fit_test,
)
from .io import GraphFile, ParseError, parse_graph, write_graph
from .metrics import (
    MetricReport,
    SidBounds,
    adjacency_confusion,
    full_report,
    orientation_confusion,
    shd,
    sid,
    vstructure_recovery,
)
from .pc import PcConfig, pc
from .pipeline import PipelineConfig, StudyResult, paired_p, run_study, single_truth_nc
from .random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag
from .sem import SemConfig, SemModel, draw_sem, simulate

__version__ = "0.1.0"
