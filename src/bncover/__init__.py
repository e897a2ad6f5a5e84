"""Coverability checking for broadcast networks of infinite-state processes."""

from .explore import (
    WitnessExtractionFailed,
    bn_step,
    explore,
    reconfigure,
    replay,
)
from .graphs import (
    ClassViolation,
    Clique,
    DiamDeg,
    Graph,
    LabelledGraph,
    PathBounded,
    Reconfigurable,
    SelfLoopError,
    canonical_form,
    diameter,
    enumerate_diam_deg_graphs,
    enumerate_extensions,
    enumerate_graphs,
    graph_embeds,
    graph_injections,
    in_class,
    max_degree,
    single_vertex,
)
from .modelfile import (
    DimensionMismatch,
    ModelError,
    ModelFile,
    ModelSyntaxError,
    Query,
    UndeclaredIdentifier,
    parse_model,
)
from .order import (
    ResourceExhausted,
    ResourceLimits,
    Verdict,
    backward_coverability,
    basis_subsumes,
    minimize,
)
from .pushdown import (
    BOTTOM,
    PdsConfig,
    PdsRule,
    PushdownSpec,
    pds_coverable,
    pds_leq,
    pds_saturate,
)
from .rbn import (
    QueryRecord,
    SaturationTrace,
    SweepRecord,
    rbn_coverable,
    rbn_witness,
)
from .report import (
    QueryReport,
    Report,
    report_from_json,
    report_to_json,
    run_from_json,
    run_to_json,
)
from .static_cover import (
    WILDCARD,
    GraphSpace,
    diam_deg_coverable,
    static_coverable,
    static_witness_run,
)
from .vass import (
    Label,
    VassConfig,
    VassSpec,
    VassTransition,
    add_receives,
    complete_receives,
    finite_spec,
    strip_receives,
    vass_leq,
    vass_pre_basis,
    vass_successors,
)
from .cli import run_queries

__version__ = "0.1.0"
