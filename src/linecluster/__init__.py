"""Clustering noisy planar points onto two lines.

Pipeline: score every point triple by its total-least-squares residual,
keep near-collinear triples as hyperedges, project to a pair-similarity
matrix, and read the two communities off its top-two eigenvectors. The
package also ships the data-driven threshold rule, line-parameter recovery,
an exact-density oracle classifier, the closed-form probability bounds with
Monte-Carlo validators, and a sweep/CLI layer for experiments.
"""

__version__ = "0.1.0"

from .bounds import (
    DKReport,
    ExpectedSimilarity,
    between_accept_lower,
    between_accept_upper,
    cdf_rayleigh,
    davis_kahan,
    disc_intersect_upper,
    expected_similarity,
    tail_binomial,
    tail_chi2,
    within_miss_upper,
)
from .errors import (
    BadLabelError,
    ClusterTooSmallError,
    EmptySampleError,
    InvalidAngleError,
    LengthMismatchError,
    LineClusterError,
    OutOfValidityError,
    SampleExhaustsNodesError,
    SizeTooSmallError,
    ZeroSigmaError,
)
from .hypergraph import (
    HyperedgeStats,
    SimilarityMatrix,
    active_backend,
    scan,
)
from .metrics import RecoveryReport, align_swap, ham_star, report
from .mle import (
    ErrorReport,
    MixtureDensity,
    density,
    log_density,
    mle_recover,
    perr_exact,
)
from .model import (
    LabeledDataset,
    ModelParams,
    Segment,
    sample_glmm,
    standard_cross,
)
from .recovery import LineEstimate, angle_error, center_error, recover_lines
from .spectral import (
    ClusterResult,
    SpectralEmbedding,
    cluster,
    kmeans2_rows,
    top2_eigen,
)
from .sweep import SweepConfig, SweepRow, run_sweep
from .threshold import (
    AutoClusterResult,
    ThresholdChoice,
    TripleSample,
    autocluster,
    choose_order_stat,
    sample_triples,
    select_threshold,
)
from .tls import ScatterSummary, scatter, sigma_tls_sq

__all__ = [name for name in dir() if not name.startswith("_")]
