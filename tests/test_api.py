"""The package's public names, and the one rule for their numeric arguments."""

import math
import types

import numpy as np
import pytest

import linecluster as lc
from linecluster import montecarlo


def test_public_names_are_the_pinned_list():
    # Adding or removing a public name is a deliberate change of this list.
    names = sorted(n for n in lc.__all__ if not isinstance(getattr(lc, n), types.ModuleType))
    assert names == [
        "AutoClusterResult",
        "BadLabelError",
        "ClusterResult",
        "ClusterTooSmallError",
        "DKReport",
        "EmptySampleError",
        "ErrorReport",
        "ExpectedSimilarity",
        "HyperedgeStats",
        "InvalidAngleError",
        "LabeledDataset",
        "LengthMismatchError",
        "LineClusterError",
        "LineEstimate",
        "MixtureDensity",
        "ModelParams",
        "OutOfValidityError",
        "RecoveryReport",
        "SampleExhaustsNodesError",
        "ScatterSummary",
        "Segment",
        "SimilarityMatrix",
        "SizeTooSmallError",
        "SpectralEmbedding",
        "SweepConfig",
        "SweepRow",
        "ThresholdChoice",
        "TripleSample",
        "ZeroSigmaError",
        "active_backend",
        "align_swap",
        "angle_error",
        "autocluster",
        "between_accept_lower",
        "between_accept_upper",
        "cdf_rayleigh",
        "center_error",
        "choose_order_stat",
        "cluster",
        "davis_kahan",
        "density",
        "disc_intersect_upper",
        "expected_similarity",
        "ham_star",
        "kmeans2_rows",
        "log_density",
        "mle_recover",
        "perr_exact",
        "recover_lines",
        "report",
        "run_sweep",
        "sample_glmm",
        "sample_triples",
        "scan",
        "scatter",
        "select_threshold",
        "sigma_tls_sq",
        "standard_cross",
        "tail_binomial",
        "tail_chi2",
        "top2_eigen",
        "within_miss_upper",
    ]


_POINTS = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.0], [0.0, 1.0], [0.1, 2.0], [3.0, 0.1]])
_SEG1, _SEG2 = lc.standard_cross(math.pi / 2.0)
_CROSS = {"alpha": 1.0, "half_length": 1.0}
_PERR = {"alpha": 1.0, "ell": 2.0, "sigma": 0.1}
_MC_ERROR = {**_PERR, "n_samples": 100, "seed": 0}

# (callable, keyword arguments of a good call, the numeric argument under test)
_NUMERIC_ARGUMENTS = [
    (lc.scan, {"points": _POINTS, "t": 0.1}, "t"),
    (lc.cluster, {"points": _POINTS, "t": 0.1, "seed": 0}, "t"),
    (lc.standard_cross, _CROSS, "alpha"),
    (lc.standard_cross, _CROSS, "half_length"),
    (lc.Segment, {"center": (0.0, 0.0), "direction": (1.0, 0.0), "half_length": 1.0},
     "half_length"),
    (lc.ModelParams, {"seg1": _SEG1, "seg2": _SEG2, "sigma": 0.1, "n_points": 10, "seed": 0},
     "sigma"),
    (lc.MixtureDensity, {"segment": _SEG1, "sigma": 0.1}, "sigma"),
    (lc.perr_exact, _PERR, "alpha"),
    (lc.perr_exact, _PERR, "ell"),
    (lc.perr_exact, _PERR, "sigma"),
    (montecarlo.mc_mle_error, _MC_ERROR, "alpha"),
    (montecarlo.mc_mle_error, _MC_ERROR, "ell"),
    (montecarlo.mc_mle_error, _MC_ERROR, "sigma"),
    (montecarlo.mc_hyperedge_rates,
     {"t": 0.1, "sigma": 0.1, "alpha": 1.0, "ell": 2.0, "n_triples": 200, "seed": 0}, "alpha"),
]


@pytest.mark.parametrize(
    "func, good, name", _NUMERIC_ARGUMENTS,
    ids=[f"{func.__name__}-{name}" for func, _, name in _NUMERIC_ARGUMENTS],
)
def test_numeric_arguments_refuse_bools_strings_and_none(func, good, name):
    # A numpy scalar is a number, so the good call passes with one.
    func(**{**good, name: np.float64(good[name])})
    # True is not 1.0, "0.1" not 0.1, and None not a bare TypeError.
    for bad in (True, "0.1", None):
        with pytest.raises(lc.LineClusterError):
            func(**{**good, name: bad})
