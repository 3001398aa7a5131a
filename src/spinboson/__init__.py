"""Cluster-expansion series for the ground-state energy of the massless
spin-boson model, reduced to a long-range one-dimensional Ising model and
evaluated with explicit convergence certificates and Monte Carlo
cross-checks at every layer."""

from .combinatorics import (
    base_matching,
    enumerate_forest_selections,
    enumerate_matchings,
    open_cycles,
    partition_join,
    verify_bkar_identity,
)
from .integrator import (
    CoefficientEstimate,
    brute_force_coefficient,
    cluster_terms,
    coefficient,
    integrate_term,
    term_integrand,
)
from .jump_process import (
    MCEstimate,
    SpinPath,
    estimate_moment_mc,
    estimate_Z,
    interaction_action,
    moment_closed_form,
    sample_path,
)
from .kernel import Kernel, KernelSpec, build_kernel
from .series import (
    SeriesResult,
    alpha_from_lambda,
    coupling_bound,
    delta_gamma,
    energy,
    lambda_from_alpha,
    radius_bound,
    tail_bound,
)

__all__ = [
    "Kernel", "KernelSpec", "build_kernel",
    "SpinPath", "MCEstimate", "sample_path", "interaction_action",
    "estimate_Z", "moment_closed_form", "estimate_moment_mc",
    "base_matching", "enumerate_matchings", "partition_join",
    "enumerate_forest_selections", "open_cycles",
    "verify_bkar_identity",
    "CoefficientEstimate", "cluster_terms", "term_integrand",
    "integrate_term", "coefficient", "brute_force_coefficient",
    "SeriesResult", "alpha_from_lambda", "lambda_from_alpha",
    "radius_bound", "delta_gamma", "coupling_bound", "tail_bound", "energy",
]

__version__ = "0.1.0"
