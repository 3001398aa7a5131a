"""Energy series assembly, convergence certificate, and tail bounds.

The per-unit-time free energy of the long-range Ising model is the
convergent series

    e(alpha) = lim_T -log Z(alpha, T) / T = -sum_{p >= 1} alpha^p c_p / p!

with c_p the pinned connected coefficients.  The spin-boson coupling enters
through alpha = (lambda / 4 pi)^2; identifying e with the ground-state
energy is conditional on Bloch's formula (nonzero ground-state overlap),
which this module does not certify.

The convergence certificate: with gamma in (0, 1),

    delta(gamma) = e^gamma / (4 (1-gamma)^2) * max(1, 2 (1-gamma))
    K(gamma)     = 16 * max(||h||_inf, ||h||_1) * delta(gamma) / gamma

the absolutely convergent majorant is sum_p (K |alpha|)^p / p, so the
truncation tail past p_max is

    sum_{p > p_max} x^p / p = -log(1 - x) - sum_{p <= p_max} x^p / p,
    x = K |alpha| < 1.

At the default gamma = 1/2, K = 32 sqrt(e) max(||h||_inf, ||h||_1), whose
reciprocal is the quoted lower bound on the radius of convergence

    R_min = [32 sqrt(e) max(||h||_inf, ||h||_1)]^{-1}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .combinatorics import check_order
from .errors import CertificateError
from .integrator import CoefficientEstimate, coefficient
from .kernel import Kernel

__all__ = [
    "SeriesResult",
    "alpha_from_lambda",
    "lambda_from_alpha",
    "radius_bound",
    "delta_gamma",
    "coupling_bound",
    "tail_bound",
    "energy",
    "DEFAULT_GAMMA",
]

DEFAULT_GAMMA = 0.5


def alpha_from_lambda(lam: float) -> float:
    return (lam / (4.0 * math.pi)) ** 2


def lambda_from_alpha(alpha: float) -> float:
    if alpha < 0:
        raise ValueError("alpha must be >= 0 to invert to a real coupling")
    return 4.0 * math.pi * math.sqrt(alpha)


def radius_bound(kernel: Kernel) -> float:
    """Lower bound on the convergence radius in alpha; inf for a zero kernel."""
    m = max(kernel.norm_inf, kernel.norm_l1)
    if m == 0.0:
        return math.inf
    return 1.0 / (32.0 * math.sqrt(math.e) * m)


def delta_gamma(gamma: float) -> float:
    """The per-vertex constant of the tree bound."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return math.exp(gamma) / (4.0 * (1.0 - gamma) ** 2) * max(1.0, 2.0 * (1.0 - gamma))


def coupling_bound(kernel: Kernel, gamma: float = DEFAULT_GAMMA) -> float:
    """The geometric-ratio constant K(gamma); K(1/2) * radius_bound == 1."""
    return 16.0 * max(kernel.norm_inf, kernel.norm_l1) * delta_gamma(gamma) / gamma


def tail_bound(
    kernel: Kernel, alpha: float, p_max: int, gamma: float = DEFAULT_GAMMA
) -> float:
    """Certified remainder sum_{p > p_max} (K |alpha|)^p / p, in closed form."""
    x = coupling_bound(kernel, gamma) * abs(alpha)
    if x >= 1.0:
        raise CertificateError(
            f"K*|alpha| = {x:.6g} >= 1: outside the certificate (the series may "
            "still converge; only the bound fails)"
        )
    partial = math.fsum(x**p / p for p in range(1, p_max + 1))
    return max(0.0, -math.log1p(-x) - partial)


@dataclass(frozen=True)
class SeriesResult:
    alpha: complex
    lam: Optional[float]
    coefficients: tuple[CoefficientEstimate, ...]
    energy: complex
    statistical_error: float
    quadrature_tolerance: float
    tail_bound: Optional[float]  # None when |alpha| is outside the certificate
    radius_bound: float
    K: float
    gamma: float
    delta: float
    certified: bool
    warning: Optional[str] = None


def energy(
    kernel: Kernel,
    alpha: Optional[complex] = None,
    lam: Optional[float] = None,
    p_max: int = 3,
    method: str = "mc",
    budget: Optional[int] = None,
    seed: int = 0,
    gamma: float = DEFAULT_GAMMA,
    workers: int = 1,
) -> SeriesResult:
    """Truncated energy series -sum_{p<=p_max} alpha^p c_p / p! with certificate.

    Exactly one of alpha and lam must be given (lam converts through
    alpha = (lam/4pi)^2).  The pinned coefficients are computed with the
    requested method, order p on its own streams, from seed + p - 1.
    p_max is checked once here, up to HARD_P_MAX, and caps every order.
    """
    check_order(p_max, p_max)
    if (alpha is None) == (lam is None):
        raise ValueError("give exactly one of alpha or lam")
    if alpha is None:
        alpha = alpha_from_lambda(lam)
    else:
        lam = lambda_from_alpha(alpha.real) if (
            isinstance(alpha, (int, float)) and alpha >= 0
        ) else None
    if not cmath.isfinite(alpha):
        raise ValueError("the coupling must be finite")
    coefficients = tuple(
        coefficient(
            kernel, p, mode="pinned", method=method, budget=budget,
            seed=seed + p - 1, p_max=p_max, workers=workers,
        )
        for p in range(1, p_max + 1)
    )

    value = -sum(alpha**p * coefficients[p - 1].value / math.factorial(p)
                 for p in range(1, p_max + 1))
    stat = math.sqrt(
        math.fsum(
            (abs(alpha) ** p * coefficients[p - 1].statistical_error / math.factorial(p)) ** 2
            for p in range(1, p_max + 1)
        )
    )
    qtol = math.fsum(
        abs(alpha) ** p * coefficients[p - 1].quadrature_tolerance / math.factorial(p)
        for p in range(1, p_max + 1)
    )
    kappa = coupling_bound(kernel, gamma)
    certified = kappa * abs(alpha) < 1.0
    tail = tail_bound(kernel, abs(alpha), p_max, gamma) if certified else None
    warning = None
    if not certified:
        warning = (
            "K*|alpha| >= 1: no remainder certificate at this coupling; "
            "the truncated series is reported without a tail bound"
        )
    return SeriesResult(
        alpha=alpha,
        lam=lam,
        coefficients=coefficients,
        energy=value,
        statistical_error=stat,
        quadrature_tolerance=qtol,
        tail_bound=tail,
        radius_bound=radius_bound(kernel),
        K=kappa,
        gamma=gamma,
        delta=delta_gamma(gamma),
        certified=certified,
        warning=warning,
    )
