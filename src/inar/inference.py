"""Large-sample inference: sandwich covariance, confidence intervals, and
normality diagnostics (Jarque-Bera, Shapiro-Wilk, Q-Q data).

The estimator's score is a martingale difference sequence
(2/T) sum z_n (X_n - Phi(n)), which motivates the heteroskedasticity-
consistent plug-in K_hat below; J_hat is twice the design matrix, and the
asymptotic covariance is the sandwich J^-1 K J^-1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import _kernels as _k
from .errors import (
    DomainError,
    InvalidLevel,
    SampleSizeOutOfRange,
    SingularDesign,
    ZeroVariance,
)
from .estimate import RCOND_THRESHOLD, ThetaVector, _check_lag, _counts_of

__all__ = [
    "SandwichCovariance",
    "NormalityReport",
    "sandwich_covariance",
    "confidence_intervals",
    "normality_report",
    "jarque_bera",
    "shapiro_wilk",
    "qq_data",
    "histogram_data",
    "normal_quantile",
    "normal_cdf",
]

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class SandwichCovariance:
    """J_hat = 2Y (curvature), K_hat (score variance), and the sandwich
    Sigma_hat = J_hat^-1 K_hat J_hat^-1."""

    J_hat: np.ndarray = field(repr=False)
    K_hat: np.ndarray = field(repr=False)
    Sigma_hat: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("J_hat", "K_hat", "Sigma_hat"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class NormalityReport:
    """Jarque-Bera and Shapiro-Wilk results for one sample."""

    jb_stat: float
    jb_p: float
    sw_stat: float
    sw_p: float
    sample_size: int


def sandwich_covariance(path, theta_hat: ThetaVector, p: int | None = None) -> SandwichCovariance:
    """Plug-in sandwich covariance at theta_hat.

    J_hat = 2Y; K_hat = (4/T) sum z_n z_n' (X_n - Phi(n))^2 with regressors
    z_n = (1, X_{n-1}, ..., X_{n-p}) zero-padded at the start; Sigma_hat is
    computed via two refined solves with the one eigendecomposition of
    J_hat that also screens its condition, never forming an inverse."""
    if p is None:
        p = theta_hat.p
    x = _counts_of(path)
    p = _check_lag(x.shape[0], p)
    theta = np.zeros(p + 1, dtype=np.float64)
    theta[0] = theta_hat.mu
    use = min(p, theta_hat.p)
    theta[1 : use + 1] = theta_hat.betas[:use]
    with np.errstate(over="ignore"):
        j_hat, k_hat = _k.sandwich_build(x, theta)
    if not (np.isfinite(j_hat).all() and np.isfinite(k_hat).all()):
        raise ValueError("J_hat or K_hat has non-finite entries; check the path and theta_hat")

    w, v, rc = _k.eigh_rcond(j_hat)
    if rc < RCOND_THRESHOLD:
        raise SingularDesign(
            f"J_hat reciprocal condition {rc:.3e} below {RCOND_THRESHOLD:g}"
        )
    half = _k.eigh_solve(j_hat, w, v, k_hat)
    sigma = _k.eigh_solve(j_hat, w, v, half.T)
    sigma = (sigma + sigma.T) * 0.5
    return SandwichCovariance(J_hat=j_hat, K_hat=k_hat, Sigma_hat=sigma)


def confidence_intervals(
    theta_hat: ThetaVector,
    cov: SandwichCovariance,
    T: int,
    level: float = 0.95,
) -> list[tuple[float, float]]:
    """Per-coordinate intervals theta_j +/- z_{(1+level)/2} sqrt(Sigma_jj/T)."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    vec = theta_hat.to_array()
    diag = np.diag(cov.Sigma_hat)
    if diag.shape[0] != vec.shape[0]:
        raise ValueError(
            f"covariance dimension {diag.shape[0]} does not match theta {vec.shape[0]}"
        )
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(np.maximum(diag, 0.0) / float(T))
    return [(float(v - h), float(v + h)) for v, h in zip(vec, half)]


def normality_report(sample) -> NormalityReport:
    """Jarque-Bera and Shapiro-Wilk on one sample."""
    return _normality_report(np.asarray(sample, dtype=np.float64).ravel())


def _normality_report(x, sw_means=None) -> NormalityReport:
    # normality_report of a 1-d float64 sample; sw_means as in _shapiro_wilk.
    jb_stat, jb_p = jarque_bera(x)
    sw_stat, sw_p = _shapiro_wilk(x, sw_means)
    return NormalityReport(
        jb_stat=jb_stat, jb_p=jb_p, sw_stat=sw_stat, sw_p=sw_p, sample_size=x.shape[0]
    )


def jarque_bera(sample) -> tuple[float, float]:
    """Jarque-Bera statistic n/6 (S^2 + (K-3)^2/4) with moment-based
    skewness/kurtosis, and its exact chi-square(2) survival p = exp(-stat/2).
    Requires n >= 8; warns below 20 where the asymptotic null is poor."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    n = x.shape[0]
    if n < 8:
        raise SampleSizeOutOfRange(f"Jarque-Bera needs n >= 8, got {n}")
    if n < 20:
        warnings.warn(
            f"Jarque-Bera on n={n} < 20: asymptotic p-value is unreliable",
            stacklevel=2,
        )
    xc = x - x.mean()
    m2 = float(xc @ xc) / n
    if m2 == 0.0:
        raise ZeroVariance("all sample values are equal")
    m3 = float((xc ** 3).sum()) / n
    m4 = float((xc ** 4).sum()) / n
    skew = m3 / m2 ** 1.5
    kurt = m4 / (m2 * m2)
    stat = n / 6.0 * (skew * skew + 0.25 * (kurt - 3.0) ** 2)
    return stat, math.exp(-0.5 * stat)


# Royston (1995) AS R94 polynomial corrections for the Shapiro-Wilk
# weights and the normalizing transformation of W.
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)


def _poly(coefs, x: float) -> float:
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * x + c
    return acc


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value per Royston's AS R94 approximation,
    valid for 3 <= n <= 5000. Ties are handled by a stable sort."""
    return _shapiro_wilk(np.asarray(sample, dtype=np.float64).ravel())


def _sw_means(n: int) -> np.ndarray:
    # Expected normal order statistics of the upper half of a sample of n
    # (Blom's approximation), largest first.
    return np.array(
        [normal_quantile((n - i - 0.375) / (n + 0.25)) for i in range(n // 2)]
    )


def _shapiro_wilk(x, m=None) -> tuple[float, float]:
    # shapiro_wilk of a 1-d float64 sample; m is _sw_means(n), made here
    # when not given.
    n = x.shape[0]
    if n < 3 or n > 5000:
        raise SampleSizeOutOfRange(f"Shapiro-Wilk needs 3 <= n <= 5000, got {n}")
    x = np.sort(x, kind="stable")
    if x[-1] - x[0] == 0.0:
        raise ZeroVariance("all sample values are equal")

    n2 = n // 2
    if m is None:
        m = _sw_means(n)
    summ2 = 2.0 * float(m @ m)
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n2, dtype=np.float64)
    if n == 3:
        a[0] = math.sqrt(0.5)
    else:
        a1 = m[0] / ssumm2 + _poly(_SW_C1, rsn)
        if n > 5:
            a2 = m[1] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt(
                (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2)
            )
            a[0], a[1] = a1, a2
            a[2:] = m[2:] / fac
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 * a1))
            a[0] = a1
            a[1:] = m[1:] / fac

    xbar = x.mean()
    ssd = float((x - xbar) @ (x - xbar))
    if ssd == 0.0:
        raise ZeroVariance("all sample values are equal")
    sax = float(a @ (x[::-1][:n2] - x[:n2]))
    w = min(sax * sax / ssd, 1.0)

    if n == 3:
        pw = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(pw, 0.0), 1.0)
    y = math.log(1.0 - w) if w < 1.0 else -math.inf
    if n <= 11:
        gamma = _poly(_SW_G, float(n))
        if y >= gamma:
            return w, 0.0
        y = -math.log(gamma - y)
        mu = _poly(_SW_C3, float(n))
        sigma = math.exp(_poly(_SW_C4, float(n)))
    else:
        u = math.log(n)
        mu = _poly(_SW_C5, u)
        sigma = math.exp(_poly(_SW_C6, u))
    z = (y - mu) / sigma
    return w, 0.5 * math.erfc(z / math.sqrt(2.0))


def qq_data(sample) -> tuple[np.ndarray, np.ndarray]:
    """Normal Q-Q pairs: theoretical quantiles at plotting positions
    (i - 0.5)/n against the standardized order statistics.

    Standardization uses the sample standard deviation (ddof=1). The n=1
    edge maps to the single pair (0, 0) by convention."""
    return _qq_data(np.asarray(sample, dtype=np.float64).ravel())


def _qq_positions(n: int) -> np.ndarray:
    # Standard normal quantiles at the plotting positions (i - 0.5)/n.
    return np.array([normal_quantile((i - 0.5) / n) for i in range(1, n + 1)])


def _qq_data(x, z=None) -> tuple[np.ndarray, np.ndarray]:
    # qq_data of a 1-d float64 sample; z is _qq_positions(n), made here
    # when not given, and is returned as it is.
    n = x.shape[0]
    if n < 1:
        raise ValueError("sample must be nonempty")
    if z is None:
        z = _qq_positions(n)
    if n == 1:
        return z, np.zeros(1)
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ZeroVariance("all sample values are equal")
    ordered = np.sort(x, kind="stable")
    return z, (ordered - x.mean()) / sd


def histogram_data(sample, bins: int = 30) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max]: (bin_left, bin_right, count)."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    if x.shape[0] < 1:
        raise ValueError("sample must be nonempty")
    counts, edges = np.histogram(x, bins=bins)
    return edges[:-1], edges[1:], counts


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF (the standard library's AS 241)."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {u}")
    return _STANDARD_NORMAL.inv_cdf(u)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))
