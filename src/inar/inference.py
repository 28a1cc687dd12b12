"""Large-sample inference: sandwich covariance, confidence intervals, and
normality diagnostics (Jarque-Bera, Shapiro-Wilk, Q-Q data).

The estimator's score is a martingale difference sequence
(2/T) sum z_n (X_n - Phi(n)), which motivates the heteroskedasticity-
consistent plug-in K_hat below; J_hat is twice the design matrix, and the
asymptotic covariance is the sandwich J^-1 K J^-1. The diagnostics reject
a sample with NaN or inf values (DomainError). They work on the sample
scaled by a power of two into (-1, 1), so no moment of a finite sample
overflows or underflows for its scale alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import _kernels as _k
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidLevel,
    SampleSizeOutOfRange,
    SingularDesign,
    ZeroVariance,
)
from .estimate import RCOND_THRESHOLD, ThetaVector, _check_lag, _counts_of
from .model import _adopt, _as_float, _freeze_copies

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
        _freeze_copies(self, "J_hat", "K_hat", "Sigma_hat")
        m = self.J_hat.shape[0]
        shapes = (self.J_hat.shape, self.K_hat.shape, self.Sigma_hat.shape)
        if m < 1 or shapes != ((m, m),) * 3:
            raise DimensionMismatch(
                f"expected J_hat, K_hat and Sigma_hat (m,m) with one m >= 1, got {shapes}"
            )


@dataclass(frozen=True)
class NormalityReport:
    """Jarque-Bera and Shapiro-Wilk results for one sample. Past n = 5000,
    where Shapiro-Wilk's approximation does not hold, its fields are None."""

    jb_stat: float
    jb_p: float
    sw_stat: float | None
    sw_p: float | None
    sample_size: int


def sandwich_covariance(path, theta_hat: ThetaVector, p: int | None = None) -> SandwichCovariance:
    """Plug-in sandwich covariance at theta_hat.

    J_hat = 2Y with Y as :func:`inar.build_design` builds it; K_hat = (4/T)
    sum z_n z_n' (X_n - Phi(n))^2 with regressors z_n = (1, X_{n-1}, ...,
    X_{n-p}) zero-padded at the start; Sigma_hat is computed via two refined
    solves with one inverse of J_hat (an LU factorisation), whose condition
    is screened as :func:`inar.solve_cls` screens Y's. When theta_hat came
    from :func:`inar.solve_cls` on :func:`inar.build_design`'s system of
    this :class:`inar.CountPath` (known by its float view, not by its
    values) at this p, that system's Y, half the solve's Y^-1 and its
    solved row are reused exactly; otherwise Y is built and J_hat inverted
    here, with the same result bit for bit."""
    if p is None:
        p = theta_hat.p
    x = _counts_of(path)
    p = _check_lag(x.shape[0], p)
    fit = theta_hat._fit  # (counts, Y, Y^-1, theta) of the solve, or None
    # This CountPath's own float view at the fit's p: its Y is this design.
    reuse = fit is not None and fit[0] is x and fit[1].shape[0] == p + 1
    # A non-finite or overflowing path gives inf and NaN, rejected below; a
    # zero or huge J_hat divides by zero or overflows in its screen.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if reuse:
            y, theta = fit[1][None], fit[3]
        else:
            y = _k.design_build(x[:, None], p)[0]
            theta = np.zeros((1, p + 1), dtype=np.float64)  # betas beyond p dropped, missing ones 0
            theta[0, : theta_hat.p + 1] = theta_hat.to_array()[: p + 1]
        j_hat = 2.0 * y
        k_hat = _k.score_variance(x[:, None], theta)
        # The fit's J_hat is 2Y of a CountPath design that cls_solve screened
        # finite, every entry below 2**127: only K_hat needs the check.
        if not ((reuse or np.isfinite(j_hat).all()) and np.isfinite(k_hat).all()):
            raise ValueError("J_hat or K_hat has non-finite entries; check the path and theta_hat")
        if reuse:
            # Y is the design the solve screened; the LU of 2Y doubles Y's,
            # so inv(2Y) = Y^-1 / 2.
            g = 0.5 * fit[2][None]
        else:
            g, rc = _k.inverse_rcond(j_hat)
            if rc[0] < RCOND_THRESHOLD:
                raise SingularDesign(
                    f"J_hat reciprocal condition {rc[0]:.3e} below {RCOND_THRESHOLD:g}"
                )
    sigma = _k.sandwich_solve(j_hat, g, k_hat)
    return _adopt(SandwichCovariance, J_hat=j_hat[0], K_hat=k_hat[0], Sigma_hat=sigma[0])


def _checked_level(level) -> float:
    """``level`` as a float, or :class:`InvalidLevel` outside (0, 1)."""
    level = _as_float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    return level


def confidence_intervals(
    theta_hat: ThetaVector,
    cov: SandwichCovariance,
    T: int,
    level: float = 0.95,
) -> list[tuple[float, float]]:
    """Per-coordinate intervals theta_j +/- z_{(1+level)/2} sqrt(Sigma_jj/T)."""
    level = _checked_level(level)
    values = (theta_hat.mu, *theta_hat.betas)
    diag = cov.Sigma_hat.diagonal()
    if diag.shape[0] != len(values):
        raise DimensionMismatch(
            f"covariance dimension {diag.shape[0]} does not match theta {len(values)}"
        )
    t = _as_float(T)
    if not 1.0 <= t < math.inf:
        raise ValueError(f"T must be >= 1 and finite, got {T}")
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(np.maximum(diag, 0.0) / t)
    return [(v - h, v + h) for v, h in zip(values, half.tolist())]


def normality_report(sample) -> NormalityReport:
    """Jarque-Bera and Shapiro-Wilk on one sample; past n = 5000 only
    Jarque-Bera, and the Shapiro-Wilk fields are None."""
    x = np.asarray(sample, dtype=np.float64).ravel()
    jb_stat, jb_p = jarque_bera(x)
    sw_stat = sw_p = None
    if x.shape[0] <= _SW_MAX_N:
        sw_stat, sw_p = shapiro_wilk(x)
    return NormalityReport(
        jb_stat=jb_stat, jb_p=jb_p, sw_stat=sw_stat, sw_p=sw_p, sample_size=x.shape[0]
    )


def _finite_sample(sample) -> np.ndarray:
    # The sample as a 1-d float64 array; NaN or +-inf raise DomainError.
    x = np.asarray(sample, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise DomainError("sample has NaN or infinite values")
    return x


def _unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    # x * 2**-e and e, the binary exponent of max|x| (math.frexp): every
    # value is then below 1 in magnitude. A power of two scales exactly in
    # the normal range, so every scale-free statistic keeps its bits.
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def jarque_bera(sample) -> tuple[float, float]:
    """Jarque-Bera statistic n/6 (S^2 + (K-3)^2/4) with moment-based
    skewness/kurtosis, and its exact chi-square(2) survival p = exp(-stat/2).
    Requires n >= 8; warns below 20 where the asymptotic null is poor."""
    x = _finite_sample(sample)
    n = x.shape[0]
    if n < 8:
        raise SampleSizeOutOfRange(f"Jarque-Bera needs n >= 8, got {n}")
    if n < 20:
        warnings.warn(
            f"Jarque-Bera on n={n} < 20: asymptotic p-value is unreliable",
            stacklevel=2,
        )
    x = _unit_scale(x)[0]
    xc = x - x.mean()
    m2 = float(xc @ xc) / n
    m3 = float((xc ** 3).sum()) / n
    m4 = float((xc ** 4).sum()) / n
    if m2 == 0.0:
        raise ZeroVariance("all sample values are equal")
    skew = m3 / m2 ** 1.5
    kurt = m4 / (m2 * m2)
    stat = n / 6.0 * (skew * skew + 0.25 * (kurt - 3.0) ** 2)
    return stat, math.exp(-0.5 * stat)


# Largest sample of Royston's Shapiro-Wilk approximation.
_SW_MAX_N = 5000

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
    x = _finite_sample(sample)
    n = x.shape[0]
    if n < 3 or n > _SW_MAX_N:
        raise SampleSizeOutOfRange(f"Shapiro-Wilk needs 3 <= n <= {_SW_MAX_N}, got {n}")
    x = np.sort(_unit_scale(x)[0], kind="stable")
    if x[-1] == x[0]:
        raise ZeroVariance("all sample values are equal")

    n2 = n // 2
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
    sax = float(a @ (x[::-1][:n2] - x[:n2]))
    if ssd == 0.0:
        raise ZeroVariance("all sample values are equal")
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
    return w, normal_cdf(-z)


def qq_data(sample) -> tuple[np.ndarray, np.ndarray]:
    """Normal Q-Q pairs: theoretical quantiles at plotting positions
    (i - 0.5)/n against the standardized order statistics.

    Standardization uses the sample standard deviation (ddof=1). The n=1
    edge maps to the single pair (0, 0) by convention."""
    x = _finite_sample(sample)
    n = x.shape[0]
    if n < 1:
        raise ValueError("sample must be nonempty")
    z = _qq_positions(n).copy()
    if n == 1:
        return z, np.zeros(1)
    x = _unit_scale(x)[0]
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ZeroVariance("all sample values are equal")
    ordered = np.sort(x, kind="stable")
    return z, (ordered - x.mean()) / sd


def histogram_data(sample, bins: int = 30) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max]: (bin_left, bin_right, count)."""
    x = _finite_sample(sample)
    if x.shape[0] < 1:
        raise ValueError("sample must be nonempty")
    # Binned in (-1, 1), the edges scaled back exactly. A constant sample
    # stays as it is: numpy widens its one-point range by 0.5 either way,
    # which does not scale, and which a value of about 2**48 or more in
    # magnitude (2**53 for one bin) absorbs, so that numpy finds no
    # increasing edges.
    e = 0
    constant = x.min() == x.max()
    if not constant:
        x, e = _unit_scale(x)
    try:
        counts, edges = np.histogram(x, bins=bins)
    except ValueError:
        if not constant or bins < 1:
            raise
        raise DomainError(
            f"constant sample of value {float(x[0])!r} is too large to bin: the "
            f"width-1 range around it does not split into {bins} bins"
        ) from None
    edges = np.ldexp(edges, e)
    return edges[:-1], edges[1:], counts


# The normal quantiles of the two tests depend only on the sample size n:
# each is computed once per n and kept, read-only, for the last few sizes.


@functools.lru_cache(maxsize=8)
def _sw_means(n: int) -> np.ndarray:
    # Expected normal order statistics of the upper half of a sample of n
    # (Blom's approximation), largest first.
    m = np.array([normal_quantile((n - i - 0.375) / (n + 0.25)) for i in range(n // 2)])
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=8)
def _qq_positions(n: int) -> np.ndarray:
    # Standard normal quantiles at the plotting positions (i - 0.5)/n.
    z = np.array([normal_quantile((i - 0.5) / n) for i in range(1, n + 1)])
    z.flags.writeable = False
    return z


def normal_quantile(u: float) -> float:
    """Inverse standard normal CDF (the standard library's AS 241)."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {u}")
    return _STANDARD_NORMAL.inv_cdf(u)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))
