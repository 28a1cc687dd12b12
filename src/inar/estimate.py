"""Conditional least squares: design system, solver, contrast, gradient.

The contrast gamma_T(f) = -(2/T) sum Phi_f(n) X_n + (1/T) sum Phi_f(n)^2
with Phi_f(n) = mu + sum_k beta_k X_{n-k} is an exact quadratic
-2 theta'b + theta'Y theta in theta = (mu, beta_1..beta_p), so the
minimizer solves the linear normal equations Y theta = b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .errors import DimensionMismatch, LagTooLarge, SingularDesign
from .simulate import CountPath

__all__ = [
    "DesignSystem",
    "ThetaVector",
    "build_design",
    "solve_cls",
    "fit_lanes",
    "contrast",
    "contrast_gradient",
    "intensity_series",
    "rcond",
    "residual_norm",
]

RCOND_THRESHOLD = _k.RCOND_THRESHOLD


@dataclass(frozen=True)
class DesignSystem:
    """Normal-equation data (Y, b) built from a path at lag order p."""

    Y: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    T: int
    p: int

    def __post_init__(self):
        y = np.ascontiguousarray(self.Y, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        m = self.p + 1
        if y.shape != (m, m) or b.shape != (m,):
            raise DimensionMismatch(
                f"expected Y ({m},{m}) and b ({m},), got {y.shape} and {b.shape}"
            )
        y.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ThetaVector:
    """Candidate parameter (mu, beta_1..beta_p); no sign constraint."""

    mu: float
    betas: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))

    @property
    def p(self) -> int:
        return len(self.betas)

    def to_array(self) -> np.ndarray:
        return np.concatenate(([self.mu], np.asarray(self.betas, dtype=np.float64)))

    @classmethod
    def from_array(cls, arr) -> "ThetaVector":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise DimensionMismatch("theta must be a 1-d vector of length >= 1")
        return cls(mu=float(arr[0]), betas=tuple(float(v) for v in arr[1:]))


def _counts_of(path) -> np.ndarray:
    if isinstance(path, CountPath):
        return path.counts_float()
    return np.ascontiguousarray(path, dtype=np.float64)


def _check_lag(t: int, p: int) -> int:
    p = int(p)
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if p > t - 1:
        raise LagTooLarge(f"p = {p} exceeds T - 1 = {t - 1}")
    return p


def build_design(path, p: int) -> DesignSystem:
    """Build (Y, b): b[0] is the sample mean of X, b[k] the lag-k cross
    moment; Y is the 1/T-scaled Gram matrix of the regressors
    z_n = (1, X_{n-1}, ..., X_{n-p}) with entries at nonpositive time
    indices zeroed. Y[0,0] is exactly 1."""
    x = _counts_of(path)
    t = x.shape[0]
    p = _check_lag(t, p)
    y, b = _k.design_build(x[:, None], p)
    return DesignSystem(Y=y[0], b=b[0], T=t, p=p)


def rcond(system: DesignSystem) -> float:
    """Reciprocal condition estimate of Y: min|eig| / max|eig|."""
    return float(_k.eigh_rcond(system.Y)[2])


def residual_norm(system: DesignSystem, theta: ThetaVector) -> float:
    """l2 norm of Y theta - b."""
    return float(np.linalg.norm(system.Y @ theta.to_array() - system.b))


def _failure(fits, i: int) -> SingularDesign:
    status = fits.status[i]
    if status == _k.FIT_NONFINITE:
        return SingularDesign("design system contains non-finite entries")
    if status == _k.FIT_RCOND:
        return SingularDesign(
            f"reciprocal condition {fits.rcond[i]:.3e} below threshold {RCOND_THRESHOLD:g}"
        )
    return SingularDesign(
        f"residual {fits.resid[i]:.3e} too large; system is effectively singular"
    )


def _solve_with_rcond(system: DesignSystem) -> tuple[ThetaVector, float]:
    # solve_cls plus the rcond() of Y, both from the one decomposition.
    fits = _k.cls_solve(system.Y[None], system.b[None])
    if fits.status[0] != _k.FIT_OK:
        raise _failure(fits, 0)
    return ThetaVector.from_array(fits.theta[0]), float(fits.rcond[0])


def solve_cls(system: DesignSystem) -> ThetaVector:
    """Solve Y theta = b through the eigendecomposition of Y, plus one
    iterative-refinement step with the same decomposition.

    Raises :class:`SingularDesign` when the reciprocal condition estimate
    falls below 1e-12 or the residual check fails (collinear lags,
    degenerate paths)."""
    return _solve_with_rcond(system)[0]


def fit_lanes(counts, p: int) -> tuple[np.ndarray, np.ndarray]:
    """CLS fit of every column of a (T, N) count array at lag order p,
    all columns built and solved together.

    Returns the (N, p+1) estimates and an (N,) bool mask of the columns
    that were fitted. Row j equals
    ``solve_cls(build_design(counts[:, j], p)).to_array()`` bit for bit
    where the mask is set; it is NaN where that call raises
    :class:`SingularDesign`."""
    x = np.ascontiguousarray(counts, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"counts must be a (T, N) array, got shape {x.shape}")
    p = _check_lag(x.shape[0], p)
    fits = _k.cls_solve(*_k.design_build(x, p))
    return fits.theta, fits.status == _k.FIT_OK


def intensity_series(path, theta: ThetaVector, p: int | None = None) -> np.ndarray:
    """Candidate intensity Phi(n) = mu + sum_{k<=p} beta_k X_{n-k} for
    n = 1..T; Phi(1) = mu. Extra betas beyond p are treated as zero."""
    x = _counts_of(path)
    t = x.shape[0]
    p = _check_lag(t, theta.p if p is None else p)
    betas = np.zeros(p, dtype=np.float64)
    use = min(p, theta.p)
    if use:
        betas[:use] = theta.betas[:use]
    phi = np.full(t, theta.mu, dtype=np.float64)
    for k in range(1, p + 1):
        phi[k:] += betas[k - 1] * x[: t - k]
    return phi


def contrast(path, theta: ThetaVector, p: int | None = None) -> float:
    """Least-squares contrast by the direct two-sum definition (oracle form):
    -(2/T) sum Phi(n) X_n + (1/T) sum Phi(n)^2."""
    x = _counts_of(path)
    t = x.shape[0]
    phi = intensity_series(x, theta, p)
    return float(-2.0 / t * (phi @ x) + 1.0 / t * (phi @ phi))


def contrast_gradient(system: DesignSystem, theta: ThetaVector) -> np.ndarray:
    """Gradient of the quadratic form: 2 (Y theta - b)."""
    vec = theta.to_array()
    if vec.shape[0] != system.p + 1:
        raise DimensionMismatch(
            f"theta has dimension {vec.shape[0]}, system expects {system.p + 1}"
        )
    return 2.0 * (system.Y @ vec - system.b)
