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
from .model import _adopt, _as_float, _as_size, _freeze_copies, _frozen_copy
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
    # A system that build_design made from a CountPath also holds that
    # path's float view, by which its estimate's sandwich knows the path.
    # Not a field, as ThetaVector._fit is not.
    _counts = None

    def __post_init__(self):
        _freeze_copies(self, "Y", "b")
        m = self.p + 1
        if self.Y.shape != (m, m) or self.b.shape != (m,):
            raise DimensionMismatch(
                f"expected Y ({m},{m}) and b ({m},), got {self.Y.shape} and {self.b.shape}"
            )


@dataclass(frozen=True)
class ThetaVector:
    """Candidate parameter (mu, beta_1..beta_p); no sign constraint."""

    mu: float
    betas: tuple[float, ...] = ()
    # An estimate from solve_cls on a system that build_design made from a
    # CountPath also holds that path's float view and the fit's Y, Y^-1 and
    # (1, m) solved row, (counts, Y, Y^-1, theta), for sandwich_covariance
    # to reuse.
    # Not a field: ==, hash, repr, asdict and replace see (mu, betas) only.
    _fit = None

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_float(self.mu))
        object.__setattr__(self, "betas", tuple(map(_as_float, self.betas)))

    @property
    def p(self) -> int:
        return len(self.betas)

    def to_array(self) -> np.ndarray:
        return np.array((self.mu, *self.betas), dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "ThetaVector":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise DimensionMismatch("theta must be a 1-d vector of length >= 1")
        values = arr.tolist()
        return cls(mu=values[0], betas=tuple(values[1:]))


def _counts_of(path) -> np.ndarray:
    # The path as a C-contiguous (T,) float64 array: a CountPath's shared
    # read-only float view, else the caller's own array where it is one.
    if isinstance(path, CountPath):
        return path.counts_float()
    x = np.array(path, dtype=np.float64, order="C", ndmin=1, copy=None)
    if x.ndim != 1:
        raise DimensionMismatch(f"path must be a (T,) array, got shape {x.shape}")
    return x


def _check_lag(t: int, p: int) -> int:
    p = _as_size(p, "p", 0)
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
    counts = isinstance(path, CountPath)
    if counts:
        # int64 counts: every product is below 2**126 and every sum far
        # below the float maximum, so nothing overflows or makes NaN.
        y, b = _k.design_build(x[:, None], p)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # solve_cls rejects non-finite
            y, b = _k.design_build(x[:, None], p)
    return _adopt(DesignSystem, Y=y[0], b=b[0], T=t, p=p, _counts=x if counts else None)


def rcond(system: DesignSystem) -> float:
    """Reciprocal condition of Y: min|eig| / max|eig|, from its
    eigendecomposition."""
    return float(_k.eigh_rcond(system.Y))


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


def solve_cls(system: DesignSystem) -> ThetaVector:
    """Solve Y theta = b through the inverse of Y (one LU factorisation),
    plus one iterative-refinement step with the same inverse. An estimate
    from a :func:`build_design` system of a :class:`inar.CountPath` carries
    copies of Y, that inverse and its solved row, with the path's float
    view, to :func:`inar.sandwich_covariance`.

    Raises :class:`SingularDesign` when the reciprocal condition falls
    below 1e-12 or the residual check fails (collinear lags, degenerate
    paths). The condition is screened by a Frobenius-norm lower bound,
    and a lane the bound cannot clear is decided by :func:`rcond`'s
    eigenvalue ratio, which the message then quotes."""
    fits = _k.cls_solve(system.Y[None], system.b[None])
    if fits.status[0] != _k.FIT_OK:
        raise _failure(fits, 0)
    values = fits.theta[0].tolist()
    fit = None
    if system._counts is not None:
        # Copies no caller can make writable: a later write to system.Y
        # (through its base) does not reach this estimate's sandwich.
        fit = (system._counts, _frozen_copy(system.Y), _frozen_copy(fits.inv[0]),
               _frozen_copy(fits.theta))
    return _adopt(ThetaVector, mu=values[0], betas=tuple(values[1:]), _fit=fit)


def fit_lanes(counts, p: int) -> tuple[np.ndarray, np.ndarray]:
    """CLS fit of every column of a (T, N) count array at lag order p,
    all columns built together and solved from one batched inverse of
    their designs.

    Returns the (N, p+1) estimates and an (N,) bool mask of the columns
    that were fitted. Row j equals
    ``solve_cls(build_design(counts[:, j], p)).to_array()`` bit for bit
    where the mask is set; it is NaN where that call raises
    :class:`SingularDesign`."""
    x = np.ascontiguousarray(counts, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"counts must be a (T, N) array, got shape {x.shape}")
    p = _check_lag(x.shape[0], p)
    with np.errstate(over="ignore", invalid="ignore"):  # cls_solve masks non-finite
        y, b = _k.design_build(x, p)
    fits = _k.cls_solve(y, b)
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
