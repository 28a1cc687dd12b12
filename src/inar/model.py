"""Parameter records, stationarity validation, renewal sequences, and
moment bounds for the cumulative INAR model.

The model is a discrete-time self-exciting count process: conditionally on
the past, X_n ~ Poisson(nu + sum_k alpha_k X_{n-k}). Stationarity requires
the kernel's l1 norm below 1; the sharper second-moment bounds additionally
need its squared l2 norm below 1/2.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonStationaryKernel

__all__ = [
    "ModelParams",
    "ValidationReport",
    "RenewalSequence",
    "BoundsReport",
    "geometric_kernel",
    "validate_params",
    "renewal_sequence",
    "solve_renewal",
    "moment_bounds",
]


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only in place, without a copy: it and every array
    it is a view of are made read-only. An array that owns its data comes
    back as a view of itself; a view comes back unchanged. numpy refuses
    to make that view writable again, but not its base: a caller who
    reaches ``.base`` can make the base writable and write through it. It
    seals the records the package returns and a path's T-long counts and
    float view, which are not copied; what an estimate keeps for a later
    sandwich is a :func:`_frozen_copy` instead."""
    base = arr
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return arr.view() if arr.base is None else arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` that nothing can make writable: a view of an
    immutable ``bytes`` copy of its data, whose writeable flag numpy will
    not set, through ``.base`` or otherwise."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _freeze_copies(record, *names: str, dtype=np.float64) -> None:
    """Replace each named array field of a frozen dataclass ``record`` by a
    sealed C-contiguous copy as ``dtype``: the caller's array stays
    writable, and later writes to it never reach the record."""
    for name in names:
        arr = np.array(getattr(record, name), dtype=dtype, order="C", ndmin=1)
        object.__setattr__(record, name, _sealed(arr))


def _as_float(value) -> float:
    """``float(value)``, or inf signed as ``value`` for an int past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_size(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int by ``operator.index``: no float is truncated.
    With a ``minimum``, a smaller value is refused."""
    try:
        size = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and size < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {size}")
    return size


def _adopt(cls, **fields):
    """A ``cls`` record (a frozen dataclass) of values the package has just
    made and nothing else holds: each array among them is sealed in place
    instead of copied. ``__post_init__`` does not run; the maker has shaped
    and typed the fields already."""
    record = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            fields[name] = _sealed(value)
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True)
class ModelParams:
    """Immigration rate ``nu`` and reproduction kernel ``alpha_1..alpha_K``.

    ``kernel_tail`` optionally documents the closed form a finite kernel was
    truncated from (e.g. ``"geometric:0.25"``); it never enters computation.
    Construction is permissive: invalid values are reported by
    :func:`validate_params`, not rejected here.
    """

    nu: float
    kernel: tuple[float, ...] = ()
    kernel_tail: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "nu", _as_float(self.nu))
        object.__setattr__(self, "kernel", tuple(map(_as_float, self.kernel)))

    # A finite kernel whose norm passes the float range has norm inf.
    @property
    def norm_l1(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.kernel))) if self.kernel else 0.0

    @property
    def norm_l2_sq(self) -> float:
        arr = np.asarray(self.kernel)
        with np.errstate(over="ignore"):
            return float(arr @ arr)

    def kernel_array(self) -> np.ndarray:
        return np.asarray(self.kernel, dtype=np.float64)

    def digest(self) -> str:
        """Stable identifier of (nu, kernel) for provenance stamps."""
        text = f"nu={self.nu!r};kernel={self.kernel!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition pass/fail from :func:`validate_params`."""

    finite: bool
    nonnegative: bool
    stationary: bool
    l2_advisory: bool
    norm_l1: float
    norm_l2_sq: float

    @property
    def ok(self) -> bool:
        """True when the hard conditions (finiteness, nonnegativity,
        stationarity) hold."""
        return self.finite and self.nonnegative and self.stationary


@dataclass(frozen=True)
class RenewalSequence:
    """Values A_1..A_n of the renewal sequence sum_k alpha^(*k)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_copies(self, "values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass(frozen=True)
class BoundsReport:
    """Analytic moment and deviation bounds at horizon T.

    ``second_moment_bound`` and ``norm_K2`` are None when the kernel's
    squared l2 norm reaches 1/2: both formulas share the (1 - 2||a||_2^2)
    denominator and stop being upper bounds there.
    """

    mean_bound: float
    second_moment_bound: float | None
    norm_L2: float
    norm_K2: float | None
    horizon_T: int


def geometric_kernel(ratio: float) -> tuple[float, ...]:
    """Kernel alpha_n = ratio**n truncated before its first term below 1e-12.

    The dropped tail has l1 mass below 1e-12/(1-ratio), negligible against
    double-precision accumulation in every downstream sum. A kernel whose
    sum reaches 1 ends there: it is non-stationary whatever follows.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"geometric ratio must be in (0, 1), got {ratio}")
    terms = []
    term = ratio
    while term >= 1e-12 and sum(terms) < 1.0:
        terms.append(term)
        term *= ratio
    return tuple(terms)


def validate_params(params: ModelParams) -> ValidationReport:
    """Check finiteness, nonnegativity, stationarity (l1 < 1), and the l2
    advisory.

    Report-only: the l2 condition in particular is deliberately violated by
    interesting models (a single lag of 0.8 has squared l2 norm 0.64), and
    the estimator remains usable there.
    """
    arr = params.kernel_array()
    finite = math.isfinite(params.nu) and bool(np.all(np.isfinite(arr)))
    nonneg = params.nu >= 0.0 and bool(np.all(arr >= 0.0))
    l1 = params.norm_l1
    l2_sq = params.norm_l2_sq
    return ValidationReport(
        finite=finite,
        nonnegative=nonneg,
        stationary=bool(l1 < 1.0),
        l2_advisory=bool(l2_sq < 0.5),
        norm_l1=l1,
        norm_l2_sq=l2_sq,
    )


def _require_valid(params: ModelParams) -> ValidationReport:
    """:func:`validate_params`' report, or :class:`NonStationaryKernel` at
    the first hard condition that fails: finiteness, nonnegativity, l1 < 1.
    Simulation, renewal, the bounds and ``McConfig`` check the model here."""
    report = validate_params(params)
    if not report.finite:
        raise NonStationaryKernel("nu and all kernel entries must be finite")
    if not report.nonnegative:
        raise NonStationaryKernel("nu and all kernel entries must be >= 0")
    if not report.stationary:
        raise NonStationaryKernel(f"kernel has l1 norm {report.norm_l1:.6g} >= 1")
    return report


def _kernel_vector(kernel) -> np.ndarray:
    # The kernel as a 1-d float64 array, checked as a model's kernel.
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 1:
        raise DimensionMismatch(f"kernel must be a 1-d vector, got shape {kern.shape}")
    _require_valid(ModelParams(0.0, kern))
    return kern


def _renewal(y, kern) -> np.ndarray:
    # x_n = y_n + sum_{s <= min(n-1, K)} alpha_s x_{n-s}, summed from y_n in
    # s order on Python floats, for a 1-d y and a checked kernel.
    alphas = kern.tolist()
    x = []
    for acc in y.tolist():
        for alpha, prev in zip(alphas, reversed(x)):
            acc += alpha * prev
        x.append(acc)
    return np.array(x, dtype=np.float64)


def renewal_sequence(kernel, n_max: int) -> RenewalSequence:
    """First ``n_max`` values of A = sum of convolution powers of the kernel.

    Computed by the defining recursion A = alpha + alpha * A (discrete
    convolution), which is exact term by term: A_n depends only on
    alpha_1..alpha_n, so finite kernels need no tail correction.
    """
    n_max = _as_size(n_max, "n_max", 1)
    kern = _kernel_vector(kernel)
    y = np.zeros(n_max, dtype=np.float64)
    y[: kern.shape[0]] = kern[:n_max]
    return _adopt(RenewalSequence, values=_renewal(y, kern))


def solve_renewal(y, kernel) -> np.ndarray:
    """Solve x = y + alpha * x (convolution) by its recursion in n."""
    yarr = np.asarray(y, dtype=np.float64)
    if yarr.ndim != 1:
        raise DimensionMismatch(f"y must be a 1-d vector, got shape {yarr.shape}")
    if not np.all(np.isfinite(yarr)):
        raise ValueError("y must be finite")
    return _renewal(yarr, _kernel_vector(kernel))


def moment_bounds(params: ModelParams, horizon_T: int) -> BoundsReport:
    """Analytic bounds: stationary mean, second moment, and the deviation
    constants L^2 (lower) and K^2 (upper) at horizon T.

    Requires a valid model. The second-moment-based quantities are omitted
    when the squared l2 norm of the kernel reaches 1/2.
    """
    horizon_T = _as_size(horizon_T, "horizon_T", 1)
    t = _as_float(horizon_T)
    if t == math.inf:
        raise ValueError(f"horizon_T must fit in a float, got an integer of "
                         f"{horizon_T.bit_length()} bits")
    report = _require_valid(params)
    nu = params.nu
    l1 = report.norm_l1
    l2_sq = report.norm_l2_sq

    mean_bound = nu / (1.0 - l1)

    second = None
    if report.l2_advisory:
        second = (2.0 * nu * nu * (1.0 - l1) + nu) / (
            (1.0 - 2.0 * l2_sq) * (1.0 - l1)
        )

    one_plus = (1.0 + l1) ** 2
    cand1 = 1.0 / (1.0 + nu * t * (t - 1.0) * one_plus)
    if nu > 0.0:
        cand2 = nu / (2.0 * t * (1.0 - l1) * one_plus)
        norm_l2 = min(cand1, cand2)
    else:
        # Degenerate nu=0 process: the second candidate collapses to 0 and
        # stops being informative; keep the always-positive first bound.
        norm_l2 = cand1

    norm_k2 = None
    if second is not None:
        bracket = 2.0 * nu * nu / (1.0 - l1) ** 2 + second
        norm_k2 = max(2.0, (t - 1.0) / 2.0 * bracket)

    return BoundsReport(
        mean_bound=mean_bound,
        second_moment_bound=second,
        norm_L2=norm_l2,
        norm_K2=norm_k2,
        horizon_T=horizon_T,
    )
