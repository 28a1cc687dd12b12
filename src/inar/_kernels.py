"""Numerical kernels: counter-based RNG, Poisson sampling, path simulation,
and the design build and solve of conditional least squares.

Paths are simulated by one of two routes that make the same draws. Both
read counter-based splitmix64 streams (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) from ``_uniforms``: the k-th uniform
of the stream with key c is mix64(c + k * GOLDEN).

- the scalar loop (``fill_poisson``, ``sim_path``) runs one stream in plain
  Python; it is the one-lane path and the lane engine's reference.
- the lane engine (``sim_lanes``) advances many streams one step together;
  lane i reproduces the scalar loop on key i bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "stream_keys",
    "fill_poisson",
    "sim_path",
    "sim_lanes",
    "design_build",
    "sandwich_build",
    "eigh_rcond",
    "eigh_solve",
    "cls_solve",
]

# splitmix64 constants (Steele, Lea, Flood 2014 finalizer, variant 13)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_TAG = np.uint64(0x8E2FCA2F7C3DB543)
_STREAM_TAG = np.uint64(0xD1B54A32D192ED03)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S12 = np.uint64(12)
_INV52 = 2.220446049250313e-16  # 2**-52
_MASK64 = (1 << 64) - 1


def _mix64(z):
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def stream_keys(seed, stream_ids):
    """uint64 generator key of each stream (seed, i), i in ``stream_ids``;
    seeds and ids wrap modulo 2**64."""
    ids = np.array([int(i) & _MASK64 for i in stream_ids], dtype=np.uint64)
    # Full avalanche on both inputs so nearby (seed, stream) pairs decorrelate.
    a = _mix64(np.full_like(ids, int(seed) & _MASK64) ^ _SEED_TAG)
    b = _mix64(ids ^ _STREAM_TAG)
    return _mix64(a + b)


def _uniforms(state):
    # splitmix64 step of every entry of ``state``, in place (array uint64
    # arithmetic wraps silently); top 52 bits centered in (0, 1).
    state += _GOLDEN
    z = _mix64(state)
    return ((z >> _S12).astype(np.float64) + 0.5) * _INV52


# Uniforms per block of one stream. A block steps counters j..j+B-1 to
# j+1..j+B; the skip adds B-1 (as an array: numpy scalars warn on wrap).
_BLOCK = 512
_BLOCK_OFFSETS = np.arange(_BLOCK, dtype=np.uint64) * _GOLDEN
_BLOCK_SKIP = np.array([_BLOCK - 1], dtype=np.uint64) * _GOLDEN


def _stream_uniforms(key):
    """The uniforms of the stream with uint64 ``key``, in order, as Python
    floats: the k-th (k = 1, 2, ...) is mix64(key + k * GOLDEN)."""
    state = key + _BLOCK_OFFSETS
    while True:
        yield from _uniforms(state).tolist()
        state += _BLOCK_SKIP


def _poisson_draw(lam, uniform):
    if lam <= 0.0:
        return 0
    if lam < 10.0:
        # Inversion by sequential search. The iteration cap guards against
        # the accumulated CDF saturating just below a uniform near 1.
        u = uniform()
        p = math.exp(-lam)
        f = p
        k = 0
        while u > f and k < 200:
            k += 1
            p *= lam / k
            f += p
        return k
    # Transformed rejection with squeeze (Hormann 1993, PTRS).
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0.0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                <= k * loglam - lam - math.lgamma(k + 1.0)):
            return int(k)


def fill_poisson(lam, out, key):
    uniform = _stream_uniforms(key).__next__
    out[:] = [_poisson_draw(lam, uniform) for _ in range(out.shape[0])]


def sim_path(nu, kern, n_steps, cap, key):
    # Counts kept as Python ints: int * float rounds as float64 * float64.
    uniform = _stream_uniforms(key).__next__
    kern = kern.tolist()
    x = []
    for n in range(n_steps):
        lam = nu
        for k in range(1, min(n, len(kern)) + 1):
            lam += kern[k - 1] * x[n - k]
        if not (lam <= cap):
            break
        x.append(_poisson_draw(lam, uniform))
    out = np.zeros(n_steps, dtype=np.float64)
    out[: len(x)] = x
    return out, (len(x) if len(x) < n_steps else -1)


# Lane engine. Each function below applies the scalar sampler's arithmetic
# elementwise, in the scalar's order, so every lane reproduces the scalar
# draws. numpy's +, -, *, /, sqrt and floor round exactly as Python's do;
# its exp and log may differ from libm's in the last bit, so exp comes from
# math.exp and every log comparison that is within _TIE of a tie is decided
# again in scalar math.

# Relative margin of the vectorised PTRS log test. numpy's log is within a
# few ulp (2**-52) of libm's, so the two evaluations of either side differ
# by far less than 2**-40 times the sum of the magnitudes of its terms.
_TIE = 2.0 ** -40
# Largest k whose log k! is cached; larger draws call math.lgamma per lane.
_LOGFACT_CACHE = 1 << 16


class _LogFactorials:
    """log k! = math.lgamma(k + 1) for integer-valued float arrays k, from a
    table grown on demand (scipy's gammaln differs from math.lgamma in the
    last bit on about half of its inputs)."""

    def __init__(self):
        self.table = np.zeros(0)

    def __call__(self, k):
        top = int(k.max()) + 1
        if top > _LOGFACT_CACHE:
            return np.array([math.lgamma(v + 1.0) for v in k.tolist()])
        if top > self.table.shape[0]:
            size = min(_LOGFACT_CACHE, max(top, 2 * self.table.shape[0]))
            self.table = np.array([math.lgamma(i + 1.0) for i in range(size)])
        return self.table[k.astype(np.intp)]


def _inversion_lanes(lam, state):
    # Sequential search; every lane still searching has taken the same
    # number of steps, so k is one counter for all of them.
    u = _uniforms(state)
    p = np.array([math.exp(-v) for v in lam.tolist()])
    f = p.copy()
    out = np.zeros(lam.shape[0])
    pos = np.arange(lam.shape[0])
    k = 0
    while k < 200:
        more = u > f
        pos, u, lam, p, f = pos[more], u[more], lam[more], p[more], f[more]
        if not pos.size:
            break
        k += 1
        p = p * (lam / k)
        f = f + p
        out[pos] = k
    return out


def _log_test(k, lam, us, v, a, b, inv_alpha, logfact):
    # PTRS acceptance test for lanes past the squeeze.
    lv = np.log(v)
    li = np.log(inv_alpha)
    lq = np.log(a / (us * us) + b)
    t = k * np.log(lam)
    lg = logfact(k)
    lhs = lv + li - lq
    rhs = t - lam - lg
    accept = lhs <= rhs
    tie = np.abs(lhs - rhs) <= _TIE * (np.abs(lv) + np.abs(li) + np.abs(lq) + np.abs(t) + lam + lg)
    for i in np.flatnonzero(tie).tolist():
        accept[i] = (
            math.log(v[i]) + math.log(inv_alpha[i]) - math.log(a[i] / (us[i] * us[i]) + b[i])
            <= k[i] * math.log(lam[i]) - lam[i] - math.lgamma(k[i] + 1.0)
        )
    return accept


def _ptrs_lanes(lam, state, logfact):
    # Masked PTRS attempts: each round draws (u, v) on the lanes still
    # rejecting and drops the lanes that accept.
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(lam.shape[0])
    pos = np.arange(lam.shape[0])
    st = state.copy()
    while pos.size:
        u = _uniforms(st) - 0.5
        v = _uniforms(st)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + lam + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        slow = ~accept & (k >= 0.0) & ((us >= 0.013) | (v <= us))
        if slow.any():
            accept[slow] = _log_test(
                k[slow], lam[slow], us[slow], v[slow], a[slow], b[slow],
                inv_alpha[slow], logfact,
            )
        done = pos[accept]
        out[done] = k[accept]
        state[done] = st[accept]
        rest = ~accept
        pos, lam, a, b, inv_alpha, v_r, st = (
            c[rest] for c in (pos, lam, a, b, inv_alpha, v_r, st)
        )
    return out


def _poisson_lanes(lam, state, logfact):
    # One Poisson(lam[i]) draw on lane i, advancing state[i]; lanes with
    # lam = 0 draw nothing.
    out = np.zeros(lam.shape[0])
    small = np.flatnonzero((lam > 0.0) & (lam < 10.0))
    if small.size:
        st = state[small]
        out[small] = _inversion_lanes(lam[small], st)
        state[small] = st
    large = np.flatnonzero(lam >= 10.0)
    if large.size:
        st = state[large]
        out[large] = _ptrs_lanes(lam[large], st, logfact)
        state[large] = st
    return out


def sim_lanes(nu, kern, n_steps, cap, keys):
    """``sim_path`` on one lane per uint64 key, all lanes stepping together.

    Returns the (n_steps, N) float64 counts, column i being sim_path's path
    on key i, and the 0-based step at which each lane's intensity exceeded
    ``cap`` (-1 for none); a lane's counts stay 0 from that step on.
    """
    n_lanes = keys.shape[0]
    state = np.array(keys, dtype=np.uint64)
    x = np.zeros((n_steps, n_lanes), dtype=np.float64)
    overflow_at = np.full(n_lanes, -1, dtype=np.int64)
    alive = np.ones(n_lanes, dtype=bool)
    klen = kern.shape[0]
    logfact = _LogFactorials()
    tmp = np.empty(n_lanes)
    for n in range(n_steps):
        # The scalar order: nu first, then lag 1, 2, ... (a matmul would
        # reorder the sum and could flip draws).
        lam = np.full(n_lanes, nu, dtype=np.float64)
        for k in range(1, min(n, klen) + 1):
            np.multiply(kern[k - 1], x[n - k], out=tmp)
            lam += tmp
        over = alive & ~(lam <= cap)
        overflow_at[over] = n
        alive &= ~over
        lam[~alive] = 0.0
        x[n] = _poisson_lanes(lam, state, logfact)
    return x, overflow_at


# Design systems. Counts are integers, so every entry of the Gram sums
# below is an exact float64 integer whatever the summation order: a lane's
# (Y, b) is the same bit for bit however the lanes are grouped.

# Lanes per design-build chunk; bounds the regressor tensor at
# _DESIGN_CHUNK * (p + 1) * T values instead of one per lane of the block.
_DESIGN_CHUNK = 16


def _regressors(x, m):
    # Regressor rows of each row of an (N, T) array: out[i, j, n] is
    # x[i, n - j] for lag j = 1..m-1 (0 before the path starts), and 1 for
    # j = 0. Rows of this layout fill by contiguous copies.
    n_lanes, n_steps = x.shape
    z = np.zeros((n_lanes, m, n_steps), dtype=np.float64)
    z[:, 0] = 1.0
    for j in range(1, m):
        z[:, j, j:] = x[:, : n_steps - j]
    return z


def design_build(x, p):
    """Design matrices Y (N, p+1, p+1) and moment vectors b (N, p+1) of
    the columns of a (T, N) count array."""
    n_steps, n_lanes = x.shape
    m = p + 1
    y = np.empty((n_lanes, m, m), dtype=np.float64)
    b = np.empty((n_lanes, m), dtype=np.float64)
    for start in range(0, n_lanes, _DESIGN_CHUNK):
        lanes = slice(start, start + _DESIGN_CHUNK)
        xc = np.ascontiguousarray(x[:, lanes].T)
        z = _regressors(xc, m)
        g = z @ z.transpose(0, 2, 1)
        y[lanes] = (g + g.transpose(0, 2, 1)) * 0.5
        b[lanes] = (z @ xc[:, :, None])[:, :, 0]
    y /= n_steps
    y[:, 0, 0] = 1.0
    b /= n_steps
    return y, b


def sandwich_build(x, theta):
    """Curvature J_hat = 2Y and score-variance plug-in
    K_hat = (4/T) sum z_n z_n' (x_n - phi_n)^2 of a (T,) count path at
    theta = (mu, beta_1..beta_p), both from one lag matrix."""
    n_steps = x.shape[0]
    # The (T, p+1) lag matrix is made C-contiguous: the residual below is
    # not an integer sum, and BLAS rounds it by the operand layout.
    lags = np.ascontiguousarray(_regressors(x[None], theta.shape[0])[0].T)
    # Integer sums again, so J_hat is 2Y of design_build bit for bit.
    y = lags.T @ lags / n_steps
    y[0, 0] = 1.0
    resid = x - lags @ theta
    k_hat = (lags * (resid * resid)[:, None]).T @ lags
    k_hat = (k_hat + k_hat.T) * 0.5
    k_hat *= 4.0 / n_steps
    return 2.0 * y, k_hat


# Stacked CLS solve. Each lane goes through the same checks in the same
# order, and the batched LAPACK and BLAS calls treat every slice on its
# own, so a lane's estimate and status do not depend on the other lanes.

RCOND_THRESHOLD = 1e-12

# Per-lane outcome of cls_solve.
FIT_OK = 0
FIT_NONFINITE = 1  # Y or b has a non-finite entry
FIT_RCOND = 2  # reciprocal condition below RCOND_THRESHOLD
FIT_RESIDUAL = 3  # non-finite estimate or residual above its bound


class LaneFits(NamedTuple):
    theta: np.ndarray  # (N, m); NaN rows where status != FIT_OK
    status: np.ndarray  # (N,) int8 FIT_* code
    rcond: np.ndarray  # (N,); NaN where not computed
    resid: np.ndarray  # (N,) l2 norm of Y theta - b; NaN where not computed


def eigh_rcond(y):
    """Eigenvalues w, eigenvectors v and reciprocal condition
    min|w| / max|w| (0 for a zero matrix) of each symmetric matrix of a
    (..., m, m) stack."""
    w, v = np.linalg.eigh(y)
    size = np.abs(w)
    top = size.max(axis=-1)
    rc = np.zeros_like(top)
    np.divide(size.min(axis=-1), top, out=rc, where=top != 0.0)
    return w, v, rc


def _inverse_apply(w, v, r):
    # Y^-1 r = V diag(1/w) V' r, lane by lane over any leading axes.
    return v @ ((np.swapaxes(v, -1, -2) @ r) / w[..., None])


def eigh_solve(y, w, v, r):
    """Y^-1 r for symmetric Y = V diag(w) V' and (..., m, k) right-hand
    sides r: one solve plus one iterative-refinement step, both from the
    eigendecomposition (w, v) of ``eigh_rcond``."""
    x = _inverse_apply(w, v, r)
    # The residual is formed in extended precision where the platform has
    # it (x86 long double): the step then lands within about one rounding
    # of the exact solution, not within 1/rcond roundings.
    x += _inverse_apply(w, v, (r - y.astype(np.longdouble) @ x).astype(np.float64))
    return x


def _keep(a, mask):
    # Rows of ``a`` where ``mask`` is set, without a copy when it is all set.
    return a if mask.all() else a[mask]


def cls_solve(y, b):
    """Solve Y theta = b for each lane of a (N, m, m), (N, m) stack from
    one eigendecomposition of each lane's Y: it screens the reciprocal
    condition, gives the solution and one iterative-refinement step."""
    n_lanes, m = b.shape
    status = np.zeros(n_lanes, dtype=np.int8)
    rc = np.full(n_lanes, np.nan)
    finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    status[~finite] = FIT_NONFINITE
    live = np.flatnonzero(finite)
    yl, bl = _keep(y, finite), _keep(b, finite)[:, :, None]
    w, v, rc[live] = eigh_rcond(yl)
    conditioned = rc[live] >= RCOND_THRESHOLD
    status[live[~conditioned]] = FIT_RCOND
    live = live[conditioned]
    yl, bl, w, v = (_keep(c, conditioned) for c in (yl, bl, w, v))
    tl = eigh_solve(yl, w, v, bl)
    resid = np.full(n_lanes, np.nan)
    resid[live] = np.linalg.norm(yl @ tl - bl, axis=(1, 2))
    bound = 1e-8 * np.maximum(1.0, np.linalg.norm(bl, axis=(1, 2)))
    good = np.isfinite(tl).all(axis=(1, 2)) & (resid[live] <= bound)
    status[live[~good]] = FIT_RESIDUAL
    theta = np.full((n_lanes, m), np.nan)
    theta[live[good]] = tl[good, :, 0]
    return LaneFits(theta, status, rc, resid)
