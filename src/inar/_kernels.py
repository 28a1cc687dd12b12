"""Numerical kernels: counter-based RNG, Poisson sampling, path simulation,
and the design build and solve of conditional least squares.

Every sampler reads counter-based splitmix64 streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) from ``_uniforms``:
the k-th uniform of the stream with key c is mix64(c + k * GOLDEN). The
draws of a stream are fixed by the scalar loop (``_poisson_draw`` reading
``_stream_uniforms``); three routes make them:

- the scalar loop itself (``sim_path``) runs one path in plain Python, for
  paths whose rate depends on their past; it is every route's reference.
- the lane engine (``sim_lanes``) advances many streams one step together;
  lane i reproduces the scalar loop on key i bit for bit.
- the block sampler (``poisson_stream``) draws one constant-rate stream in
  blocks of counters: at a fixed rate a draw's uniforms do not depend on
  the draws before it. Inversion is one binary search of the rate's CDF
  table, whose entries are the sums the sequential search adds up; PTRS
  runs the lane engine's round kernel, which takes per-lane constants or
  floats shared by every cell and finds first acceptances by a running OR.
  ``sim_one`` sends a path whose kernel is zero here and any other path to
  ``sim_path``.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "stream_keys",
    "poisson_stream",
    "sim_path",
    "sim_one",
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
# Counts from here on do not fit in int64.
INT64_END = 2.0 ** 63
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
    # arithmetic wraps silently); top 52 bits centered in (0, 1). The mix
    # runs in place on two temporaries; its values are _mix64's.
    state += _GOLDEN
    z = state >> _S30
    z ^= state
    z *= _MIX1
    t = z >> _S27
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    z >>= _S12
    u = z.astype(np.float64)
    u += 0.5
    u *= _INV52
    return u


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


def sim_path(nu, kern, n_steps, cap, key):
    # The output first: a size that cannot be allocated fails before the
    # loop. Counts kept as Python ints: int * float rounds as float64 *
    # float64.
    out = np.zeros(n_steps, dtype=np.float64)
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
        # One read of the table: a caller on another thread may replace it
        # meanwhile, and this call indexes the table it checked.
        table = self.table
        if top > table.shape[0]:
            size = min(_LOGFACT_CACHE, max(top, 2 * table.shape[0]))
            table = self.table = np.array([math.lgamma(i + 1.0) for i in range(size)])
        return table[k.astype(np.intp)]


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
    # PTRS acceptance test past the squeeze, at per-cell or shared constants.
    lv = np.log(v)
    li = np.log(inv_alpha)
    lq = np.log(a / (us * us) + b)
    t = k * np.log(lam)
    lg = logfact(k)
    lhs = lv + li - lq
    rhs = t - lam - lg
    accept = lhs <= rhs
    tie = np.abs(lhs - rhs) <= _TIE * (np.abs(lv) + np.abs(li) + np.abs(lq) + np.abs(t) + lam + lg)
    tie = np.flatnonzero(tie).tolist()
    if tie:  # float constants as per-cell arrays, indexed like the lanes'
        lam, a, b, inv_alpha = np.broadcast_arrays(lam, a, b, inv_alpha, k)[:4]
    for i in tie:
        accept[i] = (
            math.log(v[i]) + math.log(inv_alpha[i]) - math.log(a[i] / (us[i] * us[i]) + b[i])
            <= k[i] * math.log(lam[i]) - lam[i] - math.lgamma(k[i] + 1.0)
        )
    return accept


# PTRS rounds tried per pass of the lane loop. Round r of a lane reads the
# counters 2r+1 (u) and 2r+2 (v) past its state, so one pass draws
# _PTRS_ROUNDS rounds of every lane still rejecting at once, and each lane
# keeps its first accepting round: the draws and the state are those of the
# scalar loop. A numpy dispatch costs more than the arithmetic of a round,
# so four rounds per pass beat one; about 4e-4 of draws at lam = 100 (4e-3
# at lam = 10) reject all four and take another pass.
_PTRS_ROUNDS = 4
# Counter offsets of one pass, one row each: the u of rounds 0..R-1, then
# their v. After _uniforms, v row r holds the state advanced by 2(r+1).
_PASS_OFFSETS = np.concatenate([
    np.arange(0, 2 * _PTRS_ROUNDS, 2, dtype=np.uint64),
    np.arange(1, 2 * _PTRS_ROUNDS, 2, dtype=np.uint64),
])[:, None] * _GOLDEN


def _ptrs_constants(lam):
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    return a, b, inv_alpha, v_r


def _ptrs_rounds(wu, wv, lam, a, b, inv_alpha, v_r, logfact):
    # PTRS rounds on (R, n) grids of uniforms: cell (r, i) is round r of
    # lane i, with u from wu and v from wv. The constants are (n,) arrays,
    # one per lane, or floats shared by every lane. Returns the candidate
    # k and the acceptance of every cell. The cells are indexed flat
    # (cell = round * n + lane): 2-D masks cost more dispatch. The log test
    # runs only where it can decide the draw: on rounds before the lane's
    # first squeeze acceptance, found by a running OR down the rows. Later
    # rounds may read rejected although they accept.
    n = wu.shape[1]
    u = wu - 0.5
    us = 0.5 - np.abs(u)
    k = np.floor((2.0 * a / us + b) * u + lam + 0.43)
    accept = (us >= 0.07) & (wv <= v_r)
    seen = accept.copy()
    for r in range(1, seen.shape[0]):
        np.logical_or(seen[r], seen[r - 1], out=seen[r])
    slow = ~seen & (k >= 0.0) & ((us >= 0.013) | (wv <= us))
    slow = slow.reshape(-1).nonzero()[0]
    if slow.size:
        if isinstance(lam, np.ndarray):
            lane = slow % n
            lam, a, b, inv_alpha = lam[lane], a[lane], b[lane], inv_alpha[lane]
        accept.reshape(-1)[slow] = _log_test(
            k.reshape(-1)[slow], lam, us.reshape(-1)[slow],
            wv.reshape(-1)[slow], a, b, inv_alpha, logfact,
        )
    return k, accept


def _ptrs_pass(st, lam, a, b, inv_alpha, v_r, logfact):
    # One pass of _PTRS_ROUNDS rounds (u, v) on the lanes with states st:
    # each lane's first accepting round (round 0 where none accepts), its
    # k, its state after that round, whether it accepted, and the grid.
    n = st.shape[0]
    grid = st + _PASS_OFFSETS
    w = _uniforms(grid)
    k, accept = _ptrs_rounds(
        w[:_PTRS_ROUNDS], w[_PTRS_ROUNDS:], lam, a, b, inv_alpha, v_r, logfact,
    )
    cell = accept.argmax(axis=0) * n + np.arange(n)
    return (k.reshape(-1)[cell], grid[_PTRS_ROUNDS:].reshape(-1)[cell],
            accept.reshape(-1)[cell], grid)


def _ptrs_lanes(lam, state, logfact):
    # Masked PTRS in passes: each pass tries _PTRS_ROUNDS rounds (u, v) of
    # the lanes still rejecting and drops the lanes that accept in any. The
    # first pass covers every lane and writes all of out and state; a lane
    # it leaves rejecting has both overwritten by the pass that accepts it.
    a, b, inv_alpha, v_r = _ptrs_constants(lam)
    out, st_k, hit, grid = _ptrs_pass(state, lam, a, b, inv_alpha, v_r, logfact)
    state[:] = st_k
    if hit.all():
        return out
    miss = ~hit
    pos = np.flatnonzero(miss)
    st = grid[-1, miss]
    lam, a, b, inv_alpha, v_r = (c[miss] for c in (lam, a, b, inv_alpha, v_r))
    while True:
        k, st_k, hit, grid = _ptrs_pass(st, lam, a, b, inv_alpha, v_r, logfact)
        if hit.all():
            out[pos] = k
            state[pos] = st_k
            return out
        out[pos[hit]] = k[hit]
        state[pos[hit]] = st_k[hit]
        miss = ~hit
        pos, lam, a, b, inv_alpha, v_r = (
            c[miss] for c in (pos, lam, a, b, inv_alpha, v_r)
        )
        st = grid[-1, miss]


def _poisson_lanes(lam, state, logfact):
    # One Poisson(lam[i]) draw on lane i, advancing state[i]; lanes with
    # lam = 0 draw nothing. When every lane runs PTRS (every step of the
    # paper's study), state goes to it whole, with no gather or scatter.
    if lam.min() >= 10.0:
        return _ptrs_lanes(lam, state, logfact)
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


# Block sampler. At a constant rate a stream's draws are a fixed function
# of its uniforms: inversion reads one uniform per draw, so draw j reads
# counter j + 1; PTRS round r reads counters 2r + 1 (u) and 2r + 2 (v), so
# the draws are the k of the accepting rounds, in order. A block evaluates
# up to _STREAM_BLOCK draws or rounds at once: inversion by one search of
# the rate's CDF table, PTRS with the lane engine's round kernel on float
# constants. 2**13 already spreads a block's dispatch thinly (2**14 draws
# no faster) and holds half the temporary arrays of 2**14.
_STREAM_BLOCK = 1 << 13
# log k! for the block sampler, shared by its calls: a stream at a large
# rate grows one table, not one per call.
_STREAM_LOGFACT = _LogFactorials()


def _inversion_table(lam):
    # F_0, F_1, ... at 0 < lam < 10: the floats the sequential search
    # compares u with, made by its operations in its order. Past the mode
    # (k > lam) p only shrinks, so once a term leaves F as it is, F stays
    # there; the search stops at F_199.
    p = math.exp(-lam)
    f = p
    table = [f]
    for k in range(1, 200):
        p *= lam / k
        if k > lam and f + p == f:
            break
        f += p
        table.append(f)
    return np.array(table)


def _inversion_search(table, u, out):
    # The sequential search's draws for the uniforms u: F is nondecreasing,
    # so the first k with u <= F_k is a binary search; past the table, the
    # search ran to its cap of 200.
    out[:] = np.searchsorted(table, u)
    out[out == table.shape[0]] = 200


def poisson_stream(lam, out, key):
    """Fill ``out`` with the first Poisson(lam) draws of the stream with
    uint64 ``key`` (a (1,) array, left as it is): bit for bit the draws of
    the scalar loop on that stream."""
    n_draws = out.shape[0]
    if lam <= 0.0:
        out[:] = 0
        return
    # The counter before the next block. State j of a block is its base
    # plus offsets[j]. Blocks shrink as draws are made, so the first
    # block's buffer holds the states of every block; _uniforms steps them
    # in place, and the last is the next base.
    base = key.copy()
    done = 0
    if lam < 10.0:
        table = _inversion_table(lam)
        offsets = np.arange(min(_STREAM_BLOCK, n_draws), dtype=np.uint64) * _GOLDEN
        buf = np.empty_like(offsets)
        while done < n_draws:
            size = min(_STREAM_BLOCK, n_draws - done)
            state = np.add(base, offsets[:size], out=buf[:size])
            _inversion_search(table, _uniforms(state), out[done : done + size])
            base[:] = state[-1]
            done += size
        return
    # A round accepts with probability 0.75 at lam = 10, rising to 0.89 at
    # large lam: 4/3 rounds per draw still wanted mostly suffice, and a
    # short block is followed by another.
    constants = (lam, *(float(c[0]) for c in _ptrs_constants(np.array([lam]))))
    rounds = min(_STREAM_BLOCK, n_draws + n_draws // 3 + 8)
    offsets = np.arange(2 * rounds, dtype=np.uint64) * _GOLDEN
    buf = np.empty_like(offsets)
    while done < n_draws:
        need = n_draws - done
        rounds = min(_STREAM_BLOCK, need + need // 3 + 8)
        state = np.add(base, offsets[: 2 * rounds], out=buf[: 2 * rounds])
        w = _uniforms(state).reshape(rounds, 2)
        # The block's rounds as one round of ``rounds`` lanes at one rate:
        # every round is decided.
        k, accept = _ptrs_rounds(
            w[None, :, 0], w[None, :, 1], *constants, _STREAM_LOGFACT,
        )
        got = k[accept][:need]
        out[done : done + got.size] = got
        base[:] = state[-1]
        done += got.size


def sim_one(nu, kern, n_steps, cap, key):
    """``sim_path(nu, kern, n_steps, cap, key)``'s counts and overflow
    step, n_steps >= 1. A zero kernel is the constant rate nu, whose counts
    the block sampler draws; any other kernel runs ``sim_path``."""
    if kern.any():
        return sim_path(nu, kern, n_steps, cap, key)
    if not (nu <= cap):
        return np.zeros(n_steps), 0
    x = np.empty(n_steps)
    poisson_stream(nu, x, key)
    return x, -1


def sim_lanes(nu, kern, n_steps, cap, keys):
    """``sim_path`` on one lane per uint64 key, all lanes stepping together.

    Returns the (n_steps, N) float64 counts, column i being sim_path's path
    on key i, and the 0-based step at which each lane overflowed (-1 for
    none): its intensity exceeded ``cap``, or it drew a count of INT64_END
    or more. A lane's counts stay 0 from that step on.
    """
    n_lanes = keys.shape[0]
    state = np.array(keys, dtype=np.uint64)
    x = np.zeros((n_steps, n_lanes), dtype=np.float64)
    overflow_at = np.full(n_lanes, -1, dtype=np.int64)
    if not n_lanes:  # the steps below take maxima over the lanes
        return x, overflow_at
    alive = np.ones(n_lanes, dtype=bool)
    all_alive = True
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
        # The overflow masks only once a lane is dead or over the cap (a
        # NaN maximum counts as over).
        if not (all_alive and lam.max() <= cap):
            over = alive & ~(lam <= cap)
            overflow_at[over] = n
            alive &= ~over
            lam[~alive] = 0.0
            all_alive = bool(alive.all())
        x[n] = _poisson_lanes(lam, state, logfact)
        if x[n].max() >= INT64_END:
            huge = x[n] >= INT64_END
            overflow_at[huge] = n
            alive &= ~huge
            x[n, huge] = 0.0
            all_alive = False
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
    # The squared residual in place: at T = 1e5 each (T,) temporary is
    # 0.8 MB at the peak of a sandwich.
    resid = lags @ theta
    np.subtract(x, resid, out=resid)
    resid *= resid
    k_hat = (lags * resid[:, None]).T @ lags
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
