"""Numerical kernels: counter-based RNG, Poisson sampling, path simulation,
and the design build, solve and score variance of conditional least squares.

Every sampler reads counter-based splitmix64 streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) from ``_uniforms``:
the k-th uniform of the stream with key c is mix64(c + k * GOLDEN). Every
block of counters is laid out from two read-only tables of offsets,
``_STEPS`` (one uniform per counter) and ``_ROUNDS`` (PTRS round r reads
its u at counter 2r + 1 and its v at 2r + 2). The draws of a stream are
fixed by the scalar loop (``_poisson_draw`` reading ``_stream_uniforms``);
three routes make them, and ``sim_lanes`` is the one entry to all three,
for any number of paths:

- the scalar loop itself (``sim_path``) runs one path in plain Python, for
  paths whose rate depends on their past; it is every route's reference.
  ``sim_lanes`` runs it on a single path with a kernel.
- the lane engine (the body of ``sim_lanes``) runs two or more streams,
  each lane on its own step; lane i reproduces the scalar loop on key i
  bit for bit. A numpy pass makes one draw attempt on every lane: one
  inversion draw, or one PTRS round that a rejecting lane tries again on
  the next pass. At nu >= 10 no rate is below 10 (the rate adds
  non-negative products to nu, and a lane that overflows draws on at nu),
  so every pass is one PTRS round on every lane, reading its next two
  counters: a block of passes draws those uniforms at once, with the half
  of each round that does not depend on the rate (``_round_parts``), and
  each pass makes the rest (``_ptrs_round``).
- the block sampler (``poisson_stream``) draws one constant-rate stream in
  blocks of counters: at a fixed rate a draw's uniforms do not depend on
  the draws before it. It runs the lane engine's kernels on a float rate
  shared by every cell: inversion counts the sums of the sequential search
  that each uniform passes, and ends the sum once the block's largest
  uniform is not past it; the PTRS round kernel (``_round_parts`` and
  ``_ptrs_round``) takes one row of rounds, at per-lane constants or
  floats. ``sim_lanes`` runs it on a single path whose kernel is zero.

The two vectorised routes take log k! from one module-level table,
``_LOGFACT``, grown on demand and safe to share between threads.

``design_build`` makes each lane's CLS design (Y, b) from partial sums of
the lagged products x_t x_{t+d} of its counts, in O(T p) per lane. Counts
are integers, so the sums are exact, and equal bit for bit in any order,
while every product and partial sum stays below 2**53 in magnitude.
``score_variance`` and ``sandwich_solve`` make each lane's K_hat and Sigma
of the sandwich by the BLAS calls of a one-lane stack, so a lane's results
do not depend on the other lanes it is stacked with; the refinement
residual of each solve is a long double vecdot, numpy's long double matmul
bit for bit.
"""

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

__all__ = [
    "stream_keys",
    "poisson_stream",
    "sim_path",
    "sim_lanes",
    "design_build",
    "score_variance",
    "sandwich_solve",
    "eigh_rcond",
    "inverse_rcond",
    "inverse_solve",
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
# The bits of 1.0: OR-ed into a 52-bit z they make the float 1 + z * 2**-52.
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_LESS_HALF_ULP = 1.0 - 2.0 ** -53
_MASK64 = (1 << 64) - 1


def _mix64(z):
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def stream_keys(seed, stream_ids):
    """uint64 generator key of each stream (seed, i), i in ``stream_ids``;
    seeds and ids are integers (read by ``operator.index``: no float is
    truncated) and wrap modulo 2**64."""
    ids = np.array([operator.index(i) & _MASK64 for i in stream_ids], dtype=np.uint64)
    # Full avalanche on both inputs so nearby (seed, stream) pairs decorrelate.
    a = _mix64(np.full_like(ids, operator.index(seed) & _MASK64) ^ _SEED_TAG)
    b = _mix64(ids ^ _STREAM_TAG)
    return _mix64(a + b)


def _uniforms(state):
    # splitmix64 step of every entry of ``state``, in place (array uint64
    # arithmetic wraps silently); the top 52 bits z of each mix give the
    # uniform (z + 1/2) * 2**-52 in (0, 1). The mix runs in place on two
    # temporaries; its values are _mix64's. The uniform is read from the
    # mix's own words: 1 + z * 2**-52 by its bits, less 1 - 2**-53, which
    # is exact (the difference has at most 53 significant bits below 1).
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
    z |= _ONE_BITS
    u = z.view(np.float64)
    u -= _ONE_LESS_HALF_ULP
    return u


# Uniforms per block of the scalar loop's stream (_stream_uniforms), and
# draws or PTRS rounds per block of the block sampler (poisson_stream).
# 2**13 already spreads a block's dispatch thinly (2**14 draws no faster)
# and holds half the temporary arrays of 2**14.
_BLOCK = 512
_STREAM_BLOCK = 1 << 13

# The counter layout of every block of a stream's counters, as offsets
# from the block's base state. State j of a block of uniforms is base +
# _STEPS[j] = base + j * GOLDEN; _uniforms steps it to counter j + 1, so
# the block's last state is the next block's base. State r of a block of
# PTRS rounds is base + _ROUNDS[:, r]: a contiguous row of u states over a
# contiguous row of v states, so round r reads its u at counter 2r + 1 and
# its v at 2r + 2, and the v row's last state is the next base. _uniforms
# steps its argument in place, so both tables are read-only. _ROUNDS is a
# copy (128 KB) rather than the strided view _STEPS.reshape(-1, 2).T: the
# view gives the same draws, but the block adds read from it run slower
# (poisson_sample at 150, 1e5 draws: 2.95 -> 3.03 ms; both study cases at
# 1000 lanes, T=200: 42.2 -> 44.2 ms; CPU medians of 16 alternating
# samples, one process, one BLAS thread, 2-core x86-64).
_STEPS = np.arange(2 * _STREAM_BLOCK, dtype=np.uint64) * _GOLDEN
_ROUNDS = np.ascontiguousarray(_STEPS.reshape(-1, 2).T)
_STEPS.flags.writeable = _ROUNDS.flags.writeable = False


def _stream_uniforms(key):
    """The uniforms of the stream with uint64 ``key``, in order, as Python
    floats: the k-th (k = 1, 2, ...) is mix64(key + k * GOLDEN)."""
    state = key + _STEPS[:_BLOCK]
    while True:
        yield from _uniforms(state).tolist()
        state += _STEPS[_BLOCK - 1]


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


class _Grown:
    """The first n rows of a read-only array ``make(size)``, made again at
    max(n, 2 size) rows when n is past its size; safe to share between
    threads."""

    def __init__(self, make):
        self.make = make
        self.table = make(0)

    def __call__(self, n):
        # One read of the table: a caller on another thread may replace it
        # meanwhile, and this call slices the table it checked.
        table = self.table
        if n > table.shape[0]:
            table = self.make(max(n, 2 * table.shape[0]))
            table.flags.writeable = False
            self.table = table
        return table[:n]


# The one log k! table of the package, read by every PTRS log test (lanes
# and blocks, on any thread): a large rate grows it once, not once per call.
# Its values are math.lgamma's (scipy's gammaln differs from it in the last
# bit on about half of its inputs).
_LOGFACT = _Grown(lambda size: np.array(
    [math.lgamma(i + 1.0) for i in range(min(size, _LOGFACT_CACHE))]))


def _log_factorials(k):
    # log k! = math.lgamma(k + 1) for an integer-valued float array k.
    top = int(k.max()) + 1
    if top > _LOGFACT_CACHE:
        return np.array([math.lgamma(v + 1.0) for v in k.tolist()])
    return _LOGFACT(top)[k.astype(np.intp)]


def _inversion(lam, u):
    # The sequential search's draw for each uniform of u at 0 < lam < 10
    # (a float, or one rate per uniform): the number of k < 200 with
    # u > F_k. F_k = F_{k-1} + p_k is summed by the scalar loop's operations
    # in its order, so F only grows and that count is where the search
    # stops; the sum ends once no uniform is past F. At one rate that is
    # once the largest uniform, read once, is not past F, so a term costs
    # two passes (compare, add) rather than three; at per-lane rates the
    # mask of each term is checked. Counts fit in uint8, whose adds cost a
    # quarter of int64's on a block.
    if isinstance(lam, np.ndarray):
        p = np.fromiter(map(math.exp, (-lam).tolist()), np.float64, lam.shape[0])
        f = p.copy()
        top = None
    else:
        p = f = math.exp(-lam)
        top = u.max()
    count = np.zeros(u.shape[0], dtype=np.uint8)
    for k in range(1, 201):
        if top is None:
            past = u > f
            if not past.any():
                break
        elif top > f:
            past = u > f
        else:
            break
        count += past
        p *= lam / k
        f += p
    return count


def _log_sides(k, lam, us, v, a, b, inv_alpha):
    # The two sides of the PTRS log test past the squeeze on cells with k >=
    # 0, at per-cell or shared constants, and the sum of the magnitudes of
    # their terms. There lv < 0 (v < 1), and li, lq (inv_alpha > 1 and b >
    # 8 at lam >= 10), t and lg are >= 0, so li - lv + lq + t + lam + lg is
    # |lv| + |li| + |lq| + |t| + lam + lg, summed in that order, bit for bit.
    # Each sum is made in place, in the order written.
    lv = np.log(v)
    li = np.log(inv_alpha)
    lq = us * us
    np.divide(a, lq, out=lq)
    lq += b
    np.log(lq, out=lq)
    t = np.log(lam)
    t *= k
    lg = _log_factorials(k)
    lhs = lv + li
    lhs -= lq
    rhs = t - lam
    rhs -= lg
    size = li - lv
    size += lq
    size += t
    size += lam
    size += lg
    return lhs, rhs, size


def _log_test(k, lam, us, v, a, b, inv_alpha):
    # PTRS acceptance test past the squeeze, at per-cell or shared constants.
    lhs, rhs, size = _log_sides(k, lam, us, v, a, b, inv_alpha)
    accept = lhs <= rhs
    tie = np.subtract(lhs, rhs, out=lhs)
    np.abs(tie, out=tie)
    size *= _TIE
    tie = (tie <= size).nonzero()[0].tolist()
    if tie:  # float constants as per-cell arrays, indexed like the lanes'
        lam, a, b, inv_alpha = np.broadcast_arrays(lam, a, b, inv_alpha, k)[:4]
    for i in tie:
        accept[i] = (
            math.log(v[i]) + math.log(inv_alpha[i]) - math.log(a[i] / (us[i] * us[i]) + b[i])
            <= k[i] * math.log(lam[i]) - lam[i] - math.lgamma(k[i] + 1.0)
        )
    return accept


def _rate_constants(lam, out):
    # PTRS constants a, b and v_r of each rate of lam, in place in the rows
    # of ``out`` (3, n): the scalar loop's operations in its order (each of
    # + and * is commutative bit for bit).
    a, b, v_r = out
    np.sqrt(lam, out=b)
    b *= 2.53
    b += 0.931
    np.multiply(b, 0.02483, out=a)
    a += -0.059
    np.subtract(b, 2.0, out=v_r)
    np.divide(3.6224, v_r, out=v_r)
    np.subtract(0.9277, v_r, out=v_r)
    return a, b, v_r


def _round_parts(w):
    # The rate-free half of the PTRS rounds whose uniforms are the rows
    # w[0] (u) and w[1] (v), in place of w[0]: u - 1/2, us = 1/2 - |u -
    # 1/2|, the squeeze's us >= 0.07 and the log test's gate (us >= 0.013)
    # | (v <= us).
    u, v = w[0], w[1]
    u -= 0.5
    us = np.abs(u)
    np.subtract(0.5, us, out=us)
    gate = us >= 0.013
    gate |= v <= us
    return u, us, v, us >= 0.07, gate


def _ptrs_round(u, us, v, fast, gate, lam, a, b, v_r):
    # One PTRS round on each cell of a row, from its _round_parts and at
    # (n,) constants, one per cell, or floats shared by every cell. Returns
    # the candidate k and the acceptance of every cell; the log test runs
    # only on the cells that the squeeze neither accepts nor rejects, and
    # inv_alpha is made for those cells alone.
    k = 2.0 * a / us
    k += b
    k *= u
    k += lam
    k += 0.43
    np.floor(k, out=k)
    accept = v <= v_r
    accept &= fast
    # The cells past the squeeze: k >= 0, gated, and not accepted (for
    # booleans, slow > accept is slow and not accept).
    slow = k >= 0.0
    slow &= gate
    np.greater(slow, accept, out=slow)
    slow = slow.nonzero()[0]
    if slow.size:
        if isinstance(lam, np.ndarray):
            lam, a, b = lam[slow], a[slow], b[slow]
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        accept[slow] = _log_test(k[slow], lam, us[slow], v[slow], a, b, inv_alpha)
    return k, accept


def _ptrs_attempt(lam, state):
    # One PTRS round on each lane at its rate lam[i] >= 10: the candidate k
    # and whether the round accepted it. The (2, n) grid holds the lanes'
    # u states over their v states, as a block of rounds does; the v state
    # is the state after the round, accepted or not.
    grid = state + _ROUNDS[:, :1]
    constants = _rate_constants(lam, np.empty((3, lam.shape[0])))
    k, accept = _ptrs_round(*_round_parts(_uniforms(grid)), lam, *constants)
    state[:] = grid[1]
    return k, accept


def _attempt(lam, state):
    # One draw attempt on each lane at its rate lam[i], from state[i],
    # which steps past the counters it reads: the draw and whether it was
    # made. A lane at lam <= 0 (only at nu = 0: no rate is below nu) draws
    # 0 and reads nothing, and one below 10 draws by inversion from one
    # uniform; one at 10 or more tries one PTRS round (_ptrs_attempt). When
    # every lane runs PTRS, state goes to it whole, with no gather or
    # scatter.
    if lam.min() >= 10.0:
        return _ptrs_attempt(lam, state)
    draw = np.zeros(lam.shape[0])
    accept = np.ones(lam.shape[0], dtype=bool)
    small = np.flatnonzero((lam > 0.0) & (lam < 10.0))
    if small.size:
        st = state[small]
        draw[small] = _inversion(lam[small], _uniforms(st))
        state[small] = st
    large = np.flatnonzero(lam >= 10.0)
    if large.size:
        st = state[large]
        draw[large], accept[large] = _ptrs_attempt(lam[large], st)
        state[large] = st
    return draw, accept


# Block sampler. At a constant rate a stream's draws are a fixed function
# of its uniforms: draw j of inversion reads counter j + 1 (_STEPS), and
# the PTRS draws are the k of the accepting rounds (_ROUNDS), in order. A
# block evaluates up to _STREAM_BLOCK draws or rounds at once with the
# lane engine's kernels, on a float rate (inversion) or float constants
# (PTRS).


def poisson_stream(lam, out, key):
    """Fill ``out`` with the first Poisson(lam) draws of the stream with
    uint64 ``key`` (a (1,) array, left as it is): bit for bit the draws of
    the scalar loop on that stream."""
    n_draws = out.shape[0]
    if lam <= 0.0:
        out[:] = 0
        return
    # The counter before the next block. Blocks shrink as draws are made,
    # so the first block's buffer holds the states of every block.
    base = key.copy()
    done = 0
    if lam < 10.0:
        buf = np.empty(min(_STREAM_BLOCK, n_draws), dtype=np.uint64)
        while done < n_draws:
            size = min(_STREAM_BLOCK, n_draws - done)
            state = np.add(base, _STEPS[:size], out=buf[:size])
            out[done : done + size] = _inversion(lam, _uniforms(state))
            base[:] = state[-1]
            done += size
        return
    # A round accepts with probability 0.75 at lam = 10, rising to 0.89 at
    # large lam: 4/3 rounds per draw still wanted mostly suffice, and a
    # short block is followed by another.
    a, b, v_r = (float(c[0]) for c in _rate_constants(np.array([lam]), np.empty((3, 1))))
    buf = np.empty(2 * min(_STREAM_BLOCK, n_draws + n_draws // 3 + 8), dtype=np.uint64)
    while done < n_draws:
        need = n_draws - done
        rounds = min(_STREAM_BLOCK, need + need // 3 + 8)
        state = np.add(base, _ROUNDS[:, :rounds], out=buf[: 2 * rounds].reshape(2, rounds))
        # The block's rounds as one round of ``rounds`` lanes at one rate:
        # every round is decided.
        k, accept = _ptrs_round(*_round_parts(_uniforms(state)), lam, a, b, v_r)
        got = k[accept][:need]
        out[done : done + got.size] = got
        base[:] = state[1, -1]
        done += got.size


# Passes of the lane engine between two moves of its history window.
_WINDOW_PASSES = 64
# Uniforms per block of the lane engine's block route: one _uniforms call
# makes the two uniforms of every lane for up to _PASS_BLOCK_VALUES // (2
# N) passes (4 at 1000 lanes), each a column of _ROUNDS, so it is at most
# 4 _STREAM_BLOCK. Of 2**11..2**15, 2**13 and 2**14 ran 1000 lanes of
# either study case fastest at T = 200; 2**15 ran slower.
_PASS_BLOCK_VALUES = 1 << 13


def sim_lanes(nu, kern, n_steps, cap, keys):
    """``sim_path`` on one lane per uint64 key: the one entry to the
    simulators, for any number of paths, n_steps >= 1.

    Returns the (n_steps, N) float64 counts, column i being sim_path's path
    on key i, and the 0-based step at which each lane overflowed (-1 for
    none): its intensity exceeded ``cap``. A lane's counts stay 0 from that
    step on. A single path runs ``sim_path``, or at a zero kernel the block
    sampler (``poisson_stream``); two or more run on the lane engine.

    Each lane keeps its own step. A pass makes one draw attempt on every
    lane at its rate; a lane whose PTRS round rejects tries again at the
    same rate on the next pass. So each lane reads the counters the scalar
    loop reads, with its arithmetic. The loop ends when every lane holds
    n_steps counts or has overflowed.

    Block route: at nu >= 10, every rate is at least nu, since the kernel
    and the counts are >= 0 and the rate sum adds only non-negative
    products to nu (rounding cannot take a sum of them below nu). So pass
    j of a block tries one PTRS round on every lane, at the block's
    counters 2j + 1 (u) and 2j + 2 (v) past its state. A block draws the
    uniforms of its passes in one call and makes their rate-free half
    (``_round_parts``) at once; each pass makes the rest of its round
    (``_ptrs_round``) at its rates. At nu < 10 every pass draws by
    ``_attempt``.

    A lane that overflows stops as a finished lane does, drawing on into a
    sink row; its kernel column is zeroed, so it draws at nu <= cap and is
    never flagged again. So no rate falls below nu, and nu alone fixes the
    route for the whole run.
    """
    n_lanes = keys.shape[0]
    # No lanes, or nu > cap: every lane overflows at step 0, no draw made.
    if not (n_lanes and nu <= cap):
        return np.zeros((n_steps, n_lanes)), np.zeros(n_lanes, dtype=np.int64)
    if n_lanes == 1:
        # One path: at a zero kernel its constant rate nu is the block
        # sampler's. numpy sums the lags of a single column pairwise, not
        # in the scalar order of the rate sum below, so any other kernel
        # runs the scalar loop.
        if kern.any():
            x, step = sim_path(nu, kern, n_steps, cap, keys)
        else:
            x, step = np.empty(n_steps), -1
            poisson_stream(nu, x, keys)
        return x[:, None], np.array([step], dtype=np.int64)
    # Row n_steps takes the draws of the lanes that have stopped: a lane
    # that has finished goes on drawing there, at the rates of its own
    # further counts, and one that has overflowed at nu <= cap.
    x = np.zeros((n_steps + 1, n_lanes), dtype=np.float64)
    overflow_at = np.full(n_lanes, -1, dtype=np.int64)
    state = np.array(keys, dtype=np.uint64)
    flat = x.reshape(-1)
    end = n_steps * n_lanes
    # The flat index into x of each lane's next count, and its last.
    cell = np.arange(n_lanes)
    last = cell + end
    overflowed = False
    # History window: the lags 1..klen of lane i at a pass are the column
    # win[top : top + klen, i], and the pass writes its draws into row top
    # - 1. A lane that rejects has its column moved down a row, so its lags
    # stay those of its step. Zeros before the path starts add +0.0 to the
    # rate, which leaves it as it is.
    klen = kern.shape[0]
    # The kernel repeated across the lanes: a multiply by its broadcast
    # (klen, 1) column took 1.7 times as long at 19 lags and 1000 lanes.
    weights = np.repeat(kern[:, None], n_lanes, axis=1)
    win = np.zeros((klen + _WINDOW_PASSES, n_lanes))
    top = _WINDOW_PASSES
    prod = np.empty((klen, n_lanes))
    lam = np.empty(n_lanes)
    # Block route: pass j of a block of ``rows`` passes is round j of a
    # block of rounds on every lane, the (2, rows, n) grid's states grid[0,
    # j] (u) and grid[1, j] (v), _ROUNDS[:, j] past the block's state;
    # after _uniforms, grid[1, j] is the state after pass j, and ``state``
    # is the state after the block. ``row`` passes of the block are made.
    blocked = nu >= 10.0
    if blocked:
        most = max(1, _PASS_BLOCK_VALUES // (2 * n_lanes))
        constants = np.empty((3, n_lanes))
    row = rows = 0
    n_pass = 0
    while True:
        if not top:
            win[_WINDOW_PASSES:] = win[:klen]
            top = _WINDOW_PASSES
        # The scalar order: nu first, then lag 1, 2, ... (a matmul would
        # reorder the sum and could flip draws).
        np.multiply(weights, win[top : top + klen], out=prod)
        np.add.reduce(prod, axis=0, out=lam, initial=nu)
        # The cap is checked only on the lanes still on their steps, and
        # only once some rate is over it (a NaN maximum counts as over).
        if not lam.max() <= cap:
            over = (cell < end) & ~(lam <= cap)
            if over.any():
                overflow_at[over] = cell[over] // n_lanes
                cell[over] = last[over]
                weights[:, over] = 0.0
                lam[over] = nu
                overflowed = True
        if blocked:
            if row == rows:
                # No block is longer than the passes the slowest lane still
                # needs at least, and none is empty (the last lanes on their
                # steps may all have overflowed on this pass).
                rows = max(1, min(most, n_steps - int(cell.min()) // n_lanes))
                grid = state + _ROUNDS[:, :rows, None]
                rounds = list(zip(*_round_parts(_uniforms(grid))))
                state = grid[1, -1]
                row = 0
            draw, accept = _ptrs_round(*rounds[row], lam, *_rate_constants(lam, constants))
            row += 1
        else:
            draw, accept = _attempt(lam, state)
        flat[cell] = draw
        cell += accept * n_lanes
        top -= 1
        win[top] = draw
        if klen and not accept.all():
            rejected = (~accept).nonzero()[0]
            column = win[top : top + klen + 1]
            column[:-1, rejected] = column[1:, rejected]
        # No lane stops before pass n_steps - 1 but by overflow.
        if n_pass >= n_steps - 1 or overflowed:
            np.minimum(cell, last, out=cell)
            if cell.min() >= end:
                break
        n_pass += 1
    return x[:n_steps], overflow_at


# Design systems. Every entry of a lane's (Y, b) is a partial sum of one
# lagged product of its counts x_0..x_{T-1}. With P_d(L) = sum_{t<L} x_t
# x_{t+d} and C(L) = sum_{t<L} x_t:
#   b[k] = P_k(T - k), b[0] = C(T)
#   Y[j, k] = P_|k-j|(T - max(j, k)) for j, k >= 1, Y[0, k] = C(T - k)
# so every sum needed runs to some L = h + r, h = T - p, r = 0..p, and the
# p + 1 products x_t x_{t+d} with their partial sums give (Y, b) in O(T p).
# Counts are integers: while every product and partial sum stays below
# 2**53 in magnitude, each sum is exact in any order, so a lane's (Y, b)
# is the same bit for bit however it is summed or grouped with other lanes.

# Lanes per chunk of design_build: bounds the lanes-first copy and the
# partial sums at _PRODUCT_CHUNK * (T + (p + 2) * (p + 1)) values.
_PRODUCT_CHUNK = 128


@functools.lru_cache(maxsize=None)
def _design_index(p):
    # Positions of Y's (m, m) and b's (m,) entries in a lane's row of
    # partial sums [P (m * m) | C (m)], where P[r, d] = P_d(h + r) and
    # C[r] = C(h + r). Y[0, 0] reads C(T) and is then set to 1.
    m = p + 1
    j, k = np.indices((m, m))
    top = np.maximum(j, k)
    y = np.where((j == 0) | (k == 0), m * m + p - top, (p - top) * m + np.abs(k - j))
    d = np.arange(1, m)
    b = np.concatenate(([m * m + p], (p - d) * m + d))
    y.flags.writeable = b.flags.writeable = False
    return y, b


def _lagged_design(x, p, y=None, b=None):
    # (Y, b) of each row of an (n, T) array of C-contiguous rows, written
    # into y (n, m, m) and b (n, m) when they are given. One lane's call is
    # a few microseconds of dispatch, so it calls ufunc methods (add.reduce,
    # add.accumulate) rather than their wrappers (sum, cumsum).
    n, n_steps = x.shape
    m = p + 1
    h = n_steps - p
    sums = np.zeros((n, m * m + m))
    prods = sums[:, : m * m].reshape(n, m, m)
    # Row 0 of P: P_d(h) for d = 0..p, from the lag view of x whose (d, t)
    # entry is x_{t+d}, t < h (built on x's buffer directly: as_strided
    # adds about 5 us, a sixth of a short lane's build), contracted with
    # x[:h] over t by one vecdot: each P_d(h) is one dot product, an exact
    # integer sum as the module docstring states, so its order is free.
    step = x.strides[1]
    lags = np.ndarray((n, m, h), x.dtype, x, 0, (x.strides[0], step, step))
    np.vecdot(x[:, None, :h], lags, out=prods[:, 0])
    # Rows 1..p of P: the products of the tail u = x[h:], as its (p, p)
    # outer product written right after row 0. Read in rows of p + 1,
    # row 1 + r holds u_r u_{r+d} at column d wherever r + d < p; its other
    # entries are other tail products (and P[p, p] stays 0). The running
    # sum down the rows carries those only into sums with r + d > p, which
    # no entry of (Y, b) reads.
    tail = x[:, h:]
    np.multiply(tail[:, :, None], tail[:, None, :],
                out=sums[:, m : m + p * p].reshape(n, p, p))
    np.add.accumulate(prods, axis=1, out=prods)
    pre = sums[:, m * m :]
    np.add.reduce(x[:, :h], axis=1, out=pre[:, 0])
    pre[:, 1:] = tail
    np.add.accumulate(pre, axis=1, out=pre)
    sums /= n_steps
    # Every index is in range: mode "clip" only spares take the buffered
    # copy it makes of a given out in its default mode.
    iy, ib = _design_index(p)
    y = sums.take(iy, axis=1, out=y, mode="clip")
    y[:, 0, 0] = 1.0
    return y, sums.take(ib, axis=1, out=b, mode="clip")


def design_build(x, p):
    """Design matrices Y (N, p+1, p+1) and moment vectors b (N, p+1),
    both C-contiguous, of the columns of a (T, N) count array, p < T."""
    n_steps, n_lanes = x.shape
    # One chunk fills no output buffers; one lane's x.T is its path, as is.
    if n_lanes <= _PRODUCT_CHUNK:
        return _lagged_design(np.ascontiguousarray(x.T), p)
    m = p + 1
    y = np.empty((n_lanes, m, m), dtype=np.float64)
    b = np.empty((n_lanes, m), dtype=np.float64)
    for start in range(0, n_lanes, _PRODUCT_CHUNK):
        lanes = slice(start, start + _PRODUCT_CHUNK)
        _lagged_design(np.ascontiguousarray(x[:, lanes].T), p, y[lanes], b[lanes])
    return y, b


# The column of ones of K_hat at p = 0, for every T and thread.
_ONES = _Grown(lambda size: np.ones((size, 1)))

# Lanes per chunk of score_variance (one at least): bounds its (lanes, T,
# m) lag tensor and the weighted copy of it at _LAG_VALUES values each, a
# size that stays in cache. Chunks of 2**20 values made K_hat of 1000 lanes
# 10-20% slower at T = 200 and 1000, p = 10..60.
_LAG_VALUES = 1 << 16


def score_variance(x, theta):
    """Score-variance plug-ins K_hat = (4/T) sum z_n z_n' (x_n - phi_n)^2,
    (N, m, m), of the columns of a (T, N) count array, column j at row j
    of the (N, m) theta = (mu, beta_1..beta_p), from their lag matrices.
    Each lane's BLAS calls are those of a one-lane stack, so its K_hat does
    not depend on the other lanes; a lane with a NaN theta gets a NaN
    K_hat."""
    n_steps, n_lanes = x.shape
    m = theta.shape[1]
    chunk = _LAG_VALUES // (n_steps * m) or 1
    if n_lanes > chunk:
        k_hat = np.empty((n_lanes, m, m))
        for start in range(0, n_lanes, chunk):
            lanes = slice(start, start + chunk)
            k_hat[lanes] = score_variance(x[:, lanes], theta[lanes])
        return k_hat
    x = x.T
    p = m - 1
    if not p:
        # z_n = (1), so phi_n = mu exactly and K_hat needs no lag matrix:
        # the squared residual, written into a fresh C-contiguous (N, T, 1)
        # array (a broadcast result would take x.T's layout, which BLAS
        # rounds differently), summed by the lag-matrix route's BLAS call
        # against a column of ones, one column for all lanes (matmul calls
        # BLAS on each lane's operands alone). The column is the first T
        # rows of _ONES, C-contiguous as a fresh one: no T-float allocation
        # and its page faults per call.
        resid = np.empty((n_lanes, n_steps, 1))
        np.subtract(theta[:, None, :], x[..., None], out=resid)
        resid *= resid
        k_hat = resid.mT @ _ONES(n_steps)
    else:
        # Lane i's lag matrix: row t is z_t = (1, x_{t-1}, ..., x_{t-p}), 0
        # before the path starts. Columns 1..p are one copy of a view of
        # the path padded with p zeros, whose (t, j) entry is padded[p - 1
        # + t - j] = x_{t-1-j} (on padded's buffer, no as_strided, as in
        # _lagged_design). Each lane is C-contiguous: the residual is not
        # an integer sum, and BLAS rounds it by the operand layout.
        lags = np.empty((n_lanes, n_steps, m))
        lags[..., 0] = 1.0
        padded = np.zeros((n_lanes, p + n_steps))
        padded[:, p:] = x
        step = padded.itemsize
        lags[..., 1:] = np.ndarray((n_lanes, n_steps, p), padded.dtype, padded,
                                   (p - 1) * step, (padded.strides[0], step, -step))
        # The squared residual in place: at T = 1e5 each (T,) temporary is
        # 0.8 MB at the peak of a sandwich. (phi_n - x_n)^2 is (x_n -
        # phi_n)^2 bit for bit.
        resid = lags @ theta[..., None]
        resid -= x[..., None]
        resid *= resid
        k_hat = (lags * resid).mT @ lags
    k_hat = k_hat + k_hat.mT
    k_hat *= 0.5
    k_hat *= 4.0 / n_steps
    return k_hat


# Stacked CLS solve. Each lane goes through the same checks in the same
# order, and the batched LAPACK and BLAS calls treat every slice on its
# own, so a lane's estimate and status do not depend on the other lanes.

RCOND_THRESHOLD = 1e-12
# Factor by which the Frobenius bound must clear RCOND_THRESHOLD to decide
# a lane without eigh. The bound is taken from the rounded inverse, whose
# relative error near the threshold is about 1e12 * 2**-52 < 1e-3, far
# inside this factor; a lane that does not clear it is decided by eigh.
_BOUND_MARGIN = 2.0

# Per-lane outcome of cls_solve.
FIT_OK = 0
FIT_NONFINITE = 1  # Y or b has a non-finite entry
FIT_RCOND = 2  # reciprocal condition below RCOND_THRESHOLD
FIT_RESIDUAL = 3  # non-finite estimate or residual above its bound


class LaneFits(NamedTuple):
    theta: np.ndarray  # (N, m); NaN rows where status != FIT_OK
    status: np.ndarray  # (N,) int8 FIT_* code
    rcond: np.ndarray  # (N,) of inverse_rcond; NaN where FIT_NONFINITE
    resid: np.ndarray  # (N,) l2 norm of Y theta - b; NaN where FIT_NONFINITE or FIT_RCOND
    inv: np.ndarray  # (N, m, m) Y^-1; NaN where FIT_NONFINITE or Y is exactly singular


def eigh_rcond(y):
    """Reciprocal condition min|w| / max|w| (0 for a zero matrix) of each
    symmetric matrix of a (..., m, m) stack, from its eigenvalues w."""
    size = np.abs(np.linalg.eigh(y)[0])
    top = size.max(axis=-1)
    rc = np.zeros_like(top)
    np.divide(size.min(axis=-1), top, out=rc, where=top != 0.0)
    return rc


def _inverses(y):
    # Y^-1 of each lane of a (N, m, m) stack from one batched LU. That call
    # raises for the whole stack when LAPACK finds any lane exactly
    # singular; the lanes are then inverted one at a time, and a singular
    # lane's inverse is NaN.
    try:
        return np.linalg.inv(y)
    except np.linalg.LinAlgError:
        g = np.full_like(y, np.nan)
        for j in range(y.shape[0]):
            try:
                g[j] = np.linalg.inv(y[j])
            except np.linalg.LinAlgError:
                pass
        return g


def inverse_rcond(y):
    """Inverse G = Y^-1 (NaN where LAPACK finds Y exactly singular) and
    reciprocal condition of each symmetric matrix of a (N, m, m) stack.

    The condition is 1 / (|Y|_F |G|_F), a lower bound on ``eigh_rcond``'s
    min|w| / max|w| = 1 / (|Y|_2 |G|_2), on every lane where that bound
    clears RCOND_THRESHOLD by _BOUND_MARGIN. Every other lane gets
    ``eigh_rcond``'s ratio, so a lane falls below the threshold exactly
    when that ratio does. Scaling Y by 2 scales G by 1/2 and leaves the
    condition as it is, bit for bit. It sets no ``np.errstate``: a zero,
    singular or huge Y divides by zero or overflows in the bound, so its
    callers (``cls_solve``, ``inar.sandwich_covariance``) ignore those."""
    g = _inverses(y)
    # |Y|_F^2 and |G|_F^2 as one vecdot of each lane's flattened matrix;
    # the shape is spelled out, as -1 is ambiguous for a stack of no lanes.
    n, m = y.shape[:2]
    flat_y, flat_g = y.reshape(n, m * m), g.reshape(n, m * m)
    rc = 1.0 / np.sqrt(np.vecdot(flat_y, flat_y) * np.vecdot(flat_g, flat_g))
    screened = rc >= RCOND_THRESHOLD * _BOUND_MARGIN  # and not NaN
    if not screened.all():
        rest = np.flatnonzero(~screened)
        rc[rest] = eigh_rcond(y[rest])
    return g, rc


def _long_product(y, x):
    # y.astype(np.longdouble) @ x bit for bit, for (..., m, m) y and (...,
    # m, k) x. numpy's long double matmul has no BLAS and stores every
    # partial sum to memory; vecdot of y's rows with x's columns adds the
    # same products in the same order from 0 with the sum in a register:
    # about 2.5x faster at m = 61, about 1 us slower per call at m <= 5.
    return np.vecdot(y.astype(np.longdouble)[..., :, None, :], x.mT[..., None, :, :])


def inverse_solve(y, g, r):
    """Y^-1 r for (..., m, k) right-hand sides r, given G = Y^-1 from
    ``inverse_rcond``: G r plus one iterative-refinement step with G."""
    x = g @ r
    # The residual is formed in extended precision where the platform has
    # it (x86 long double): the step then lands within about one rounding
    # of the exact solution, not within 1/rcond roundings.
    x += g @ (r - _long_product(y, x)).astype(np.float64)
    return x


def sandwich_solve(j, g, k):
    """Sigma = J^-1 K J^-1 of each lane of (N, m, m) stacks J, K, given
    G = J^-1 from ``inverse_rcond``: two ``inverse_solve``s, symmetrised."""
    half = inverse_solve(j, g, k)
    sigma = inverse_solve(j, g, half.mT)
    return (sigma + sigma.mT) * 0.5


def cls_solve(y, b):
    """Solve Y theta = b for each lane of a (N, m, m), (N, m) stack from
    one inverse of each lane's Y (one batched LU factorisation): it
    screens the reciprocal condition (``inverse_rcond``), gives the
    solution and one iterative-refinement step. Every lane takes the same
    pass, and the lanes that fail a check are masked at the end: theta is
    NaN on each of them, resid on FIT_RCOND and FIT_NONFINITE lanes, rcond
    and inv on FIT_NONFINITE lanes. While every lane passes, the returned
    inverses are ``inv``'s own array. The results do not depend on the
    layout of y and b: BLAS rounds by operand layout, so both are taken
    C-contiguous (``design_build``'s already are)."""
    y, b = np.ascontiguousarray(y), np.ascontiguousarray(b)[:, :, None]
    # One screen of the whole stack; the per-lane mask is built only when
    # it fails. While it passes, finite is the scalar True, which masks as
    # a mask of all lanes would (indexing by ~finite selects none).
    finite = np.True_
    if not (np.isfinite(y).all() and np.isfinite(b).all()):
        finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
        # Such a lane solves the identity system instead, so that no NaN
        # or inf reaches LAPACK; its results are masked below.
        y = np.where(finite[:, None, None], y, np.eye(y.shape[-1]))
    # A failed lane may divide by zero, overflow or make NaN on its way to
    # the mask.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g, rc = inverse_rcond(y)
        theta = inverse_solve(y, g, b)
        # The Frobenius norms of numpy.linalg.norm, without its wrapper.
        r = y @ theta - b
        resid = np.sqrt(np.add.reduce(r * r, axis=(1, 2)))
        bound = 1e-8 * np.maximum(1.0, np.sqrt(np.add.reduce(b * b, axis=(1, 2))))
    conditioned = finite & (rc >= RCOND_THRESHOLD)
    # A finite lane whose theta is not finite has NaN or inf in r, so it
    # fails resid <= bound and is FIT_RESIDUAL: an overflowed solution
    # comes out of the refinement step NaN, and its resid is NaN.
    good = conditioned & (resid <= bound)
    status = np.zeros(good.shape, dtype=np.int8)
    if not good.all():
        status[~good] = FIT_RESIDUAL
        status[~conditioned] = FIT_RCOND
        status[~finite] = FIT_NONFINITE
        theta[~good] = np.nan
        resid[~conditioned] = np.nan
        rc[~finite] = np.nan
        g[~finite] = np.nan
    return LaneFits(theta[:, :, 0], status, rc, resid, g)
