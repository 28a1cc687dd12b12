"""Reproducible simulation of cumulative INAR sample paths.

Randomness is counter-style: an :class:`RngStream` is an immutable
(seed, stream_id) pair, and every sampling function reads the stream from
its key afresh, so calls are pure and replication i of a Monte Carlo run
draws the same path whether it runs alone (:func:`simulate_path`) or in
lockstep with other replications (:func:`simulate_lanes`).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .errors import InvalidRate, NonStationaryKernel, Overflow
from .model import ModelParams, validate_params

__all__ = [
    "RngStream",
    "CountPath",
    "poisson_sample",
    "simulate_path",
    "simulate_lanes",
    "write_path_csv",
    "read_path_csv",
]

DEFAULT_LAMBDA_CAP = 1e9


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for one reproducible stream of randomness.

    Identical (seed, stream_id) pairs reproduce identical draw sequences
    bit for bit.
    """

    seed: int
    stream_id: int = 0

    def state(self) -> np.ndarray:
        """This stream's generator key, a (1,) uint64 array nothing mutates."""
        return _k.stream_keys(self.seed, [self.stream_id])

    def substream(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


@dataclass(frozen=True)
class CountPath:
    """One realization X_1..X_T with its generation provenance."""

    counts: np.ndarray = field(repr=False)
    seed: int = 0
    stream_id: int = 0
    params_digest: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.counts, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return self.counts.shape[0]

    def counts_float(self) -> np.ndarray:
        return self.counts.astype(np.float64)


def poisson_sample(lam: float, rng: RngStream, size: int | None = None):
    """Exact Poisson(lam) draws from the given stream.

    With ``size=None`` returns the stream's first variate as an int;
    otherwise the first ``size`` variates as an int64 array. Inversion by
    sequential search below lam=10, transformed rejection above.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidRate(f"rate must be finite and >= 0, got {lam}")
    n = 1 if size is None else int(size)
    if n < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    out = np.empty(n, dtype=np.int64)
    _k.fill_poisson(lam, out, rng.state())
    return int(out[0]) if size is None else out


def _check_inputs(params: ModelParams, T, lam_cap) -> int:
    T = int(T)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not math.isfinite(lam_cap):
        raise ValueError(f"lambda_cap must be finite, got {lam_cap}")
    report = validate_params(params)
    if not report.finite:
        raise NonStationaryKernel("nu and all kernel entries must be finite")
    if not report.nonnegative:
        raise NonStationaryKernel("nu and all kernel entries must be >= 0")
    if not report.stationary:
        raise NonStationaryKernel(
            f"kernel has l1 norm {report.norm_l1:.6g} >= 1"
        )
    return T


def simulate_path(
    params: ModelParams,
    T: int,
    rng: RngStream,
    lam_cap: float = DEFAULT_LAMBDA_CAP,
) -> CountPath:
    """Simulate X_1..X_T: X_1 ~ Poisson(nu), then each X_n is Poisson with
    intensity nu plus the kernel-weighted recent counts.

    Raises :class:`Overflow` if any intensity, nu included, exceeds
    ``lam_cap`` (runaway, near-critical configurations) and
    :class:`NonStationaryKernel` if the parameters fail validation.
    """
    T = _check_inputs(params, T, lam_cap)
    kern = params.kernel_array()
    x, overflow_at = _k.sim_path(params.nu, kern, T, float(lam_cap), rng.state())
    if overflow_at >= 0:
        raise Overflow(
            f"intensity exceeded cap {lam_cap:g} at step {overflow_at + 1}"
        )
    return CountPath(
        counts=x.astype(np.int64),
        seed=rng.seed,
        stream_id=rng.stream_id,
        params_digest=params.digest(),
    )


def simulate_lanes(
    params: ModelParams,
    T: int,
    seed: int,
    stream_ids,
    lam_cap: float = DEFAULT_LAMBDA_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the paths of the streams (seed, i), i in ``stream_ids``,
    all advancing one step together.

    Returns a (T, N) float64 count array and an (N,) int64 array of the
    0-based step at which each lane's intensity exceeded ``lam_cap`` (-1
    where it never did). Column j equals the counts of
    ``simulate_path(params, T, RngStream(seed, stream_ids[j]), lam_cap)``
    bit for bit; an overflowed column is zero from its overflow step on.
    A step costs numpy dispatch however few the lanes, so a single stream
    is faster through :func:`simulate_path`.
    """
    T = _check_inputs(params, T, lam_cap)
    keys = _k.stream_keys(seed, stream_ids)
    return _k.sim_lanes(params.nu, params.kernel_array(), T, float(lam_cap), keys)


def write_path_csv(path: CountPath, file) -> None:
    """Write a path as CSV with header ``n,x``, one row per step, 1-based n."""
    own = isinstance(file, (str, os.PathLike))
    fh = open(file, "w", newline="") if own else file
    try:
        writer = csv.writer(fh)
        writer.writerow(["n", "x"])
        for n, xn in enumerate(path.counts, start=1):
            writer.writerow([n, int(xn)])
    finally:
        if own:
            fh.close()


def read_path_csv(file) -> CountPath:
    """Read a path written by :func:`write_path_csv`; counts round-trip
    exactly (generation provenance is not stored in the CSV). Steps n
    must run 1, 2, 3, ... without gaps or repeats."""
    own = isinstance(file, (str, os.PathLike))
    fh = open(file, "r", newline="") if own else file
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["n", "x"]:
            raise ValueError("path CSV must start with header 'n,x'")
        counts = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(
                    f"path CSV line {reader.line_num}: expected 2 fields 'n,x', got {row!r}"
                )
            step = len(counts) + 1
            if row[0].strip() != str(step):
                raise ValueError(
                    f"path CSV line {reader.line_num}: step n={row[0]!r}, expected n={step}"
                )
            try:
                counts.append(int(row[1]))
            except ValueError:
                raise ValueError(
                    f"path CSV line {reader.line_num}: count {row[1]!r} is not an integer"
                ) from None
            if not -(1 << 63) <= counts[-1] < 1 << 63:
                raise ValueError(
                    f"path CSV line {reader.line_num}: count {row[1]!r} does not fit in int64"
                )
    finally:
        if own:
            fh.close()
    return CountPath(counts=np.asarray(counts, dtype=np.int64))
