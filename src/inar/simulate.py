"""Reproducible simulation of cumulative INAR sample paths, and the one
CSV writer and checked CSV reader of every table the package reads or writes.

Randomness is counter-style: an :class:`RngStream` is an immutable
(seed, stream_id) pair, and every sampling function reads the stream from
its key afresh, so calls are pure and replication i of a Monte Carlo run
draws the same path whether it runs alone (:func:`simulate_path`) or
beside other replications (:func:`simulate_lanes`).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .errors import InvalidRate, Overflow
from .model import (ModelParams, _adopt, _as_float, _as_size, _freeze_copies, _require_valid,
                    _sealed)

__all__ = [
    "RngStream",
    "CountPath",
    "poisson_sample",
    "simulate_path",
    "simulate_lanes",
    "write_path_csv",
    "read_path_csv",
    "write_samples_csv",
    "read_samples_csv",
]

DEFAULT_LAMBDA_CAP = 1e9
# Counts are int64: every route draws at rates of at most min(lam_cap,
# _LARGEST_RATE), where no draw reaches 2**63 (PTRS's squeeze accepts only
# k <= lam + 1.9 sqrt(lam) + 1, its float64 log test rejects every k farther
# than about 1e12 from lam, and inversion stops below 200).
_MAX_RATE = 2.0 ** 62
_LARGEST_RATE = math.nextafter(_MAX_RATE, 0.0)


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for one reproducible stream of randomness.

    Identical (seed, stream_id) pairs reproduce identical draw sequences
    bit for bit.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Integers, by operator.index: a float is refused, not truncated.
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _as_size(getattr(self, name), name))

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
        _freeze_copies(self, "counts", dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.shape[0] < 1:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if self.counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _as_size(getattr(self, name), name))
        object.__setattr__(self, "_floats", _sealed(self.counts.astype(np.float64)))

    def __len__(self) -> int:
        return self.counts.shape[0]

    def counts_float(self) -> np.ndarray:
        """The counts as float64, one read-only array made with the path and
        shared by every caller (a fit and its sandwich know their path by
        it). Not a field, so repr and replace ignore it; it and ``counts``
        stay read-only, so it never goes stale."""
        return self._floats


def poisson_sample(lam: float, rng: RngStream, size: int | None = None):
    """Exact Poisson(lam) draws from the given stream.

    With ``size=None`` returns the stream's first variate as an int;
    otherwise the first ``size`` variates as an int64 array. Inversion
    below lam=10 (the sequential search's draw: the count of its CDF sums
    that each uniform exceeds); transformed rejection above. The draws are
    made in numpy blocks of up to 2**13 draws or rejection rounds, bit for
    bit those of the one-at-a-time scalar loop. Rates at or above 2**62
    raise :class:`InvalidRate`: their draws may not fit in int64.
    """
    lam = _as_float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise InvalidRate(f"rate must be finite and >= 0, got {lam}")
    if lam >= _MAX_RATE:
        raise InvalidRate(f"rate must be below 2**62 for int64 draws, got {lam:g}")
    n = 1 if size is None else _as_size(size, "size", 0)
    out = np.empty(n, dtype=np.int64)
    _k.poisson_stream(lam, out, rng.state())
    return int(out[0]) if size is None else out


def _check_inputs(params: ModelParams, T, lam_cap) -> tuple[int, float]:
    # T, checked, and the rate bound min(lam_cap, _LARGEST_RATE): a path
    # stops as an intensity overflow at its first rate above it.
    T = _as_size(T, "T", 1)
    lam_cap = _as_float(lam_cap)
    if not math.isfinite(lam_cap):
        raise ValueError(f"lambda_cap must be finite, got {lam_cap}")
    if not lam_cap > 0.0:
        raise ValueError(f"lambda_cap must be > 0, got {lam_cap}")
    _require_valid(params)
    return T, min(lam_cap, _LARGEST_RATE)


def simulate_path(
    params: ModelParams,
    T: int,
    rng: RngStream,
    lam_cap: float = DEFAULT_LAMBDA_CAP,
) -> CountPath:
    """Simulate X_1..X_T: X_1 ~ Poisson(nu), then each X_n is Poisson with
    intensity nu plus the kernel-weighted recent counts.

    Raises :class:`Overflow` if any intensity, nu included, exceeds
    ``lam_cap`` (runaway, near-critical configurations) or reaches 2**62,
    whose draws may not fit in int64, and :class:`NonStationaryKernel` if
    the parameters fail validation.

    It is :func:`simulate_lanes` on its one stream. A path whose kernel
    is zero has the constant rate nu: its counts are
    :func:`poisson_sample`'s draws, made in numpy blocks. Any other path is
    simulated one step at a time in plain Python.
    """
    T, cap = _check_inputs(params, T, lam_cap)
    x, (step,) = _k.sim_lanes(params.nu, params.kernel_array(), T, cap, rng.state())
    if step >= 0:
        raise Overflow(f"intensity exceeded cap {cap:g} at step {step + 1}")
    # x, the counts as float64 (integers: counts.astype(np.float64) bit for
    # bit), is held by nothing else, so it becomes the path's float view.
    x = x[:, 0]
    return _adopt(CountPath, counts=x.astype(np.int64), seed=rng.seed,
                  stream_id=rng.stream_id, params_digest=params.digest(), _floats=x)


def simulate_lanes(
    params: ModelParams,
    T: int,
    seed: int,
    stream_ids,
    lam_cap: float = DEFAULT_LAMBDA_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the paths of the streams (seed, i), i in ``stream_ids``,
    together, each lane on its own step.

    Returns a (T, N) float64 count array and an (N,) int64 array of the
    0-based step at which each lane overflowed (-1 where it never did):
    its intensity exceeded ``lam_cap`` or reached 2**62, the step
    :func:`simulate_path` names in its :class:`Overflow`. Column j
    equals the counts of
    ``simulate_path(params, T, RngStream(seed, stream_ids[j]), lam_cap)``
    bit for bit; an overflowed column is zero from its overflow step on.
    Seeds and stream ids are integers (a float raises ``TypeError``) and
    wrap modulo 2**64. It is the one entry to the simulators for any
    number of streams: a single stream takes the route
    :func:`simulate_path` takes, two or more run on the lane engine.
    """
    T, cap = _check_inputs(params, T, lam_cap)
    keys = _k.stream_keys(seed, stream_ids)
    return _k.sim_lanes(params.nu, params.kernel_array(), T, cap, keys)


def _csv_column(values) -> list[str]:
    """The CSV field of each entry of a 1-d numeric array: the repr of its
    Python value (for a float, the shortest text that round-trips), the
    text ``csv.writer`` writes for it."""
    return list(map(repr, values.tolist()))


# Rows rendered per write: a long path is written without holding all of
# its text at once, and every table of a study is one block.
_CSV_BLOCK_ROWS = 1 << 14


def _opened(file, mode: str):
    """A path opened as text without newline translation, or an open text
    file as is, for a ``with`` block that closes only what it opened."""
    if isinstance(file, (str, os.PathLike)):
        return open(file, mode, newline="")
    return contextlib.nullcontext(file)


def _write_csv(file, header: list[str], columns) -> None:
    """Write CSV to a path or an open text file: the header row, then one
    row per entry of the columns, equal-length 1-d numeric arrays or lists
    of their field text from :func:`_csv_column` (for a column several
    files share). Each block of rows is rendered a column at a time and
    written at once. The bytes are ``csv.writer``'s: fields joined by
    commas, each row ended by CRLF, and no field quoted, since neither the
    header names nor numbers hold a comma, a quote or a line break."""
    with _opened(file, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [col[start : start + _CSV_BLOCK_ROWS] for col in columns]
            text = [b if isinstance(b, list) else _csv_column(b) for b in block]
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def _read_csv(file, what: str, header_ok, header_hint: str, parse_row):
    """Read CSV from a path or an open text file, checked: the header row
    must pass ``header_ok``, blank rows are skipped, and every other row
    must have the header's width. Returns the header and the list of
    ``parse_row(i, row)`` of the i-th data row, i = 1, 2, ... Every error
    is a ValueError: a wrong header names ``header_hint``; a row of the
    wrong width, a ValueError of ``parse_row`` and text the csv module
    cannot split (a field beyond its size limit) name the line."""
    values = []
    with _opened(file, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            good = header_ok(header)
            for row in filter(None, reader) if good else ():
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                values.append(parse_row(len(values) + 1, row))
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{what} CSV line {reader.line_num}: {exc}") from None
    if not good:
        raise ValueError(f"{what} CSV must start with header {header_hint!r}")
    return header, values


def write_path_csv(path: CountPath, file) -> None:
    """Write a path as CSV with header ``n,x``, one row per step, 1-based n."""
    _write_csv(file, ["n", "x"], [np.arange(1, len(path) + 1), path.counts])


def _path_row(step: int, row: list[str]) -> int:
    if row[0].strip() != str(step):
        raise ValueError(f"step n={row[0]!r}, expected n={step}")
    # Digits only: int() would also take signs, spaces and "1_0".
    if not (row[1].isascii() and row[1].isdigit()):
        raise ValueError(f"count {row[1]!r} is not an integer (digits 0-9 only)")
    digits = row[1].lstrip("0") or "0"
    if len(digits) > 19 or int(digits) >= 1 << 63:
        raise ValueError(f"count {row[1]!r} does not fit in int64")
    return int(digits)


def read_path_csv(file) -> CountPath:
    """Read a path written by :func:`write_path_csv`; counts round-trip
    exactly (generation provenance is not stored in the CSV). Steps n
    must run 1, 2, 3, ... without gaps or repeats, and counts are written
    in digits 0-9 only."""
    _, counts = _read_csv(file, "path", lambda h: [x.strip() for x in h] == ["n", "x"],
                          "n,x", _path_row)
    return CountPath(counts=counts)


# A sample value: the text repr gives a float, optionally signed.
_SAMPLE_TEXT = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def _sample_row(_: int, row: list[str]) -> list[float]:
    if not (row[0].isascii() and row[0].isdigit()):
        raise ValueError(f"rep {row[0]!r} is not an integer (digits 0-9 only)")
    for text in row[1:]:
        if not (_SAMPLE_TEXT.fullmatch(text) and math.isfinite(float(text))):
            raise ValueError(f"value {text!r} is not a finite number")
    return [float(text) for text in row[1:]]


def write_samples_csv(file, labels: list[str], rep_ids, samples) -> None:
    """Write the ``samples.csv`` of ``inar mc``: header ``rep,<label>,...``,
    then one row per replication, its id from ``rep_ids`` and its row of
    the (rows, labels) ``samples``."""
    _write_csv(file, ["rep", *labels], [rep_ids, *samples.T])


def read_samples_csv(file) -> tuple[list[str], np.ndarray]:
    """Read the samples CSV of :func:`write_samples_csv`: header
    ``rep,<label>,...``, then one row per replication, its id in digits 0-9
    and its finite estimates. Returns the labels and the (rows, labels)
    float64 samples."""
    header, rows = _read_csv(file, "samples", lambda h: h[:1] == ["rep"],
                             "rep,mu_hat,...", _sample_row)
    if not rows:
        raise ValueError("samples CSV contains no data rows")
    return header[1:], np.asarray(rows, dtype=np.float64)
