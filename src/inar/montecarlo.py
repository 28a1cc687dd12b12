"""Monte Carlo studies: replicate simulate-estimate, aggregate error
metrics, and feed the normality diagnostics.

Replication i always uses stream_id = i of the base seed, so results are
bit-identical for any replication subset, and each replication can be
reproduced alone with :func:`inar.simulate.simulate_path`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllReplicationsFailed, DimensionMismatch
from .estimate import fit_lanes
from .inference import NormalityReport, histogram_data, normality_report, qq_data
from .model import ModelParams, _as_size, _freeze_copies
from .simulate import DEFAULT_LAMBDA_CAP, _check_inputs, simulate_lanes

__all__ = [
    "McConfig",
    "McSummary",
    "ComponentDiagnostics",
    "component_label",
    "truth_vector",
    "run_experiment",
    "summarize",
    "normality_suite",
]


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment: truth, horizon, lag order, replications."""

    params: ModelParams
    T: int
    p: int
    n_experiments: int
    base_seed: int
    cap_negatives: bool = True
    lam_cap: float = DEFAULT_LAMBDA_CAP
    case: str | None = None

    def __post_init__(self):
        for name in ("T", "p", "n_experiments"):
            object.__setattr__(self, name, _as_size(getattr(self, name), name))
        if self.n_experiments < 1:
            raise ValueError("n_experiments must be >= 1")
        if not 0 <= self.p <= self.T - 1:
            raise ValueError(f"need 0 <= p <= T-1, got p={self.p}, T={self.T}")
        _check_inputs(self.params, self.T, self.lam_cap)


@dataclass(frozen=True)
class McSummary:
    """Aggregates over successful replications.

    ``per_component_samples`` holds the raw estimates (one row per
    successful replication); capping, when enabled, is applied only inside
    the MSE. ``mean_theta`` and the relative errors are computed from the
    raw samples, matching how the study tables report signed means.
    """

    mean_theta: np.ndarray = field(repr=False)
    mse: float
    rel_err_theta: float
    rel_err_alpha: float
    per_component_samples: np.ndarray = field(repr=False)
    truth: np.ndarray = field(repr=False)
    cap_negatives: bool = True
    failures: int = 0
    rep_ids: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _freeze_copies(self, "mean_theta", "per_component_samples", "truth")
        if self.rep_ids is None:
            object.__setattr__(self, "rep_ids", np.arange(1, self.n_success + 1))
        _freeze_copies(self, "rep_ids", dtype=np.int64)

    @property
    def n_success(self) -> int:
        return self.per_component_samples.shape[0]


@dataclass(frozen=True)
class ComponentDiagnostics:
    """Normality report plus plot-ready Q-Q and histogram data for one
    estimator component."""

    label: str
    report: NormalityReport
    qq_z: np.ndarray = field(repr=False)
    qq_value: np.ndarray = field(repr=False)
    hist_left: np.ndarray = field(repr=False)
    hist_right: np.ndarray = field(repr=False)
    hist_count: np.ndarray = field(repr=False)


def component_label(j: int) -> str:
    """Estimator-side component names: mu_hat, beta_1, beta_2, ..."""
    return "mu_hat" if j == 0 else f"beta_{j}"


def truth_vector(params: ModelParams, p: int) -> np.ndarray:
    """Truth s = (nu, alpha_1..alpha_p), zero-padded or truncated to p lags."""
    out = np.zeros(p + 1, dtype=np.float64)
    out[0] = params.nu
    use = min(p, len(params.kernel))
    if use:
        out[1 : use + 1] = params.kernel[:use]
    return out


def _rel_err(num: float, denom: float) -> float:
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def summarize(
    estimates, truth, cap_negatives: bool = True, *, failures: int = 0, rep_ids=None
) -> McSummary:
    """Aggregate raw estimates against the truth vector.

    MSE averages the squared l2 distance per replication, with negative
    reproduction coefficients clamped to zero first when ``cap_negatives``
    (they estimate nonnegative quantities); the raw samples and their mean
    are preserved unchanged. ``failures`` and ``rep_ids`` go into the
    record as its fields of those names."""
    est = np.ascontiguousarray(estimates, dtype=np.float64)
    if est.ndim != 2 or est.shape[0] < 1:
        raise DimensionMismatch("estimates must be a nonempty (N, p+1) matrix")
    s = np.ascontiguousarray(truth, dtype=np.float64)
    if s.shape != (est.shape[1],):
        raise DimensionMismatch(
            f"truth has shape {s.shape}, estimates have {est.shape[1]} columns"
        )
    mean_theta = est.mean(axis=0)
    metric_est = est
    if cap_negatives and est.shape[1] > 1:
        metric_est = est.copy()
        np.clip(metric_est[:, 1:], 0.0, None, out=metric_est[:, 1:])
    dev = metric_est - s
    mse = float((dev * dev).sum(axis=1).mean())
    rel_theta = _rel_err(
        float(np.linalg.norm(mean_theta - s)), float(np.linalg.norm(s))
    )
    rel_alpha = _rel_err(
        float(np.linalg.norm(mean_theta[1:] - s[1:])), float(np.linalg.norm(s[1:]))
    )
    return McSummary(
        mean_theta=mean_theta,
        mse=mse,
        rel_err_theta=rel_theta,
        rel_err_alpha=rel_alpha,
        per_component_samples=est,
        truth=s,
        cap_negatives=bool(cap_negatives),
        failures=failures,
        rep_ids=rep_ids,
    )


# Lanes simulated together are capped so that one block of counts holds at
# most this many float64 values (8 MB); blocks draw the same paths as one
# block would.
_LANE_BLOCK_VALUES = 1 << 20


def run_experiment(config: McConfig) -> McSummary:
    """Algorithm: simulate replications i = 1..N together, replication i on
    stream_id = i, fit them together by CLS, then aggregate. Replications
    whose design is singular or whose intensity exceeds ``lam_cap`` (or
    2**62) are dropped and counted; the run fails only if every one does."""
    n = config.n_experiments
    block = max(1, _LANE_BLOCK_VALUES // config.T)
    results = np.full((n, config.p + 1), np.nan, dtype=np.float64)
    ok = np.zeros(n, dtype=bool)
    overflowed = 0
    for start in range(0, n, block):
        ids = range(start + 1, min(n, start + block) + 1)
        counts, overflow_at = simulate_lanes(
            config.params, config.T, config.base_seed, ids, config.lam_cap
        )
        live = np.flatnonzero(overflow_at < 0)
        overflowed += len(ids) - live.size
        if live.size < len(ids):
            counts = counts[:, live]
        results[start + live], ok[start + live] = fit_lanes(counts, config.p)

    if not ok.any():
        raise AllReplicationsFailed(
            f"all {n} replications failed: {n - overflowed} singular designs, "
            f"{overflowed} intensity overflows"
        )
    truth = truth_vector(config.params, config.p)
    return summarize(results[ok], truth, config.cap_negatives,
                     failures=int(n - ok.sum()), rep_ids=np.nonzero(ok)[0] + 1)


def normality_suite(summary: McSummary, components=None) -> tuple[ComponentDiagnostics, ...]:
    """Jarque-Bera/Shapiro-Wilk plus Q-Q pairs and a 30-bin histogram for
    each requested component (default: the first three), computed on the
    raw uncapped samples. A test outside its sample-size range has None
    fields (:func:`inar.inference.normality_report`)."""
    samples = summary.per_component_samples
    m = samples.shape[1]
    if components is None:
        components = [j for j in (0, 1, 2) if j < m]
    out = []
    for j in components:
        j = int(j)
        if not 0 <= j < m:
            raise DimensionMismatch(
                f"component {j} out of range for p = {m - 1}"
            )
        col = np.ascontiguousarray(samples[:, j])
        qq_z, qq_value = qq_data(col)
        left, right, count = histogram_data(col, bins=30)
        out.append(
            ComponentDiagnostics(
                label=component_label(j),
                report=normality_report(col),
                qq_z=qq_z,
                qq_value=qq_value,
                hist_left=left,
                hist_right=right,
                hist_count=count.astype(np.int64),
            )
        )
    return tuple(out)
