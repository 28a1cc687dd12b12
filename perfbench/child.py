"""One benchmark workload in a single-threaded process.

Started by ``run.py``; prints one JSON object as its last stdout line. The
process imports ``inar`` from the checkout's ``src/`` tree, builds its
inputs from the seed and warms every layer once (set-up). It then runs the
workload's chunk, a fixed sequence of steps, in a closed loop (the next
step starts when the previous one returns) until the time budget is spent.
Outputs are checked after every chunk, outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import CLI_MC, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Input sizes per workload; the smoke sizes keep the benchmark's own tests
# fast and are never used for reported numbers.
FULL = {
    "mc_replications": 1000,
    "fit_paths": 8,
    "sampler_draws": 100_000,
    "sampler_path_T": 100_000,
}
SMOKE = {
    "mc_replications": 20,
    "fit_paths": 2,
    "sampler_draws": 5_000,
    "sampler_path_T": 20_000,
}

MC_T = 200
MC_P = 10
MC_CASES = (("case1", "geometric:0.25"), ("case2", "lags:[0.8]"))
# README "Bundled study" T=200 rows: mean nu_hat, mean a1_hat, MSE, with the
# number of decimals printed there.
README_T200 = {
    "case1": ((100.83, 2), (0.2465, 4), (55.68, 2)),
    "case2": ((101.77, 2), (0.7949, 4), (89.05, 2)),
}
README_SEED = 11

FIT_T = 1000
FIT_P_MAX = 20

SAMPLER_RATES = (150.0, 3.0)  # PTRS branch, inversion branch
SAMPLER_NU = 100.0
# Criterion 8 checks 1e6 draws at lambda=150: mean within 3 standard errors
# and dispersion within +-0.01. Criterion 7 wants the iid sandwich variance
# within 5% of nu at T=1e5. Windows below scale with 1/sqrt(n) from there.
C8_DRAWS = 1_000_000
C8_DISPERSION = 0.01
C7_T = 100_000
C7_REL = 0.05


def _import_inar():
    if not (SRC / "inar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no inar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import inar
    import inar.cli

    if Path(inar.__file__).resolve().parent != (SRC / "inar").resolve():
        raise SystemExit(f"perfbench: imported inar from {inar.__file__}, not {SRC}")
    return inar


class Checks:
    """Named output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.results = {}  # name -> [ok, times checked, detail of first failure]

    def add(self, name, ok, detail=""):
        entry = self.results.setdefault(name, [True, 0, ""])
        entry[1] += 1
        if entry[0] and not ok:
            entry[0] = False
            entry[2] = detail

    @property
    def ok(self):
        return all(ok for ok, _, _ in self.results.values())


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "inar").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(inar):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "inar_backend": inar.backend_name(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
    }


# Speed probe. On a shared host the speed of every process drifts with the
# load of other tenants, by up to 1.8x in phases of seconds to minutes, so
# the raw throughput of 20-second runs spread by up to 25% between runs.
# The probe is fixed benchmark code that slows with them: a pure-Python
# loop plus small numpy and LAPACK calls, like the program's own mix
# (correlation 0.8-0.9 with fit and replication times, but only 0.1-0.5
# with the Poisson sampler's steps). It runs between untraced steps; a
# step's wall time is divided by the mean of the probes on either side over
# PROBE_REF_S. Each probe is the median of PROBE_REPEATS short rounds, so
# one interruption does not read as a slow phase.
PROBE_REPEATS = 5
PROBE_REF_S = 0.0025  # typical probe round on the 2-core reference host


class SpeedProbe:
    """Callable returning the current time of one probe round, in seconds."""

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._np = np
        self._eigvalsh = scipy.linalg.eigvalsh
        rng = np.random.default_rng(0)
        self._x = rng.random((1000, 11))
        self._a = self._x.T @ self._x
        self._b = self._x[:11, 0].copy()

    def _round(self):
        acc = 0.0
        for i in range(8000):
            acc += math.sqrt(i)
        for _ in range(12):
            self._x.T @ self._x
            self._np.linalg.solve(self._a, self._b)
            self._eigvalsh(self._a)
        return acc

    def __call__(self):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self._round()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def run_mc(inar, argv, tracer):
    """`inar mc` in-process, inside the ``cli.mc`` span when tracing."""
    if tracer is None:
        return inar.cli.main(argv)
    with tracer.span(CLI_MC):
        return inar.cli.main(argv)


def warm_up(inar, tmp, seed, tracer):
    """Call every traced layer once at smoke size, so lazy imports and
    first-call costs land in set-up rather than in the timed loop."""
    cfg = tmp / "warmup.json"
    cfg.write_text(json.dumps({
        "nu": 100.0, "kernel": "geometric:0.25", "T": 60, "p": 2,
        "n_experiments": 20, "seed": seed,
    }))
    rc = run_mc(inar, ["mc", "--config", str(cfg), "--out-dir", str(tmp / "warmup")], tracer)
    if rc != 0:
        raise RuntimeError(f"warm-up `inar mc` exited with {rc}")
    params = inar.ModelParams(nu=100.0, kernel=inar.geometric_kernel(0.25))
    path = inar.simulate_path(params, 200, inar.RngStream(seed, 0))
    system = inar.build_design(path, 3)
    theta = inar.solve_cls(system)
    cov = inar.sandwich_covariance(path, theta, 3)
    inar.confidence_intervals(theta, cov, system.T)
    for lam in SAMPLER_RATES:
        inar.poisson_sample(lam, inar.RngStream(seed, 0), size=100)


class McStudy:
    """The bundled study's T=200 column through `inar mc`; one op is one
    replication, one step is one case, one chunk is both."""

    def __init__(self, inar, tmp, seed, sizes, checks):
        self.inar = inar
        self.seed = seed
        self.checks = checks
        self.n = sizes["mc_replications"]
        self.full = sizes is FULL
        self.jobs = []
        for label, kernel in MC_CASES:
            cfg = tmp / f"{label}.json"
            cfg.write_text(json.dumps({
                "nu": 100.0, "kernel": kernel, "T": MC_T, "p": MC_P,
                "n_experiments": self.n, "seed": seed, "case": label,
            }))
            self.jobs.append((label, cfg, tmp / label))
        self.reference = None
        self.exit_ok = {}

    @property
    def steps(self):
        return [label for label, _, _ in self.jobs]

    def run_step(self, label, tracer):
        _, cfg, out = next(job for job in self.jobs if job[0] == label)
        rc = run_mc(self.inar, ["mc", "--config", str(cfg), "--out-dir", str(out)], tracer)
        self.exit_ok[label] = rc == 0
        self.checks.add("mc_exit_zero", rc == 0, f"{label}: exit code {rc}")
        if rc != 0:
            return self.n, self.n
        return self.n, int(json.loads((out / "mc_summary.json").read_text())["failures"])

    def outputs(self):
        return {
            label: ((out / "mc_summary.json").read_bytes(), (out / "samples.csv").read_bytes())
            for label, _, out in self.jobs
        }

    def check_chunk(self, traced):
        if not all(self.exit_ok.values()):
            return
        got = self.outputs()
        if self.reference is None:
            self.reference = got
            self._check_first(got)
            return
        name = "traced_outputs_byte_identical" if traced else "rerun_outputs_byte_identical"
        self.checks.add(name, got == self.reference)

    def _check_first(self, got):
        for label, (summary_bytes, samples_bytes) in got.items():
            summary = json.loads(summary_bytes)
            rows = samples_bytes.decode().strip().splitlines()
            self.checks.add(
                "mc_replications_accounted",
                summary["n_success"] + summary["failures"] == self.n
                and len(rows) == summary["n_success"] + 1,
                f"{label}: n_success={summary['n_success']} failures={summary['failures']}",
            )
            if self.seed != README_SEED or not self.full:
                continue
            got_vals = (summary["mean_theta"][0], summary["mean_theta"][1], summary["mse"])
            for (want, digits), value, what in zip(
                README_T200[label], got_vals, ("mean_nu", "mean_a1", "mse")
            ):
                # One unit in the last printed digit: the README prints the
                # case-2 MSE 89.0448 as 89.05.
                self.checks.add(
                    "readme_T200_rows",
                    abs(value - want) <= 10.0 ** -digits + 1e-12,
                    f"{label} {what}={value!r} README {want}",
                )


class FitSweep:
    """`estimate --ci` on pre-simulated case-1 paths at every lag order
    1..20; one op is one fit, one chunk is one sweep over all paths."""

    def __init__(self, inar, tmp, seed, sizes, checks):
        self.inar = inar
        self.checks = checks
        params = inar.ModelParams(
            nu=100.0, kernel=inar.geometric_kernel(0.25), kernel_tail="geometric:0.25"
        )
        self.paths = [
            inar.simulate_path(params, FIT_T, inar.RngStream(seed, i))
            for i in range(1, sizes["fit_paths"] + 1)
        ]
        self.latencies = []
        self.last = None
        self.reference = None
        self._reference_sweep()

    def _fit(self, path, p):
        inar = self.inar
        system = inar.build_design(path, p)
        theta = inar.solve_cls(system)
        cov = inar.sandwich_covariance(path, theta, p)
        ci = inar.confidence_intervals(theta, cov, system.T)
        return system, theta, ci

    def _reference_sweep(self):
        import numpy as np

        inar = self.inar
        ref = []
        for path in self.paths:
            for p in range(1, FIT_P_MAX + 1):
                system, theta, ci = self._fit(path, p)
                vec = theta.to_array()
                resid = inar.residual_norm(system, theta)
                self.checks.add(
                    "fit_residual",
                    resid <= 1e-8 * max(1.0, float(np.linalg.norm(system.b))),
                    f"p={p} residual={resid:.3e}",
                )
                self.checks.add(
                    "fit_ci_brackets_estimate",
                    all(lo <= v <= hi for v, (lo, hi) in zip(vec, ci)),
                    f"p={p}",
                )
                ref.append((vec, ci))
        self.reference = ref

    steps = ("sweep",)

    def run_step(self, step, tracer):
        fit = self._fit
        lat = []
        out = []
        failed = 0
        clock = time.perf_counter
        for path in self.paths:
            for p in range(1, FIT_P_MAX + 1):
                t0 = clock()
                try:
                    _, theta, ci = fit(path, p)
                except self.inar.InarError:
                    failed += 1
                    out.append(None)
                    continue
                finally:
                    lat.append(clock() - t0)
                out.append((theta, ci))
        self.latencies.extend(lat)
        self.last = out
        return len(lat), failed

    def check_chunk(self, traced):
        import numpy as np

        same = len(self.last) == len(self.reference) and all(
            got is not None and np.array_equal(got[0].to_array(), vec) and got[1] == ci
            for got, (vec, ci) in zip(self.last, self.reference)
        )
        self.checks.add("traced_estimates_repeat" if traced else "estimates_repeat", same)


class SamplerStream:
    """Single-stream sampling: both Poisson branches, then one long iid
    path and its p=0 sandwich variance; one op is one variate."""

    def __init__(self, inar, tmp, seed, sizes, checks):
        self.inar = inar
        self.seed = seed
        self.checks = checks
        self.draws = sizes["sampler_draws"]
        self.T = sizes["sampler_path_T"]
        self.params = inar.ModelParams(nu=SAMPLER_NU)
        self.draws_out = {}
        self.last = None
        self.reference = None

    steps = SAMPLER_RATES + ("path",)

    def run_step(self, step, tracer):
        inar = self.inar
        if step != "path":
            stream = inar.RngStream(self.seed, SAMPLER_RATES.index(step))
            self.draws_out[step] = inar.poisson_sample(step, stream, size=self.draws)
            return self.draws, 0
        path = inar.simulate_path(self.params, self.T, inar.RngStream(self.seed, len(SAMPLER_RATES)))
        theta = inar.solve_cls(inar.build_design(path, 0))
        sigma = float(inar.sandwich_covariance(path, theta, 0).Sigma_hat[0, 0])
        self.last = ([self.draws_out[lam] for lam in SAMPLER_RATES], path.counts, sigma)
        return self.T, 0

    def check_chunk(self, traced):
        import numpy as np

        draws, counts, sigma = self.last
        if self.reference is None:
            self.reference = self.last
            self._check_first(draws, sigma)
            return
        ref_draws, ref_counts, ref_sigma = self.reference
        same = (
            all(np.array_equal(a, b) for a, b in zip(draws, ref_draws))
            and np.array_equal(counts, ref_counts)
            and sigma == ref_sigma
        )
        self.checks.add("traced_same_stream_same_draws" if traced else "same_stream_same_draws", same)

    def _check_first(self, draws, sigma):
        for lam, x in zip(SAMPLER_RATES, draws):
            n = x.shape[0]
            mean = float(x.mean())
            disp = float(x.var(ddof=1) / mean)
            disp_window = C8_DISPERSION * max(1.0, (C8_DRAWS / n) ** 0.5)
            self.checks.add(
                "criterion8_mean_window",
                abs(mean - lam) <= 3.0 * (lam / n) ** 0.5,
                f"lambda={lam} mean={mean:.5f} n={n}",
            )
            self.checks.add(
                "criterion8_dispersion_window",
                abs(disp - 1.0) <= disp_window,
                f"lambda={lam} dispersion={disp:.5f} window={disp_window:.4f}",
            )
        rel_window = C7_REL * max(1.0, (C7_T / self.T) ** 0.5)
        self.checks.add(
            "criterion7_iid_sandwich",
            abs(sigma - SAMPLER_NU) / SAMPLER_NU <= rel_window,
            f"sigma={sigma:.4f} window={rel_window:.3f}",
        )


WORKLOADS = {"mc_study": McStudy, "fit_sweep": FitSweep, "sampler_stream": SamplerStream}


def _percentile(sorted_vals, q):
    idx = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[idx]


def run(args, start):
    """Set up and run one workload; ``start`` is the clock reading taken
    before ``inar`` was imported."""
    inar = _import_inar()

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        checks = Checks()
        tracer = Tracer() if args.trace else None
        sizes = SMOKE if args.smoke else FULL
        if tracer is not None:
            tracer.install()
        try:
            warm_up(inar, tmp, args.seed, tracer)
            work = WORKLOADS[args.workload](inar, tmp, args.seed, sizes, checks)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            return {"setup_s": setup_s}

        walls = {False: [], True: []}  # traced? -> wall of each chunk
        # untraced steps: name -> ops, and [(wall, wall scaled to reference speed)]
        step_ops = {}
        step_walls = {step: [] for step in work.steps}
        attempted = failed = 0
        speed_probe = SpeedProbe()
        t_start = time.perf_counter()
        probe_before = speed_probe()
        while True:
            traced = bool(tracer) and len(walls[False]) > len(walls[True])
            if traced:
                tracer.install()
            try:
                chunk_wall = 0.0
                for step in work.steps:
                    t0 = time.perf_counter()
                    ops, bad = work.run_step(step, tracer if traced else None)
                    wall = time.perf_counter() - t0
                    chunk_wall += wall
                    attempted += ops
                    failed += bad
                    if not traced:
                        probe_after = speed_probe()
                        scale = 0.5 * (probe_before + probe_after) / PROBE_REF_S
                        step_ops[step] = ops
                        step_walls[step].append((wall, wall / scale))
                        probe_before = probe_after
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(chunk_wall)
            if traced:
                probe_before = speed_probe()
            work.check_chunk(traced)
            done = time.perf_counter() - t_start >= args.seconds
            if done and (tracer is None or len(walls[True]) == len(walls[False])):
                break

        def throughput(col):
            # ops of one chunk over the sum of each step's median time
            total = sum(statistics.median(w[col] for w in step_walls[s]) for s in work.steps)
            return sum(step_ops.values()) / total

        result = {
            "attempted": attempted,
            "failed": failed,
            "setup_s": setup_s,
            "timed_wall_s": sum(walls[False]) + sum(walls[True]),
            "chunks": len(walls[False]) + len(walls[True]),
            "ops_per_s": throughput(1),
            "raw_ops_per_s": throughput(0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "facts": machine_facts(inar),
        }
        lat = getattr(work, "latencies", None)
        if lat and not tracer:
            lat = sorted(lat)
            result["fit_latency_ms"] = {
                "p50": _percentile(lat, 0.50) * 1e3,
                "p99": _percentile(lat, 0.99) * 1e3,
                "samples": len(lat),
            }
        if tracer is not None:
            errors = tracer.consistency_errors()
            checks.add("trace_spans_consistent", not errors, "; ".join(errors))
            layer = tracer.metrics()
            layer["trace_overhead_s"] = (
                sum(walls[True]) - sum(walls[False]), "s"
            )
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["checks"] = {
            k: {"ok": ok, "times": n, "detail": d} for k, (ok, n, d) in checks.results.items()
        }
        result["correct"] = checks.ok
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    start = time.perf_counter()
    print(json.dumps(run(args, start)))


if __name__ == "__main__":
    main()
