#!/usr/bin/env python3
"""Outside-in benchmark of the inar package.

    python3 perfbench/run.py --workload mc_study --seed 11 --seconds 15 --trace 0

Runs from the root of a source checkout and imports ``inar`` from its
``src/`` tree. Each run starts the workload in its own single-threaded
child process (``child.py``). With ``--trace 0`` the run reports the
end-to-end metrics; set-up time is the median over several children that
only set up. With ``--trace 1`` the child alternates untraced and traced
chunks and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Children that only set up, half before and half after the measuring
# child so that the samples span the run; with the measuring child's own
# set-up they give the samples whose median is reported as setup_s.
SETUP_CHILDREN = 4
RUN_LIMIT_S = 170.0


def _child_env():
    env = dict(os.environ)
    # One thread per process: BLAS pools off, and `inar mc` at its default.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("INAR_THREADS", None)
    return env


def _run_child(args, extra, timeout):
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else []) + extra
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: child ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "inar" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: {ROOT} holds no inar sources (src/inar)\n")
        return 2

    started = time.monotonic()
    extra_setups = 0 if args.trace else SETUP_CHILDREN // 2
    setups = [_run_child(args, ["--setup-only"], 30.0) for _ in range(extra_setups)]
    res = _run_child(args, [], RUN_LIMIT_S - 30.0 * extra_setups - (time.monotonic() - started))
    setups.append(res)
    setups += [_run_child(args, ["--setup-only"], 30.0) for _ in range(extra_setups)]

    for key, value in res["facts"].items():
        print(f"fact {key}: {value}")
    for name, check in res["checks"].items():
        state = "PASS" if check["ok"] else "FAIL"
        print(f"check {name}: {state} x{check['times']} {check['detail']}".rstrip())
    print(f"run: {res['chunks']} chunks, {res['attempted']} ops, "
          f"{res['timed_wall_s']:.3f} s timed wall")

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "ops_per_s": _metric(res["ops_per_s"], "1/s"),
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
        print(f"raw_ops_per_s (not scaled by the speed probe): {res['raw_ops_per_s']:.6g} 1/s")
        lat = res.get("fit_latency_ms")
        if lat:
            print(f"fit_latency_p50_ms: {lat['p50']:.4f} ms  "
                  f"fit_latency_p99_ms: {lat['p99']:.4f} ms  samples: {lat['samples']}")
        print("setup samples s: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"metric {name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
