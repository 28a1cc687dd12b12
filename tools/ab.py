#!/usr/bin/env python3
"""A/B record of a change against its parent commit.

    python3 tools/ab.py --parent HEAD --out BENCH_11.json

Extracts the parent commit into a temporary directory with ``git archive``
(local, no network; the repository's worktree list is left alone) and runs, on each side, the benchmark's own command unchanged on
every workload of ``BENCHMARK.json``, for its run length:

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

The change side is the checkout this script lives in, as its files stand.
Each of the ten pairs runs both sides on one seed, and the side that runs
first alternates from pair to pair. In the same run, every output file of
``inar mc --seed 11`` on each ``configs/*_T1000.json``, and on the lane
studies ``LOW_RATE`` (nu = 10.5, kernel ``lags:[0.05]``, T = 200, 1000
replications), ``MIXED_RATE`` (nu = 6, kernel ``lags:[0.5]``, T = 200,
1000 replications), ``CAPPED`` (case 2 at T = 200, p = 10, 1000
replications under ``lambda_cap`` 577) and ``CAPPED_LOW`` (``MIXED_RATE``
under ``lambda_cap`` 20; the four configs are written into the
temporary directory by :func:`write_config`), is compared
between the sides (identical, or the largest absolute and relative
difference of its numbers, overall and per field), and so are, under ``cli``, the files of
:func:`cli_outputs`: a case-1 ``inar simulate`` path CSV (the scalar loop),
``inar estimate --ci`` on it at p = 0, 1, 10 and 20, a constant-rate path
CSV of ``IID_T`` draws at ``IID_NU`` (the block sampler's rejection
blocks) and one at ``IID_LOW_NU`` (its inversion blocks), ``inar estimate
--ci`` on each at p = 0 (the iid sandwich), the two ``NEAR_BOUND`` path
CSVs at rates just below the simulators' rate bound 2**62, and ``inar
normality`` on the case-1 ``samples.csv``.
``src_lines`` holds each side's ``wc -l`` total of ``src/inar/*.py``, and
``src_file_lines`` each file's ``wc -l``, by name. Before the pairs, each
side runs its own tier-1 suite once (``python -m pytest -q -p
no:cacheprovider`` with ``PYTHONPATH`` at that side's ``src``), and
``tier1`` holds its passed, failed and error counts, exit code and wall
seconds. Every child process (the tier-1 runs, ``inar`` and the
benchmark) runs without ``PYTHONDONTWRITEBYTECODE`` (:func:`child_env`):
the parent side is a ``git archive`` extract with no ``__pycache__``, so
each side's tier-1 run writes its own fresh bytecode before the pairs,
and no pair runs one side from stale bytecode, compiled again at every
import, and the other from fresh: the gap would show in ``setup_s``,
whose bound is 25%. The
record (``--out``) is rewritten after every run, so an interrupted session
keeps what it measured; the temporary directory is removed at exit. Its
``notes`` are left empty for the author to fill in.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
MC_SEED = 11
PAIRS = 10
ESTIMATE_LAGS = (0, 1, 10, 20)
# The constant-rate paths: draws at a PTRS rate over several 2**13-round
# blocks of the block sampler, and at an inversion rate over more than two
# 2**13-draw blocks.
IID_NU = 100
IID_LOW_NU = 3
IID_T = 20_000
# Paths of NEAR_BOUND_T steps just below the rate bound 2**62 under a cap of
# 1e300, which acts as that bound: at nu = 4e18 without a kernel (the block
# sampler) and at nu = 2e18 with kernel lags:[0.5], whose rates are about
# 4e18 (the scalar loop). (nu, kernel, file stem) of each.
NEAR_BOUND = ((4e18, "none", "near_bound_iid"), (2e18, "lags:[0.5]", "near_bound_lags"))
NEAR_BOUND_T = 1000
# A lane study at rates just above the PTRS threshold of 10, where a round
# rejects about one time in four: on most passes many lanes retry their
# step, some for three passes or more.
LOW_RATE = {"nu": 10.5, "kernel": "lags:[0.05]", "T": 200, "p": 1,
            "n_experiments": 1000, "seed": MC_SEED, "case": "low_rate"}
# A lane study whose rates straddle that threshold (mean 12): on nearly
# every step some lanes draw by inversion and the rest by PTRS.
MIXED_RATE = {"nu": 6, "kernel": "lags:[0.5]", "T": 200, "p": 1,
              "n_experiments": 1000, "seed": MC_SEED, "case": "mixed_rate"}
# Case 2 of the study (stationary mean 500) under a cap it crosses: 495 of
# the 1000 replications overflow, at steps 32-178 (q10-q90), each lane at
# its own step, and the study fits the other 505.
CAPPED = {"nu": 100, "kernel": "lags:[0.8]", "T": 200, "p": 10, "n_experiments": 1000,
          "seed": MC_SEED, "case": "capped", "lambda_cap": 577}
# The mixed-rate study under a cap it crosses, so that stopped lanes are
# drawn on the per-pass route (nu < 10): 63 of the 1000 replications
# overflow.
CAPPED_LOW = {"nu": 6, "kernel": "lags:[0.5]", "T": 200, "p": 1, "n_experiments": 1000,
              "seed": MC_SEED, "case": "capped_low", "lambda_cap": 20}
STUDIES = (LOW_RATE, MIXED_RATE, CAPPED, CAPPED_LOW)


def quartiles(values):
    """Inclusive quartiles of ``values``: q1, median, q3 and n."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def wins(parent, change, better):
    """Pairs where the change is better (``better`` is "higher" or
    "lower"), pairs where the two are equal, and the number of pairs."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {"change_wins": won, "ties": ties, "pairs": len(parent)}


def summarize(runs, metrics):
    """Summary of ``runs`` per set and workload: for each end-to-end metric
    (name -> "higher" or "lower") the quartiles of each side and the wins
    of the change over its pairs; every failed check line; whether every
    run was correct; and the peak RSS of each pair with the chunks each
    run completed (a longer run reads a higher peak for the same data).
    Where every counted run has a per-fit latency (``fit_sweep``), its
    p50 and p99 get quartiles and wins too, as ``fit_latency_p50_ms`` and
    ``fit_latency_p99_ms`` (lower is better). Pairs with a failed run are
    left out of the quartiles and wins."""
    groups = {}
    for run in runs:
        groups.setdefault(f"{run['set']}/{run['workload']}", {}).setdefault(
            run["pair"], {})[run["side"]] = run
    summary = {}
    for name, by_pair in groups.items():
        pairs = sorted(p for p, sides in by_pair.items()
                       if len(sides) == 2 and all(r["exit"] == 0 for r in sides.values()))
        if not pairs:
            continue
        entry = {}
        for metric, better in metrics.items():
            side = {s: [by_pair[p][s]["result"]["metrics"][metric]["value"] for p in pairs]
                    for s in ("parent", "change")}
            entry[metric] = {s: quartiles(v) for s, v in side.items()}
            entry[metric].update(wins(side["parent"], side["change"], better))
        if all(by_pair[p][s].get("fit_latency_ms") for p in pairs for s in ("parent", "change")):
            for q in ("p50", "p99"):
                side = {s: [by_pair[p][s]["fit_latency_ms"][q] for p in pairs]
                        for s in ("parent", "change")}
                entry[f"fit_latency_{q}_ms"] = {s: quartiles(v) for s, v in side.items()}
                entry[f"fit_latency_{q}_ms"].update(wins(side["parent"], side["change"], "lower"))
        done = [r for sides in by_pair.values() for r in sides.values()]
        entry["failed_checks"] = sorted({c for r in done for c in r["checks"] if ": FAIL" in c})
        entry["all_correct"] = all(r["exit"] == 0 and r["result"]["correct"] for r in done)
        entry["peak_rss_mb_by_pair"] = [
            {"pair": p,
             **{f"{s}_{key}": by_pair[p][s][key] for s in ("parent", "change")
                for key in ("peak_rss_mb", "chunks")}}
            for p in pairs
        ]
        summary[name] = entry
    return summary


def _numbers(path):
    # The leaves of a JSON or CSV output, keyed by position: each maps to
    # its field and its value (numbers as numbers, other leaves as text).
    # A JSON leaf's field is its key path with list indices dropped; a CSV
    # cell's field is its column's header.
    if path.suffix == ".json":
        def walk(node, key, field):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from walk(v, f"{key}/{k}", f"{field}/{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    yield from walk(v, f"{key}/{i}", field)
            else:
                yield key, (field, node)
        return dict(walk(json.loads(path.read_text()), "", ""))
    with open(path, newline="") as fh:
        cells = {}
        for i, row in enumerate(csv.reader(fh)):
            if i == 0:
                header = row
            for j, text in enumerate(row):
                field = header[j] if j < len(header) else str(j)
                try:
                    cells[i, j] = field, float(text)
                except ValueError:
                    cells[i, j] = field, text
        return cells


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff_outputs(parent_dir, change_dir):
    """Each file of either directory: "identical", or the largest absolute
    and relative difference of its numbers (``max_abs``, ``max_rel``) with
    the same two maxima per field (``fields``: each JSON key path with list
    indices dropped, or CSV column, where a number differs), or "missing"
    on one side, or "differs" where its text or shape differs or where two
    numbers differ and one of them is not finite (NaN on both sides counts
    as equal)."""
    parent_dir, change_dir = Path(parent_dir), Path(change_dir)
    names = sorted({p.name for d in (parent_dir, change_dir) for p in d.iterdir()})
    out = {}
    for name in names:
        a, b = parent_dir / name, change_dir / name
        if not (a.is_file() and b.is_file()):
            out[name] = "missing"
            continue
        if a.read_bytes() == b.read_bytes():
            out[name] = "identical"
            continue
        na, nb = _numbers(a), _numbers(b)
        if na.keys() != nb.keys():
            out[name] = "differs"
            continue
        fields = {}
        for k, (field, va) in na.items():
            vb = nb[k][1]
            if va == vb:
                continue
            if not (_is_number(va) and _is_number(vb)):
                fields = None
                break
            if not (math.isfinite(va) and math.isfinite(vb)):
                if math.isnan(va) and math.isnan(vb):
                    continue
                fields = None
                break
            d = abs(vb - va)
            worst = fields.setdefault(field, {"max_abs": 0.0, "max_rel": 0.0})
            worst["max_abs"] = max(worst["max_abs"], d)
            worst["max_rel"] = max(worst["max_rel"], d / max(abs(va), abs(vb)))
        if fields is None:
            out[name] = "differs"
            continue
        out[name] = {
            "max_abs": max((f["max_abs"] for f in fields.values()), default=0.0),
            "max_rel": max((f["max_rel"] for f in fields.values()), default=0.0),
            "fields": dict(sorted(fields.items())),
        }
    return out


def src_file_lines(root):
    """The ``wc -l`` of each ``src/inar/*.py`` under ``root``, by file
    name: the number of newline characters in the file."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted(Path(root).glob("src/inar/*.py"))}


def src_lines(root):
    """The ``wc -l`` total of ``src/inar/*.py`` under ``root``."""
    return sum(src_file_lines(root).values())


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench_record(returncode, stdout, stderr):
    """One run's record from perfbench's exit code and output: its last
    JSON line, its check lines, its chunk count, its peak RSS and, for a
    workload that prints one, its ``fit_latency_p50_ms`` /
    ``fit_latency_p99_ms`` line as ``{"p50", "p99", "samples"}`` (else
    None)."""
    lines = stdout.strip().splitlines()
    result = None
    if returncode == 0 and lines:
        result = json.loads(lines[-1])
    chunks = next((int(line.split()[1]) for line in lines if line.startswith("run: ")), None)
    latency = None
    for line in lines:
        if line.startswith("fit_latency_p50_ms: "):
            words = line.split()
            latency = {"p50": float(words[1]), "p99": float(words[4]), "samples": int(words[7])}
    metrics = result["metrics"] if result else {}
    return {
        "exit": returncode,
        "result": result or {"correct": False, "stderr": stderr[-2000:]},
        "checks": [line for line in lines if line.startswith("check ")],
        "chunks": chunks,
        "peak_rss_mb": metrics.get("peak_rss_mb", {}).get("value"),
        "fit_latency_ms": latency,
    }


def child_env(side_root=None):
    """The environment of a child process: this one's, without
    ``PYTHONDONTWRITEBYTECODE``, and with ``PYTHONPATH`` at
    ``side_root``'s ``src`` when a side is given."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if side_root is not None:
        env["PYTHONPATH"] = str(Path(side_root) / "src")
    return env


def _bench(side_root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, env=child_env(), capture_output=True, text=True)
    return bench_record(proc.returncode, proc.stdout, proc.stderr)


def _inar(side_root, *args):
    subprocess.run([sys.executable, "-m", "inar", *map(str, args)],
                   cwd=side_root, env=child_env(side_root), check=True, capture_output=True)


def write_config(directory, study):
    """Write the config ``study`` (one of ``STUDIES``) into
    ``directory`` as ``<case>_T<T>.json`` and return its path."""
    path = Path(directory) / f"{study['case']}_T{study['T']}.json"
    path.write_text(json.dumps(study) + "\n")
    return path


def _mc_outputs(side_root, out_root, extra):
    # Each side's configs/*_T1000.json, then the shared configs ``extra``.
    for cfg in [*sorted((side_root / "configs").glob("*_T1000.json")), *extra]:
        out = out_root / cfg.stem
        _inar(side_root, "mc", "--config", cfg, "--out-dir", out, "--seed", MC_SEED)
        yield cfg.stem, out


def cli_outputs(side_root, out, samples):
    """Into directory ``out``: the path CSV of ``inar simulate`` on case 1
    (``configs/case1_T1000.json``'s nu, kernel and T, seed 11), ``inar
    estimate --ci`` JSON on that path at each p of ``ESTIMATE_LAGS`` (the
    ends and the middle of perfbench's ``fit_sweep`` range, and p = 0, the
    order that ``sampler_stream`` fits and the design build's empty-tail
    edge), the path CSVs of ``inar simulate --kernel none`` at ``IID_NU``
    (``iid_path.csv``) and at ``IID_LOW_NU`` (``iid_low_path.csv``), T =
    ``IID_T`` and seed 11, each with ``inar estimate --ci`` JSON on it at
    p = 0, the ``NEAR_BOUND`` path CSVs (``<stem>_path.csv``, T =
    ``NEAR_BOUND_T``, seed 11, ``--lambda-cap 1e300``), and ``inar
    normality`` JSON on the ``samples`` CSV, all run with ``side_root``'s
    package."""
    side_root, out = Path(side_root), Path(out)
    out.mkdir(parents=True)
    case1 = json.loads((side_root / "configs" / "case1_T1000.json").read_text())
    _inar(side_root, "simulate", "--nu", case1["nu"], "--kernel", case1["kernel"],
          "--T", case1["T"], "--seed", MC_SEED, "--out", out / "path.csv")
    for p in ESTIMATE_LAGS:
        _inar(side_root, "estimate", "--path", out / "path.csv", "--p", p, "--ci",
              "--out", out / f"estimate_p{p}.json")
    for nu, name in ((IID_NU, "iid"), (IID_LOW_NU, "iid_low")):
        _inar(side_root, "simulate", "--nu", nu, "--kernel", "none", "--T", IID_T,
              "--seed", MC_SEED, "--out", out / f"{name}_path.csv")
        _inar(side_root, "estimate", "--path", out / f"{name}_path.csv", "--p", 0, "--ci",
              "--out", out / f"{name}_estimate_p0.json")
    for nu, kernel, name in NEAR_BOUND:
        _inar(side_root, "simulate", "--nu", nu, "--kernel", kernel, "--T", NEAR_BOUND_T,
              "--seed", MC_SEED, "--lambda-cap", 1e300, "--out", out / f"{name}_path.csv")
    _inar(side_root, "normality", "--samples", samples, "--out", out / "normality.json")
    return out


def pytest_counts(output):
    """The passed, failed and error counts of the summary line that ends
    pytest's output (``3 failed, 551 passed, 1 error in 29.50s``); a count
    the line does not name is 0, and all three are None when the output
    ends without a summary line."""
    lines = output.strip().splitlines()
    last = lines[-1] if lines else ""
    if not re.search(r" in [0-9.]+s", last):
        return {"passed": None, "failed": None, "errors": None}
    counts = dict.fromkeys(("passed", "failed", "errors"), 0)
    for n, word in re.findall(r"([0-9]+) (passed|failed|error)", last):
        counts["errors" if word == "error" else word] = int(n)
    return counts


def tier1(side_root):
    """One run of ``side_root``'s tier-1 suite on its own package: its
    :func:`pytest_counts`, exit code and wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=side_root, env=child_env(side_root), capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {**pytest_counts(proc.stdout), "exit": proc.returncode, "wall_s": round(wall, 2)}


def machine_facts():
    """The host and build the record's numbers hold for. The golden digests
    and byte-identical outputs hold per BLAS build, so it names numpy's
    BLAS: its name, version and OpenBLAS configuration string (None where
    numpy does not report one)."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="record to write (JSON)")
    parser.add_argument("--seed-base", type=int, default=1101,
                        help="pair i (1-based) runs both sides on seed seed-base + i - 1")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent = _git("rev-parse", "--short", args.parent)
    # SIGTERM unwinds like Ctrl-C, so the copy is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="inar-ab-"))
    parent_root = scratch / "parent"
    try:
        parent_root.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", parent],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        record = {
            "about": (
                "perfbench runs of the parent commit (side parent) and of the change "
                "(side change), made by tools/ab.py in alternating pairs: both sides of "
                "a pair run one seed, and the side that runs first alternates. Each "
                "result is the last JSON line printed by `python3 perfbench/run.py "
                "--workload W --seed S --seconds "
                f"{seconds:g} --trace 0`, run from the root of each side's files. "
                "Summary quartiles are inclusive quartiles over one side's runs; "
                "`checks` lists the check lines each run printed; `chunks` is the "
                "number of chunks the run completed; `fit_latency_ms` is the per-fit "
                "p50 and p99 latency line a fit_sweep run printed, summarised as "
                "fit_latency_p50_ms and fit_latency_p99_ms. `outputs` compares every file of "
                f"`inar mc --seed {MC_SEED}` on each configs/*_T1000.json, on the "
                f"low-rate study low_rate_T200 ({json.dumps(LOW_RATE)}), on the "
                f"mixed-rate study mixed_rate_T200 ({json.dumps(MIXED_RATE)}), on the "
                f"capped study capped_T200 ({json.dumps(CAPPED)}) and on the capped "
                f"low-rate study capped_low_T200 ({json.dumps(CAPPED_LOW)}) and, under "
                "`cli`, a case-1 `inar simulate` path CSV (seed 11, T=1000), `inar "
                f"estimate --ci` on it at p = {', '.join(map(str, ESTIMATE_LAGS))}, a "
                f"constant-rate `inar simulate --kernel none` path CSV at nu = {IID_NU} "
                f"and at nu = {IID_LOW_NU} (seed 11, T={IID_T}), each with `inar "
                "estimate --ci` on it at p = 0, `inar simulate --lambda-cap 1e300` "
                "path CSVs just below the rate bound 2**62 (seed 11, "
                f"T={NEAR_BOUND_T}: {', '.join(f'nu = {nu:g} kernel {k}' for nu, k, _ in NEAR_BOUND)}), "
                "and `inar normality` on the case-1 samples.csv. `tier1` is one run per "
                "side, before the pairs, of `python -m pytest -q -p no:cacheprovider` "
                "on that side's own src: its passed, failed and error counts, exit "
                "code and wall seconds."
            ),
            "parent": parent,
            "src_lines": {"parent": src_lines(parent_root), "change": src_lines(ROOT)},
            "src_file_lines": {"parent": src_file_lines(parent_root),
                               "change": src_file_lines(ROOT)},
            "sets": {"final": "the change side's files as they stood when the record was made"},
            "notes": "",
            "machine": machine_facts(),
            "tier1": {},
            "outputs": {},
            "summary": {},
            "runs": [],
        }
        for side, side_root in (("parent", parent_root), ("change", ROOT)):
            record["tier1"][side] = tier1(side_root)
            print(f"ab: tier-1 {side}: {record['tier1'][side]}", file=sys.stderr)
        studies = [write_config(scratch, study) for study in STUDIES]
        change_mc = dict(_mc_outputs(ROOT, scratch / "change_mc", studies))
        parent_mc = dict(_mc_outputs(parent_root, scratch / "parent_mc", studies))
        record["outputs"] = {
            stem: diff_outputs(parent_mc[stem], out) if stem in parent_mc else "missing"
            for stem, out in change_mc.items()
        }
        parent_cli = cli_outputs(parent_root, scratch / "parent_cli",
                                 parent_mc["case1_T1000"] / "samples.csv")
        change_cli = cli_outputs(ROOT, scratch / "change_cli",
                                 change_mc["case1_T1000"] / "samples.csv")
        record["outputs"]["cli"] = diff_outputs(parent_cli, change_cli)
        same = all(files != "missing" and all(v == "identical" for v in files.values())
                   for files in record["outputs"].values())
        print(f"ab: inar mc --seed {MC_SEED} and CLI outputs "
              f"{'identical' if same else 'differ'}", file=sys.stderr)
        order = 0
        for pair in range(1, PAIRS + 1):
            seed = args.seed_base + pair - 1
            sides = (("parent", parent_root), ("change", ROOT))
            if pair % 2 == 0:
                sides = sides[::-1]
            for workload in workloads:
                for side, side_root in sides:
                    order += 1
                    run = {"run_order": order, "set": "final", "pair": pair, "side": side,
                           "workload": workload, "seed": seed, "trace": 0, "seconds": seconds}
                    run.update(_bench(side_root, workload, seed, seconds))
                    record["runs"].append(run)
                    record["summary"] = summarize(record["runs"], metrics)
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    ops = (run["result"].get("metrics") or {}).get("ops_per_s", {})
                    print(f"ab: pair {pair} {workload} {side}: exit {run['exit']} "
                          f"ops_per_s {ops.get('value')}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
