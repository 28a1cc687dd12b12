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
``inar mc --seed 11`` on each ``configs/*_T1000.json`` is compared between
the sides: identical, or the largest absolute and relative difference of
its numbers. The record (``--out``) is rewritten after every run, so an
interrupted session keeps what it measured; the temporary directory is
removed at exit. Its ``notes`` are left empty for the author to fill in.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
MC_SEED = 11
PAIRS = 10


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
    Pairs with a failed run are left out of the quartiles and wins."""
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
    # The numeric leaves of a JSON or CSV output, keyed by position; the
    # other leaves as text.
    if path.suffix == ".json":
        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from walk(v, f"{key}/{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    yield from walk(v, f"{key}/{i}")
            else:
                yield key, node
        return dict(walk(json.loads(path.read_text()), ""))
    with open(path, newline="") as fh:
        cells = {}
        for i, row in enumerate(csv.reader(fh)):
            for j, text in enumerate(row):
                try:
                    cells[i, j] = float(text)
                except ValueError:
                    cells[i, j] = text
        return cells


def diff_outputs(parent_dir, change_dir):
    """Each file of either directory: "identical", or the largest absolute
    and relative difference of its numbers, or "missing" on one side, or
    "differs" where its text or shape differs or where two numbers differ
    and one of them is not finite (NaN on both sides counts as equal)."""
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
        max_abs = max_rel = 0.0
        for k, va in na.items():
            vb = nb[k]
            if va == vb:
                continue
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb)):
                max_abs = None
                break
            if not (math.isfinite(va) and math.isfinite(vb)):
                if math.isnan(va) and math.isnan(vb):
                    continue
                max_abs = None
                break
            d = abs(vb - va)
            max_abs = max(max_abs, d)
            max_rel = max(max_rel, d / max(abs(va), abs(vb)))
        if max_abs is None:
            out[name] = "differs"
            continue
        out[name] = {"max_abs": max_abs, "max_rel": max_rel}
    return out


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _bench(side_root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    chunks = next((int(line.split()[1]) for line in lines if line.startswith("run: ")), None)
    metrics = result["metrics"] if result else {}
    return {
        "exit": proc.returncode,
        "result": result or {"correct": False, "stderr": proc.stderr[-2000:]},
        "checks": [line for line in lines if line.startswith("check ")],
        "chunks": chunks,
        "peak_rss_mb": metrics.get("peak_rss_mb", {}).get("value"),
    }


def _mc_outputs(side_root, out_root):
    env = dict(os.environ, PYTHONPATH=str(side_root / "src"))
    for cfg in sorted((side_root / "configs").glob("*_T1000.json")):
        out = out_root / cfg.stem
        subprocess.run([sys.executable, "-m", "inar", "mc", "--config", str(cfg),
                        "--out-dir", str(out), "--seed", str(MC_SEED)],
                       cwd=side_root, env=env, check=True, capture_output=True)
        yield cfg.stem, out


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
                "number of chunks the run completed. `outputs` compares every file of "
                f"`inar mc --seed {MC_SEED}` on each configs/*_T1000.json."
            ),
            "parent": parent,
            "sets": {"final": "the change side's files as they stood when the record was made"},
            "notes": "",
            "machine": {
                "cores": os.cpu_count(),
                "machine": platform.machine(),
                "system": platform.system(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "outputs": {},
            "summary": {},
            "runs": [],
        }
        change_mc = dict(_mc_outputs(ROOT, scratch / "change_mc"))
        parent_mc = dict(_mc_outputs(parent_root, scratch / "parent_mc"))
        record["outputs"] = {
            stem: diff_outputs(parent_mc[stem], out) if stem in parent_mc else "missing"
            for stem, out in change_mc.items()
        }
        same = all(files != "missing" and all(v == "identical" for v in files.values())
                   for files in record["outputs"].values())
        print(f"ab: inar mc --seed {MC_SEED} outputs "
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
