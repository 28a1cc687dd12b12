"""The A/B recorder (``tools/ab.py``): its summary and output diff on fixed
numbers."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import inar

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_inclusive_quartiles():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0, "n": 5}
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25, "n": 4}
    assert ab.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0, "n": 1}


def test_wins_and_ties():
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert ab.wins(parent, change, "higher") == {"change_wins": 2, "ties": 1, "pairs": 4}
    assert ab.wins(parent, change, "lower") == {"change_wins": 1, "ties": 1, "pairs": 4}


def _run(pair, side, ops, rss, chunks, checks=("check c: PASS x1",), exit_code=0):
    return {"set": "final", "workload": "w", "pair": pair, "side": side, "exit": exit_code,
            "checks": list(checks), "chunks": chunks, "peak_rss_mb": rss,
            "result": {"correct": exit_code == 0, "metrics": {
                "ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}}}


def test_summary_of_pairs():
    runs = [
        _run(1, "parent", 10.0, 70.0, 30), _run(1, "change", 12.0, 70.5, 36),
        _run(2, "change", 13.0, 69.0, 39), _run(2, "parent", 11.0, 71.0, 33),
        _run(3, "parent", 9.0, 70.0, 27, checks=("check c: FAIL x1",)),
        _run(3, "change", 9.0, 70.0, 27),
        _run(4, "parent", 1.0, 1.0, 1, exit_code=1), _run(4, "change", 99.0, 99.0, 99),
        _run(5, "parent", 1.0, 1.0, 1),
    ]
    got = ab.summarize(runs, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    entry = got["final/w"]
    assert entry["ops_per_s"]["parent"] == {"q1": 9.5, "median": 10.0, "q3": 10.5, "n": 3}
    assert entry["ops_per_s"]["change"]["median"] == 12.0
    assert {k: entry["ops_per_s"][k] for k in ("change_wins", "ties", "pairs")} == {
        "change_wins": 2, "ties": 1, "pairs": 3}
    assert {k: entry["peak_rss_mb"][k] for k in ("change_wins", "ties", "pairs")} == {
        "change_wins": 1, "ties": 1, "pairs": 3}
    assert entry["failed_checks"] == ["check c: FAIL x1"]
    assert entry["all_correct"] is False
    assert entry["peak_rss_mb_by_pair"][0] == {
        "pair": 1, "parent_peak_rss_mb": 70.0, "parent_chunks": 30,
        "change_peak_rss_mb": 70.5, "change_chunks": 36}


_FIT_STDOUT = """\
check fit_residual: PASS x160
run: 38 chunks, 6080 ops, 2.579 s timed wall
raw_ops_per_s (not scaled by the speed probe): 2386.34 1/s
fit_latency_p50_ms: {p50:.4f} ms  fit_latency_p99_ms: {p99:.4f} ms  samples: 6080
metric ops_per_s: {ops} 1/s
{{"correct": true, "attempted": 6080, "failed": 0, "metrics": {{"ops_per_s": {{"value": {ops}, \
"unit": "1/s"}}, "peak_rss_mb": {{"value": 64.5, "unit": "MB"}}}}}}
"""


def test_fit_latency_in_records():
    # A fit_sweep run keeps perfbench's per-fit latency line; the summary
    # gives its p50 and p99 quartiles per side and the change's wins
    # (lower is better). A run without the line has none.
    def record(side, pair, p50, p99, ops):
        rec = ab.bench_record(0, _FIT_STDOUT.format(p50=p50, p99=p99, ops=ops), "")
        return {"set": "final", "workload": "fit_sweep", "pair": pair, "side": side, **rec}

    rec = ab.bench_record(0, _FIT_STDOUT.format(p50=0.3956, p99=0.6423, ops=1980.5), "")
    assert rec["fit_latency_ms"] == {"p50": 0.3956, "p99": 0.6423, "samples": 6080}
    assert rec["chunks"] == 38 and rec["peak_rss_mb"] == 64.5
    assert rec["checks"] == ["check fit_residual: PASS x160"]
    assert rec["result"]["metrics"]["ops_per_s"]["value"] == 1980.5
    plain = _FIT_STDOUT.format(p50=0, p99=0, ops=1.0).splitlines()
    assert ab.bench_record(0, "\n".join(plain[:3] + plain[4:]), "")["fit_latency_ms"] is None
    runs = [record("parent", 1, 0.40, 0.70, 2000.0), record("change", 1, 0.36, 0.71, 2200.0),
            record("change", 2, 0.35, 0.60, 2300.0), record("parent", 2, 0.42, 0.65, 1900.0),
            record("parent", 3, 0.41, 0.66, 1950.0), record("change", 3, 0.37, 0.62, 2150.0)]
    entry = ab.summarize(runs, {"ops_per_s": "higher"})["final/fit_sweep"]
    p50, p99 = entry["fit_latency_p50_ms"], entry["fit_latency_p99_ms"]
    assert p50["parent"] == {"q1": 0.405, "median": 0.41, "q3": 0.415, "n": 3}
    assert p50["change"]["median"] == 0.36
    assert {k: p50[k] for k in ("change_wins", "ties", "pairs")} == {
        "change_wins": 3, "ties": 0, "pairs": 3}
    assert {k: p99[k] for k in ("change_wins", "ties", "pairs")} == {
        "change_wins": 2, "ties": 0, "pairs": 3}
    assert entry["ops_per_s"]["change_wins"] == 3
    assert "fit_latency_p50_ms" not in ab.summarize(
        [_run(1, "parent", 1.0, 1.0, 1), _run(1, "change", 2.0, 1.0, 1)],
        {"ops_per_s": "higher"})["final/w"]


def test_output_diff(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d, mean, cell in ((a, 1.0, "2.0"), (b, 1.5, "2.0")):
        (d / "s.json").write_text(json.dumps({"mean": [mean, 3.0], "case": "x"}))
        (d / "t.csv").write_text(f"z,value\n0.5,{cell}\n")
    (b / "u.csv").write_text("z\n")
    got = ab.diff_outputs(a, b)
    assert got["t.csv"] == "identical" and got["u.csv"] == "missing"
    assert got["s.json"] == {"max_abs": 0.5, "max_rel": pytest.approx(1 / 3), "fields": {
        "/mean": {"max_abs": 0.5, "max_rel": pytest.approx(1 / 3)}}}
    (b / "t.csv").write_text("z,value\n0.5,abc\n")
    assert ab.diff_outputs(a, b)["t.csv"] == "differs"


def test_output_diff_per_field(tmp_path):
    # A rounding-level field with a large relative change is reported on
    # its own, next to the file maxima: list indices are dropped from JSON
    # key paths, and CSV cells are grouped by their column's header.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d, est, resid, nested in ((a, [10.0, 20.0], 1e-11, 4.0), (b, [10.0, 20.000001], 2e-11, 4.5)):
        (d / "e.json").write_text(json.dumps({
            "theta": est, "residual_norm": resid, "ci": [[1.0, nested], [2.0, 3.0]],
            "nest": {"se": [{"v": nested}]}}))
        (d / "s.csv").write_text(f"rep,mu_hat,beta_1\n1,{est[0]!r},{resid!r}\n2,{est[1]!r},0.5\n")
    got = ab.diff_outputs(a, b)
    e, s = got["e.json"], got["s.csv"]
    assert e["fields"] == {
        "/ci": {"max_abs": 0.5, "max_rel": pytest.approx(1 / 9)},
        "/nest/se/v": {"max_abs": 0.5, "max_rel": pytest.approx(1 / 9)},
        "/residual_norm": {"max_abs": pytest.approx(1e-11), "max_rel": pytest.approx(0.5)},
        "/theta": {"max_abs": pytest.approx(1e-6), "max_rel": pytest.approx(5e-8)},
    }
    assert e["max_abs"] == 0.5 and e["max_rel"] == pytest.approx(0.5)
    assert s["fields"] == {
        "beta_1": {"max_abs": pytest.approx(1e-11), "max_rel": pytest.approx(0.5)},
        "mu_hat": {"max_abs": pytest.approx(1e-6), "max_rel": pytest.approx(5e-8)},
    }
    assert s["max_abs"] == pytest.approx(1e-6) and s["max_rel"] == pytest.approx(0.5)


@pytest.mark.parametrize("parent, change, expected", [
    ("1.0", "nan", "differs"),
    ("nan", "1.0", "differs"),
    ("inf", "1.0", "differs"),
    ("inf", "-inf", "differs"),
    ("nan", "nan", {"max_abs": 0.5, "max_rel": pytest.approx(1 / 3),
                    "fields": {"z": {"max_abs": 0.5, "max_rel": pytest.approx(1 / 3)}}}),
])
def test_output_diff_non_finite(tmp_path, parent, change, expected):
    # NaN in the same place on both sides is equal; a number that turns
    # non-finite on one side is a broken output, not a small difference.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "t.csv").write_text(f"z,value\n1.0,{parent}\n")
    (b / "t.csv").write_text(f"z,value\n1.5,{change}\n")
    assert ab.diff_outputs(a, b)["t.csv"] == expected


def test_src_lines(tmp_path):
    # wc -l of src/inar/*.py only: a last line without a newline is not
    # counted, and other files and subdirectories are left out.
    pkg = tmp_path / "src" / "inar"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nw = 4")
    (pkg / "notes.txt").write_text("1\n2\n")
    (pkg / "sub" / "c.py").write_text("1\n")
    assert ab.src_lines(tmp_path) == 4
    assert ab.src_file_lines(tmp_path) == {"a.py": 3, "b.py": 1}


def test_src_code_lines(tmp_path):
    # Blank lines and lines that start with # after their indentation (a
    # comment, or such a line in a docstring) are left out; code with a
    # trailing comment and the other docstring lines count, and only
    # src/inar/*.py is read.
    pkg = tmp_path / "src" / "inar"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text('# head\n\n"""Doc.\n\n# in a docstring\n"""\nx = 1  # one\n'
                              '   \nif x:\n    # why\n    y = "#"\n')
    (pkg / "b.py").write_text("z = 3")
    (pkg / "notes.txt").write_text("1\n")
    (pkg / "sub" / "c.py").write_text("1\n")
    assert ab.src_code_lines(tmp_path) == 6
    assert ab.src_lines(tmp_path) == 11


@pytest.mark.parametrize("output, expected", [
    ("....\nACCEPTANCE 1 x: PASS\n554 passed in 29.50s\n", (554, 0, 0)),
    ("F.\n3 failed, 551 passed, 1 error in 31.02s\n", (551, 3, 1)),
    ("E\n2 errors in 0.41s\n", (0, 0, 2)),
    ("1 failed, 2 passed, 1 xpassed, 3 warnings in 65.00s (0:01:05)\n", (2, 1, 0)),
    ("no tests ran in 0.01s\n", (0, 0, 0)),
    ("Traceback (most recent call last):\nKeyboardInterrupt\n", (None, None, None)),
    ("", (None, None, None)),
], ids=["passed", "mixed", "errors", "xpassed", "none_ran", "interrupted", "empty"])
def test_pytest_counts(output, expected):
    got = ab.pytest_counts(output)
    assert (got["passed"], got["failed"], got["errors"]) == expected


def test_machine_names_the_blas_build():
    # The record names numpy's BLAS build, for which its digests hold.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = ab.machine_facts()
    assert facts["numpy"] == np.__version__
    assert facts["blas"] == {"name": blas["name"], "version": blas["version"],
                             "openblas configuration": blas.get("openblas configuration")}
    json.dumps(facts)


def test_child_env_writes_bytecode(monkeypatch, tmp_path):
    # Every child runs with bytecode writes on, and a side's children
    # import that side's package.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert "PYTHONDONTWRITEBYTECODE" not in ab.child_env()
    assert ab.child_env()["PYTHONPATH"] == "elsewhere"
    env = ab.child_env(tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env and env["PYTHONPATH"] == str(tmp_path / "src")


def test_cli_outputs(tmp_path):
    # The simulate, estimate --ci (p = 0, 1, 10, 20) and normality files of
    # one side, with this checkout's package, and the constant-rate paths
    # at a PTRS and an inversion rate with their p = 0 estimates, and the
    # paths just below the rate bound; a side compared with itself is
    # identical.
    rng = np.random.default_rng(5)
    values = rng.normal(size=(30, 2)).tolist()
    rows = [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(values, start=1)]
    samples = tmp_path / "samples.csv"
    samples.write_text("rep,mu_hat,beta_1\n" + "\n".join(rows) + "\n")
    out = ab.cli_outputs(ab.ROOT, tmp_path / "cli", samples)
    assert sorted(p.name for p in out.iterdir()) == [
        "estimate_p0.json", "estimate_p1.json", "estimate_p10.json", "estimate_p20.json",
        "iid_estimate_p0.json", "iid_low_estimate_p0.json", "iid_low_path.csv",
        "iid_path.csv", "near_bound_iid_path.csv", "near_bound_lags_path.csv",
        "normality.json", "path.csv"]
    assert (out / "path.csv").read_text().count("\n") == 1001
    for p in ab.ESTIMATE_LAGS:
        estimate = json.loads((out / f"estimate_p{p}.json").read_text())
        assert estimate["p"] == p and len(estimate["ci"]) == p + 1
    # Several blocks of the block sampler at a PTRS rate and at an inversion
    # rate, and the iid sandwich on each.
    assert ab.IID_NU >= 10 and ab.IID_LOW_NU < 10
    assert ab.IID_T > 2 * inar._kernels._STREAM_BLOCK
    for name in ("iid", "iid_low"):
        assert (out / f"{name}_path.csv").read_text().count("\n") == ab.IID_T + 1
        estimate = json.loads((out / f"{name}_estimate_p0.json").read_text())
        assert estimate["p"] == 0 and len(estimate["ci"]) == 1
    for _, _, name in ab.NEAR_BOUND:
        counts = [int(row.split(",")[1]) for row in
                  (out / f"{name}_path.csv").read_text().splitlines()[1:]]
        assert len(counts) == ab.NEAR_BOUND_T and 1e18 < min(counts) <= max(counts) < 2 ** 62
    assert list(json.loads((out / "normality.json").read_text())["normality"]) == [
        "mu_hat", "beta_1"]
    assert set(ab.diff_outputs(out, out).values()) == {"identical"}


def test_low_rate_study(tmp_path):
    # The low-rate, mixed-rate, capped and capped low-rate lane studies'
    # configs are written where they are asked for (the record's temporary
    # directory, not configs/) and parse as the studies they name. `inar
    # mc` runs on a side's configs/*_T1000.json, then on them; a side
    # compared with itself is identical. About half of the capped study's
    # replications overflow, and 63 of the capped low-rate study's.
    assert ab.STUDIES == (ab.LOW_RATE, ab.MIXED_RATE, ab.CAPPED, ab.CAPPED_LOW)
    path, mixed, capped, capped_low = (ab.write_config(tmp_path, s) for s in ab.STUDIES)
    for study, want in ((path, (10.5, (0.05,), 1, 1e9)), (mixed, (6.0, (0.5,), 1, 1e9)),
                        (capped, (100.0, (0.8,), 10, 577.0)),
                        (capped_low, (6.0, (0.5,), 1, 20.0))):
        assert study.parent == tmp_path and not (ab.ROOT / "configs" / study.name).exists()
        cfg = inar.parse_config(study.read_text())
        assert (cfg.params.nu, cfg.params.kernel, cfg.p, cfg.lam_cap, cfg.T, cfg.n_experiments,
                cfg.base_seed) == (*want, 200, 1000, ab.MC_SEED)
    assert (path.name, mixed.name, capped.name, capped_low.name) == (
        "low_rate_T200.json", "mixed_rate_T200.json", "capped_T200.json",
        "capped_low_T200.json")
    side = tmp_path / "side"
    (side / "configs").mkdir(parents=True)
    (side / "src").symlink_to(ab.ROOT / "src")
    small = json.loads((ab.ROOT / "configs" / "case2_T1000.json").read_text())
    small.update(T=30, p=1, n_experiments=10)
    (side / "configs" / "small_T1000.json").write_text(json.dumps(small))
    runs = dict(ab._mc_outputs(side, tmp_path / "mc", [path, capped, capped_low]))
    assert list(runs) == ["small_T1000", "low_rate_T200", "capped_T200", "capped_low_T200"]
    out = runs["low_rate_T200"]
    assert (out / "samples.csv").read_text().count("\n") == 1001
    assert set(ab.diff_outputs(out, out).values()) == {"identical"}
    out = runs["capped_T200"]
    assert json.loads((out / "mc_summary.json").read_text())["failures"] == 495
    assert (out / "samples.csv").read_text().count("\n") == 506
    out = runs["capped_low_T200"]
    assert json.loads((out / "mc_summary.json").read_text())["failures"] == 63
    assert (out / "samples.csv").read_text().count("\n") == 938
