"""Command-line interface: subcommands, file formats, exit codes, errors."""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import inar
from inar.config import CONFIG_KEYS


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "nu": 100.0,
        "kernel": "geometric:0.25",
        "T": 150,
        "p": 3,
        "n_experiments": 40,
        "seed": 7,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_version(run_cli_process):
    proc = run_cli_process(["--version"])
    assert proc.returncode == 0
    assert inar.__version__ in proc.stdout


def test_simulate_zero_nu(tmp_path, run_cli):
    out = tmp_path / "path.csv"
    proc = run_cli(
        ["simulate", "--nu", 0, "--kernel", "none", "--T", 100, "--seed", 1,
         "--out", out]
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out)
    assert rows[0] == ["n", "x"]
    assert len(rows) == 101
    assert rows[1] == ["1", "0"] and rows[100] == ["100", "0"]
    assert all(r[1] == "0" for r in rows[1:])


def test_simulate_estimate_roundtrip(tmp_path, run_cli):
    path_csv = tmp_path / "path.csv"
    proc = run_cli(
        ["simulate", "--nu", 100, "--kernel", "geometric:0.25", "--T", 400,
         "--seed", 3, "--out", path_csv]
    )
    assert proc.returncode == 0, proc.stderr
    out_json = tmp_path / "est.json"
    proc = run_cli(["estimate", "--path", path_csv, "--p", 5, "--out", out_json])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_json.read_text())
    assert doc["p"] == 5 and doc["T"] == 400
    assert len(doc["beta_hat"]) == 5
    assert doc["residual_norm"] <= 1e-6
    assert 0.0 < doc["rcond"] <= 1.0
    assert doc["provenance"]["tool"] == "inar"
    # matches the library pipeline exactly
    lib_path = inar.read_path_csv(path_csv)
    theta = inar.solve_cls(inar.build_design(lib_path, 5))
    assert doc["mu_hat"] == theta.mu
    assert doc["beta_hat"] == list(theta.betas)


def test_estimate_stdout_and_ci(tmp_path, run_cli):
    path_csv = tmp_path / "path.csv"
    run_cli(["simulate", "--nu", 50, "--kernel", "lags:[0.3]", "--T", 500,
             "--seed", 4, "--out", path_csv])
    proc = run_cli(["estimate", "--path", path_csv, "--p", 2, "--ci"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["level"] == 0.95
    assert len(doc["se"]) == 3 and len(doc["ci"]) == 3
    lo, hi = doc["ci"][0]
    assert lo <= doc["mu_hat"] <= hi
    half = (hi - lo) / 2.0
    assert half == pytest.approx(1.959964 * doc["se"][0], rel=1e-6)


def test_mc_outputs_and_rerun_identical(tmp_path, run_cli, run_cli_process):
    # One run through a real ``python -m inar`` process, the rerun in process.
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = run_cli_process(["mc", "--config", cfg, "--out-dir", out1])
    p2 = run_cli(["mc", "--config", cfg, "--out-dir", out2])
    assert p1.returncode == 0 and p1.stderr == ""
    assert p2.returncode == 0
    for name in ("mc_summary.json", "samples.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for label in ("mu_hat", "beta_1", "beta_2"):
        assert (out1 / f"qq_{label}.csv").exists()
        assert (out1 / f"hist_{label}.csv").exists()

    doc = json.loads((out1 / "mc_summary.json").read_text())
    for key in ("case", "T", "p", "n_experiments", "base_seed", "mean_theta",
                "mse", "rel_err_theta", "rel_err_alpha", "failures", "normality"):
        assert key in doc
    assert doc["case"] == "geometric:0.25"
    assert doc["T"] == 150 and doc["p"] == 3
    assert doc["n_experiments"] == 40 and doc["base_seed"] == 7
    assert len(doc["mean_theta"]) == 4
    assert doc["failures"] == 0
    assert set(doc["normality"]) == {"mu_hat", "beta_1", "beta_2"}
    for block in doc["normality"].values():
        assert set(block) == {"jb_stat", "jb_p", "sw_stat", "sw_p"}
    assert doc["normality_samples"] == "raw"
    assert doc["n_success"] == 40
    assert len(doc["provenance"]["config_digest"]) == 16

    rows = read_rows(out1 / "samples.csv")
    assert rows[0] == ["rep", "mu_hat", "beta_1", "beta_2", "beta_3"]
    assert len(rows) == 41
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 41)]
    # repr floats round-trip exactly
    assert float(rows[1][1]) == doc["mean_theta"][0] * 0 + float(rows[1][1])

    qq = read_rows(out1 / "qq_mu_hat.csv")
    assert qq[0] == ["z", "value"] and len(qq) == 41
    hist = read_rows(out1 / "hist_mu_hat.csv")
    assert hist[0] == ["bin_left", "bin_right", "count"] and len(hist) == 31
    assert sum(int(r[2]) for r in hist[1:]) == 40


def test_mc_no_samples(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out, "--no-samples"])
    assert proc.returncode == 0
    assert (out / "mc_summary.json").exists()
    assert not (out / "samples.csv").exists()


def test_mc_seed_override(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s7", tmp_path / "s99"
    run_cli(["mc", "--config", cfg, "--out-dir", out1])
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out2, "--seed", 99])
    assert proc.returncode == 0
    doc = json.loads((out2 / "mc_summary.json").read_text())
    assert doc["base_seed"] == 99
    assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()


def test_normality_subcommand_matches_summary(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["mc", "--config", cfg, "--out-dir", out])
    summary = json.loads((out / "mc_summary.json").read_text())
    proc = run_cli(["normality", "--samples", out / "samples.csv"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for label in ("mu_hat", "beta_1", "beta_2"):
        for key in ("jb_stat", "jb_p", "sw_stat", "sw_p"):
            assert doc["normality"][label][key] == summary["normality"][label][key]


def test_mc_past_shapiro_wilk_range(tmp_path, run_cli):
    # 5001 replications are past Shapiro-Wilk's n <= 5000: the study is
    # written with sw_stat and sw_p null and Jarque-Bera kept, and inar
    # normality on its samples.csv gives the same.
    cfg = write_config(tmp_path, T=30, p=1, n_experiments=5001)
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["n_success"] == 5001
    proc = run_cli(["normality", "--samples", out / "samples.csv"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for label in ("mu_hat", "beta_1"):
        block = summary["normality"][label]
        assert block["sw_stat"] is None and block["sw_p"] is None
        assert 0.0 <= block["jb_p"] <= 1.0
        assert doc["normality"][label] == {**block, "sample_size": 5001}


def test_mc_too_few_replications_for_jarque_bera(tmp_path, run_cli):
    # 7 replications are too few for Jarque-Bera (n >= 8) but not for
    # Shapiro-Wilk (n >= 3): the study is written with jb_stat and jb_p
    # null, and inar normality on its samples.csv gives the same.
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", write_config(tmp_path, n_experiments=7), "--out-dir", out])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["n_success"] == 7
    proc = run_cli(["normality", "--samples", out / "samples.csv"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for label in ("mu_hat", "beta_1", "beta_2"):
        block = summary["normality"][label]
        assert block["jb_stat"] is None and block["jb_p"] is None
        assert 0.0 < block["sw_stat"] <= 1.0 and 0.0 <= block["sw_p"] <= 1.0
        assert doc["normality"][label] == {**block, "sample_size": 7}


def test_mc_few_successes_still_written(tmp_path, run_cli):
    # Case 2 under a cap most of its replications cross: 3 of 12 succeed.
    # The finished study is written in full, with Jarque-Bera null.
    cfg = write_config(tmp_path, kernel="lags:[0.8]", T=200, p=1, n_experiments=12, seed=11,
                       lambda_cap=560)
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "mc_summary.json").read_text())
    assert (summary["n_success"], summary["failures"]) == (3, 9)
    assert len(read_rows(out / "samples.csv")) == 4
    for block in summary["normality"].values():
        assert block["jb_stat"] is None and block["jb_p"] is None


def test_normality_component_selection(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["mc", "--config", cfg, "--out-dir", out])
    proc = run_cli(["normality", "--samples", out / "samples.csv",
                    "--components", "beta_3"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc["normality"]) == ["beta_3"]
    proc = run_cli(["normality", "--samples", out / "samples.csv",
                    "--components", "beta_3,beta_4"])
    assert_one_error_line(proc)
    assert proc.stderr == "inar: error: InarError: component 'beta_4' not present in samples CSV\n"


def test_estimate_singular_exits_one(tmp_path, run_cli):
    path_csv = tmp_path / "zeros.csv"
    run_cli(["simulate", "--nu", 0, "--kernel", "none", "--T", 50,
             "--seed", 1, "--out", path_csv])
    proc = run_cli(["estimate", "--path", path_csv, "--p", 2])
    assert proc.returncode == 1
    err = proc.stderr.strip()
    assert "\n" not in err
    assert err.startswith("inar: error:")
    assert "SingularDesign" in err


@pytest.mark.parametrize("body, named", [
    ("1,3\n2\n", "line 3: expected 2 fields"),
    ("1,3\n2,abc\n", "line 3: count 'abc' is not an integer"),
    ("1,3\n5,2\n1,7\n", "line 3: step n='5', expected n=2"),
    ("1,99999999999999999999\n2,3\n3,4\n",
     "line 2: count '99999999999999999999' does not fit in int64"),
    # The message counts the fields; it does not echo a row of any size.
    pytest.param("1,3\n2,5," + "9" * 100_000 + "\n", "line 3: expected 2 fields, got 3",
                 id="wide-row"),
])
def test_estimate_malformed_csv_row(tmp_path, run_cli, body, named):
    path_csv = tmp_path / "bad.csv"
    path_csv.write_text("n,x\n" + body)
    proc = run_cli(["estimate", "--path", path_csv, "--p", 1])
    assert proc.returncode == 1
    err = proc.stderr.strip()
    assert "\n" not in err
    assert err.startswith("inar: error: ValueError: path CSV ")
    assert named in err and len(err) < 200


def test_unknown_config_key(tmp_path, run_cli):
    cfg = write_config(tmp_path, alpha_decay=0.5)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "ParseError" in proc.stderr
    assert "alpha_decay" in proc.stderr


def test_invalid_nu_named(tmp_path, run_cli):
    # A config's nu is refused by the model check, as a simulation's is.
    cfg = write_config(tmp_path, nu=-1.0)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "NonStationaryKernel" in proc.stderr
    assert "nu" in proc.stderr


def test_missing_required_flag_usage_error(run_cli, tmp_path):
    proc = run_cli(["simulate", "--nu", 1, "--kernel", "none",
                    "--seed", 1, "--out", tmp_path / "x.csv"])
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize(
    "spec", ["none", "geometric:0.25", "lags:[0.5,0.25]", "lags:[0.8]"]
)
def test_kernel_grammar_accepted(tmp_path, run_cli, spec):
    out = tmp_path / "p.csv"
    proc = run_cli(["simulate", "--nu", 10, "--kernel", spec, "--T", 20,
                    "--seed", 2, "--out", out])
    assert proc.returncode == 0, proc.stderr
    assert len(read_rows(out)) == 21


@pytest.mark.parametrize(
    "spec,err",
    [
        ("banana", "ParseError"),
        ("geometric:1.5", "ValueError"),
        ("geometric:abc", "ParseError"),
        ("lags:[0.5,-0.1]", "NonStationaryKernel"),
        ("lags:[0.5,oops]", "ParseError"),
    ],
)
def test_kernel_grammar_rejected(tmp_path, run_cli, spec, err):
    proc = run_cli(["simulate", "--nu", 10, "--kernel", spec, "--T", 20,
                    "--seed", 2, "--out", tmp_path / "p.csv"])
    assert proc.returncode == 1
    assert err in proc.stderr


def test_geometric_kernel_near_one_rejected_at_once(tmp_path, run_cli):
    # Built out to its 1e-12 truncation, this kernel would hold about
    # 2.8e10 terms; it ends once its sum reaches 1 and is rejected.
    start = time.perf_counter()
    proc = run_cli(["simulate", "--nu", 10, "--kernel", "geometric:0.999999999", "--T", 20,
                    "--seed", 2, "--out", tmp_path / "p.csv"])
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(proc)
    assert "NonStationaryKernel" in proc.stderr


def test_malformed_config_json(tmp_path, run_cli):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "ParseError" in proc.stderr


def test_missing_config_key(tmp_path, run_cli):
    doc = {"nu": 1.0, "kernel": "none", "T": 10, "p": 1, "seed": 1}
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "n_experiments" in proc.stderr


def test_parse_kernel_spec_library_surface():
    assert inar.parse_kernel_spec("none") == ()
    assert inar.parse_kernel_spec("lags:[0.5,0.25]") == (0.5, 0.25)
    geo = inar.parse_kernel_spec("geometric:0.5")
    assert geo[0] == 0.5 and len(geo) > 10
    with pytest.raises(inar.ParseError):
        inar.parse_kernel_spec("spline:3")


def assert_one_line_error(proc, kind):
    assert proc.returncode == 1
    err = proc.stderr.strip()
    assert "\n" not in err and err.startswith("inar: error:")
    assert kind in err


@pytest.mark.parametrize(
    "flags",
    [["--nu", "inf"], ["--nu", "nan"], ["--nu", 10, "--lambda-cap", "inf"],
     ["--nu", 10, "--lambda-cap", "nan"]],
)
def test_simulate_non_finite_rejected(tmp_path, run_cli, flags):
    proc = run_cli(["simulate", *flags, "--kernel", "none", "--T", 5, "--seed", 1,
                    "--out", tmp_path / "p.csv"])
    assert_one_line_error(proc, "finite")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_simulate_cap_must_be_positive(tmp_path, run_cli, cap):
    # A cap of 0 or less is refused before anything is simulated, not
    # reported as an intensity overflow at step 1; no file is written.
    out = tmp_path / "p.csv"
    proc = run_cli(["simulate", "--nu", 0, "--kernel", "none", "--T", 5, "--seed", 1,
                    "--lambda-cap", cap, "--out", out])
    assert_one_line_error(proc, f"ValueError: lambda_cap must be > 0, got {float(cap)}")
    assert not out.exists()


def test_simulate_count_beyond_int64(tmp_path, run_cli):
    # A rate of 1e20, whose counts would pass int64, passes a cap of 1e300
    # but not the bound 2**62: one error line naming the bound and the
    # step, no numpy cast warning, no file.
    out = tmp_path / "p.csv"
    proc = run_cli(["simulate", "--nu", "1e20", "--kernel", "none", "--T", 3, "--seed", 1,
                    "--lambda-cap", "1e300", "--out", out])
    assert_one_line_error(proc, "Overflow: intensity exceeded cap 4.61169e+18 at step 1")
    assert proc.stderr.strip().endswith("at step 1")
    assert not out.exists()


@pytest.mark.parametrize("ci", [[], ["--ci"]])
def test_estimate_invalid_level(tmp_path, run_cli, ci):
    # The level is checked before the path is read (this one does not
    # exist), with or without --ci: it would go into the provenance.
    out = tmp_path / "est.json"
    proc = run_cli(["estimate", "--path", tmp_path / "missing.csv", "--p", 3,
                    "--level", 7, *ci, "--out", out])
    assert_one_line_error(proc, "InvalidLevel: level must be in (0, 1), got 7.0")
    assert not out.exists()


@pytest.mark.parametrize("text, shown", [
    pytest.param(text, shown, id=text) for text, shown in [
        ('"nu": Infinity', "NonStationaryKernel: nu and all kernel entries must be finite"),
        ('"nu": NaN', "NonStationaryKernel: nu and all kernel entries must be finite"),
        ('"lambda_cap": Infinity', "ValueError: lambda_cap must be finite, got inf"),
        ('"kernel": "lags:[0.5,NaN]"',
         "NonStationaryKernel: nu and all kernel entries must be finite"),
    ]
])
def test_config_non_finite_rejected(tmp_path, run_cli, text, shown):
    doc = {"nu": 100.0, "kernel": "none", "T": 20, "p": 1, "n_experiments": 10, "seed": 1}
    body = ", ".join(f'"{k}": {json.dumps(v)}' for k, v in doc.items() if f'"{k}"' not in text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{" + body + ", " + text + "}")
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert_one_line_error(proc, shown)


def test_mc_summary_strict_json_zero_kernel(tmp_path, run_cli):
    # The true kernel is zero at p > 0, so the relative alpha error is
    # infinite: written as null, and the file parses as strict JSON.
    cfg = write_config(tmp_path, kernel="none", p=2, n_experiments=20)
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out])
    assert proc.returncode == 0, proc.stderr

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((out / "mc_summary.json").read_text(), parse_constant=reject)
    assert doc["rel_err_alpha"] is None
    assert isinstance(doc["rel_err_theta"], float)


def test_mc_overflow_counted_not_fatal(tmp_path, run_cli):
    # Stationary mean 1000 against a cap of 1200: some replications
    # overflow and are counted as failures.
    cfg = write_config(tmp_path, nu=100.0, kernel="lags:[0.9]", T=200, p=1,
                       n_experiments=40, seed=3, lambda_cap=1200.0)
    out = tmp_path / "out"
    proc = run_cli(["mc", "--config", cfg, "--out-dir", out])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "mc_summary.json").read_text())
    assert 0 < doc["failures"] < 40
    assert doc["n_success"] + doc["failures"] == 40


def assert_one_error_line(proc):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("inar: error: ")


@pytest.mark.parametrize("spec, norm", [
    ("lags:[0.6,0.6]", "1.2"),
    ("lags:[1e200]", "1e+200"),
    ("lags:[1e308,1e308]", "inf"),
])
def test_nonstationary_kernel_one_error_line(tmp_path, run_cli, spec, norm):
    # A finite kernel whose norms overflow is rejected like any other,
    # with no floating-point warning before the error line.
    line = f"inar: error: NonStationaryKernel: kernel has l1 norm {norm} >= 1\n"
    out = tmp_path / "p.csv"
    proc = run_cli(["simulate", "--nu", 10, "--kernel", spec, "--T", 20,
                    "--seed", 2, "--out", out])
    assert_one_error_line(proc)
    assert proc.stderr == line and not out.exists()
    cfg = write_config(tmp_path, kernel=spec)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "mc"])
    assert_one_error_line(proc)
    assert proc.stderr == line and not (tmp_path / "mc").exists()


@pytest.mark.parametrize("stream_id", [-1, 2 ** 64, 2 ** 65])
def test_simulate_stream_id_out_of_range(tmp_path, run_cli, stream_id):
    # Ids wrap modulo 2**64 in the generator, so -1 would alias 2**64 - 1.
    out = tmp_path / "path.csv"
    proc = run_cli(["simulate", "--nu", 5, "--kernel", "none", "--T", 3,
                    "--seed", 1, "--stream-id", stream_id, "--out", out])
    assert_one_error_line(proc)
    assert "stream_id" in proc.stderr and not out.exists()


def test_simulate_largest_stream_id(tmp_path, run_cli):
    out = tmp_path / "path.csv"
    proc = run_cli(["simulate", "--nu", 5, "--kernel", "none", "--T", 3,
                    "--seed", 1, "--stream-id", 2 ** 64 - 1, "--out", out])
    assert proc.returncode == 0
    path = inar.simulate_path(inar.ModelParams(nu=5.0), 3, inar.RngStream(1, 2 ** 64 - 1))
    assert inar.read_path_csv(out).counts.tolist() == path.counts.tolist()


@pytest.mark.parametrize("row, named", [
    ("11,nan,0.3", "line 3: value 'nan' is not a finite number"),
    ("11,0.1,-inf", "line 3: value '-inf' is not a finite number"),
    ("11,abc,0.3", "line 3: value 'abc' is not a finite number"),
    ("11,,0.3", "line 3: value '' is not a finite number"),
    ("11,0.1", "line 3: expected 3 fields, got 2"),
    ("11,0.1,0.3,0.5", "line 3: expected 3 fields, got 4"),
    ("11,1_00.5,0.3", "line 3: value '1_00.5' is not a finite number"),
    ("11, 0.5,0.3", "line 3: value ' 0.5' is not a finite number"),
    ("x,0.1,0.3", "line 3: rep 'x' is not an integer (digits 0-9 only)"),
])
def test_normality_bad_sample_row_named(tmp_path, run_cli, row, named):
    samples = tmp_path / "samples.csv"
    samples.write_text("rep,mu_hat,beta_1\n10,0.1,0.2\n" + row + "\n12,0.2,0.1\n")
    proc = run_cli(["normality", "--samples", samples])
    assert_one_error_line(proc)
    assert f"samples CSV {named}" in proc.stderr


def test_normality_overflowing_sample_one_error_line(tmp_path, run_cli):
    # Finite values near 1e200, whose moments overflow float64 unscaled.
    # Such a sample was one DomainError line until the diagnostics scaled
    # each sample by a power of two into (-1, 1). Now the run succeeds, and
    # its statistics are those of the same sample at unit scale (2**-664
    # scales exactly), bit for bit.
    values = np.random.default_rng(3).normal(size=40)
    docs = []
    for exp in (664, 0):
        samples = tmp_path / f"samples_{exp}.csv"
        rows = np.ldexp(values, exp).tolist()
        samples.write_text("rep,mu_hat\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(rows)))
        out = tmp_path / f"n_{exp}.json"
        proc = run_cli(["normality", "--samples", samples, "--out", out])
        assert proc.returncode == 0 and proc.stderr == ""
        docs.append(json.loads(out.read_text())["normality"])
    assert docs[0] == docs[1]
    assert all(math.isfinite(v) for v in docs[0]["mu_hat"].values())


@pytest.mark.parametrize("seed", [2 ** 64 + 5, -(2 ** 64) - 5])
def test_seed_flag_must_fit_in_64_bits(tmp_path, run_cli, seed):
    # --seed and the config's seed share one check and one message.
    cfg = write_config(tmp_path)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "a", "--seed", seed])
    assert_one_error_line(proc)
    err = proc.stderr
    assert err == f"inar: error: ValidationError: seed: must fit in 64 bits, got {seed}\n"
    assert not (tmp_path / "a").exists()
    bad = write_config(tmp_path, name="bad.json", seed=seed)
    assert run_cli(["mc", "--config", bad, "--out-dir", tmp_path / "b"]).stderr == err
    proc = run_cli(["simulate", "--nu", 5, "--kernel", "none", "--T", 3,
                    "--seed", seed, "--out", tmp_path / "p.csv"])
    assert_one_error_line(proc)
    assert proc.stderr == err and not (tmp_path / "p.csv").exists()


# 10**15 float64 counts are 7 PiB, beyond the address space: the allocation
# fails at once, before any draw.
HUGE = 10 ** 15


@pytest.mark.parametrize("kernel", ["none", "geometric:0.25"])
def test_simulate_unallocatable_length(tmp_path, run_cli, kernel):
    # The block sampler and the scalar loop both allocate their counts
    # before the first step.
    out = tmp_path / "p.csv"
    proc = run_cli(["simulate", "--nu", 3, "--kernel", kernel,
                    "--T", HUGE, "--seed", 1, "--out", out])
    assert_one_error_line(proc)
    assert proc.stderr.startswith("inar: error: MemoryError: ") and not out.exists()


@pytest.mark.parametrize("key", ["T", "n_experiments"])
def test_mc_unallocatable_size(tmp_path, run_cli, key):
    cfg = write_config(tmp_path, **{key: HUGE})
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "o"])
    assert_one_error_line(proc)
    assert proc.stderr.startswith("inar: error: MemoryError: ")
    assert not (tmp_path / "o").exists()


def test_runtime_imports_no_scipy(tmp_path):
    # The runtime is numpy plus the standard library; scipy is test-only.
    cfg = write_config(tmp_path, T=60, p=2, n_experiments=20)
    code = (
        "import sys\n"
        "import inar, inar.cli\n"
        f"assert inar.cli.main(['mc', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "mc_summary.json").exists()


# Malformed input, by construction: every case must exit 1 with one stderr
# line and nothing on stdout.

VALID_CONFIG = {"nu": 100.0, "kernel": "geometric:0.25", "T": 150, "p": 3,
                "n_experiments": 40, "seed": 7, "cap_negatives": True,
                "lambda_cap": 1e9, "case": "case 1"}
assert set(VALID_CONFIG) == set(CONFIG_KEYS)

_non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
_beyond_float = st.integers(min_value=2 ** 1024, max_value=2 ** 1100)
_not_number = st.one_of(st.text(max_size=8), st.booleans(), st.none(),
                        st.lists(st.integers(), max_size=2))
_not_int = st.one_of(_not_number, st.floats())
_finite_lag = st.floats(min_value=0.0, allow_infinity=False)
_bad_kernel = st.one_of(
    st.sampled_from(["", "banana", "geometric:", "geometric:abc", "lags:[", "lags:[0.5,oops]",
                     "lags:[0.6,0.6]", "lags:[0.5,NaN]", "geometric:inf"]),
    st.floats(min_value=1.0).map(lambda r: f"geometric:{r!r}"),
    st.floats(max_value=0.0).map(lambda r: f"geometric:{r!r}"),
    st.floats(max_value=-1e-300).map(lambda a: f"lags:[0.5,{a!r}]"),
    # Finite lags of any size, one of them at least 1: l1 >= 1, and from
    # about 1e154 on the norms overflow.
    st.tuples(st.lists(_finite_lag, max_size=3),
              st.floats(min_value=1.0, allow_infinity=False),
              st.lists(_finite_lag, max_size=3)).map(
        lambda t: f"lags:[{','.join(map(repr, [*t[0], t[1], *t[2]]))}]"),
)
WRONG_TYPE = {
    "nu": _not_number,
    "lambda_cap": _not_number,
    "T": _not_int,
    "p": _not_int,
    "n_experiments": _not_int,
    "seed": _not_int,
    "kernel": st.one_of(st.floats(), st.integers(), st.booleans(), st.none()),
    "cap_negatives": st.one_of(st.integers(), st.text(max_size=4), st.none()),
    "case": st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
}
OUT_OF_RANGE = {
    "nu": st.one_of(st.floats(max_value=-1e-300), _non_finite, _beyond_float),
    "lambda_cap": st.one_of(st.floats(max_value=0.0), _non_finite, _beyond_float),
    "T": st.integers(max_value=0),
    "p": st.one_of(st.integers(max_value=-1), st.integers(min_value=150, max_value=10 ** 30)),
    "n_experiments": st.integers(max_value=0),
    "seed": st.one_of(st.integers(min_value=2 ** 64), st.integers(max_value=-(2 ** 64))),
    "kernel": _bad_kernel,
}


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


def _with(key, value):
    return {**VALID_CONFIG, key: value}


bad_configs = st.one_of(
    st.sampled_from(sorted(k for k, req in CONFIG_KEYS.items() if req)).map(
        lambda key: json.dumps({k: v for k, v in VALID_CONFIG.items() if k != key})),
    st.text(min_size=1, max_size=12).filter(lambda key: key not in CONFIG_KEYS).map(
        lambda key: json.dumps(_with(key, 1))),
    st.sampled_from(sorted(WRONG_TYPE)).flatmap(
        lambda key: WRONG_TYPE[key].map(lambda v: json.dumps(_with(key, v)))),
    st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
        lambda key: OUT_OF_RANGE[key].map(lambda v: json.dumps(_with(key, v)))),
    st.text(max_size=40).filter(_not_json),
    st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(max_size=8)).map(json.dumps),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=bad_configs)
def test_malformed_config_one_error_line(tmp_path, run_cli, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    assert_one_error_line(run_cli(["mc", "--config", cfg, "--out-dir", out_dir]))
    assert not out_dir.exists()


# A value out of range has one owner in the library, and it reads the same
# on every route: a config (read for format only), a flag, or Python. Each
# rule: the config key and its bad value, the CLI flags that carry the same
# value (None where no flag does), and the call to its owner.

def _simulate(nu=100.0, kernel=inar.geometric_kernel(0.25), T=150, lam_cap=1e9):
    return inar.simulate_path(inar.ModelParams(nu, kernel), T, inar.RngStream(7), lam_cap)


VALUE_RULES = {
    "nu_finite": (("nu", math.inf), ["simulate", "--nu", "inf"],
                  lambda: _simulate(nu=math.inf)),
    "nu_nonnegative": (("nu", -1.0), ["simulate", "--nu", "-1"], lambda: _simulate(nu=-1.0)),
    "lambda_cap_finite": (("lambda_cap", math.inf), ["simulate", "--lambda-cap", "inf"],
                          lambda: _simulate(lam_cap=math.inf)),
    "T_positive": (("T", 0), ["simulate", "--T", "0"], lambda: _simulate(T=0)),
    "p_nonnegative": (("p", -1), ["estimate", "--p", "-1"],
                      lambda: inar.build_design(_simulate(), -1)),
    "p_below_T": (("p", 150), ["estimate", "--p", "150"],
                  lambda: inar.build_design(_simulate(), 150)),
    "n_experiments_positive": (
        ("n_experiments", 0), None,
        lambda: inar.McConfig(inar.ModelParams(100.0, inar.geometric_kernel(0.25)), T=150,
                              p=3, n_experiments=0, base_seed=7)),
    "geometric_ratio": (("kernel", "geometric:1.5"), ["simulate", "--kernel", "geometric:1.5"],
                        lambda: inar.geometric_kernel(1.5)),
    "lag_entries": (("kernel", "lags:[0.5,-0.1]"), ["simulate", "--kernel", "lags:[0.5,-0.1]"],
                    lambda: _simulate(kernel=(0.5, -0.1))),
}


@pytest.mark.parametrize("rule", list(VALUE_RULES))
def test_value_rule_same_line_on_every_route(tmp_path, run_cli, rule):
    (key, value), flags, owner = VALUE_RULES[rule]
    with pytest.raises((inar.InarError, ValueError)) as info:
        owner()
    line = f"inar: error: {info.typename}: {info.value}\n"

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with(key, value)))
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "out"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line)

    if flags is not None:
        command, flag, text = flags
        if command == "simulate":
            given = {"--nu": "100", "--kernel": "geometric:0.25", "--T": "150", "--seed": "7",
                     flag: text}
            args = ["simulate", *sum(given.items(), ()), "--out", tmp_path / "p.csv"]
        else:
            inar.write_path_csv(_simulate(), tmp_path / "p.csv")
            args = ["estimate", "--path", tmp_path / "p.csv", flag, text]
        proc = run_cli(args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line)


def _path_rows(counts):
    return [f"{n},{x}" for n, x in enumerate(counts, start=1)]


def _replace_row(counts, make_row):
    # Row i (1-based step) of a valid path replaced by make_row(i, counts).
    return st.integers(1, len(counts)).flatmap(
        lambda i: make_row(i, counts).map(
            lambda row: _path_rows(counts)[: i - 1] + [row] + _path_rows(counts)[i:]))


def _not_digits(text):
    # A count is digits 0-9 only: int() would also take "+4", " 4", "1_0".
    return not (text.isascii() and text.isdigit())


_row_defects = [
    lambda i, c: st.sampled_from([f"{i}", f"{i},{c[i - 1]},0", f"{i};{c[i - 1]}"]),
    lambda i, c: st.one_of(
        st.sampled_from(["abc", "1.5", "", "nan", "1e3", "0x10", "3 4", "1_0", " 4", "+4"]),
        st.text(alphabet="0123456789.e+-x ", min_size=1, max_size=8).filter(_not_digits),
    ).map(lambda x: f"{i},{x}"),
    lambda i, c: st.integers(-(10 ** 6), 10 ** 6).filter(lambda n: n != i).map(
        lambda n: f"{n},{c[i - 1]}"),
    lambda i, c: st.one_of(st.integers(min_value=2 ** 63), st.integers(max_value=-(2 ** 63) - 1),
                           st.integers(-(2 ** 63), -1)).map(lambda x: f"{i},{x}"),
    lambda i, c: st.just(f"{i},{'9' * 200_000}"),
]


def bad_paths():
    counts = st.lists(st.integers(0, 1000), min_size=3, max_size=30)
    return st.one_of(
        counts.flatmap(lambda c: st.sampled_from(_row_defects).flatmap(
            lambda make_row: _replace_row(c, make_row))).map(lambda rows: "n,x\n" + "\n".join(rows)),
        counts.flatmap(lambda c: st.sampled_from(["", "x,n", "n", "n,x,y", "step,count"]).map(
            lambda header: header + "\n" + "\n".join(_path_rows(c)))),
        counts.map(lambda c: "\n".join(_path_rows(c))),
        st.sampled_from(["", "n,x\n"]),
    )


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=bad_paths())
def test_malformed_path_csv_one_error_line(tmp_path, run_cli, text):
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(text + "\n")
    assert_one_error_line(run_cli(["estimate", "--path", path_csv, "--p", 1]))


def _sample_rows(values):
    return [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(values, start=1)]


# Each is rejected by the samples grammar: int() or float() would take
# several of them.
_BAD_VALUES = ["abc", "", "nan", "inf", "-inf", "1e999", "1_0", " 1", "1 ", "0x10", "1e5",
               "1E+05", ".5", "5.", "++1", "٣"]
_BAD_REPS = ["x", "", "-1", "+1", " 1", "1_0", "1.0", "٣"]
_sample_defects = [
    lambda i, row: st.sampled_from(_BAD_VALUES).map(lambda v: f"{i},{row[0]!r},{v}"),
    lambda i, row: st.sampled_from(_BAD_REPS).map(lambda r: f"{r},{row[0]!r},{row[1]!r}"),
    lambda i, row: st.sampled_from([f"{i},{row[0]!r}", f"{i},{row[0]!r},{row[1]!r},0.5"]),
]


def bad_samples():
    values = st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=8, max_size=20)

    def with_defect(vals):
        return st.tuples(st.integers(0, len(vals) - 1), st.sampled_from(_sample_defects)).flatmap(
            lambda kd: kd[1](kd[0] + 1, vals[kd[0]]).map(
                lambda row: _sample_rows(vals)[: kd[0]] + [row] + _sample_rows(vals)[kd[0] + 1:]))

    return st.one_of(
        values.flatmap(with_defect).map(lambda rows: "rep,mu_hat,beta_1\n" + "\n".join(rows)),
        values.flatmap(lambda v: st.sampled_from(["", "mu_hat,beta_1", "Rep,mu_hat,beta_1"]).map(
            lambda header: header + "\n" + "\n".join(_sample_rows(v)))),
        st.sampled_from(["", "rep,mu_hat,beta_1\n"]),
    )


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=bad_samples())
def test_malformed_samples_csv_one_error_line(tmp_path, run_cli, text):
    samples = tmp_path / "samples.csv"
    samples.write_text(text + "\n")
    proc = run_cli(["normality", "--samples", samples])
    assert_one_error_line(proc)
    assert proc.stderr.startswith("inar: error: ValueError: samples CSV ")
