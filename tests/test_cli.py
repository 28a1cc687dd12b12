"""Command-line interface: subcommands, file formats, exit codes, errors."""

import csv
import json

import numpy as np
import pytest

import inar


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


def test_version(run_cli):
    proc = run_cli(["--version"])
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


def test_mc_outputs_and_rerun_identical(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = run_cli(["mc", "--config", cfg, "--out-dir", out1])
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


def test_normality_component_selection(tmp_path, run_cli):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["mc", "--config", cfg, "--out-dir", out])
    proc = run_cli(["normality", "--samples", out / "samples.csv",
                    "--components", "beta_3"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc["normality"]) == ["beta_3"]


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
])
def test_estimate_malformed_csv_row(tmp_path, run_cli, body, named):
    path_csv = tmp_path / "bad.csv"
    path_csv.write_text("n,x\n" + body)
    proc = run_cli(["estimate", "--path", path_csv, "--p", 1])
    assert proc.returncode == 1
    err = proc.stderr.strip()
    assert "\n" not in err
    assert err.startswith("inar: error: ValueError: path CSV ")
    assert named in err


def test_unknown_config_key(tmp_path, run_cli):
    cfg = write_config(tmp_path, alpha_decay=0.5)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "ParseError" in proc.stderr
    assert "alpha_decay" in proc.stderr


def test_invalid_nu_named(tmp_path, run_cli):
    cfg = write_config(tmp_path, nu=-1.0)
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert proc.returncode == 1
    assert "ValidationError" in proc.stderr
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
        ("geometric:1.5", "ValidationError"),
        ("geometric:abc", "ParseError"),
        ("lags:[0.5,-0.1]", "ValidationError"),
        ("lags:[0.5,oops]", "ParseError"),
    ],
)
def test_kernel_grammar_rejected(tmp_path, run_cli, spec, err):
    proc = run_cli(["simulate", "--nu", 10, "--kernel", spec, "--T", 20,
                    "--seed", 2, "--out", tmp_path / "p.csv"])
    assert proc.returncode == 1
    assert err in proc.stderr


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


@pytest.mark.parametrize(
    "text", ['"nu": Infinity', '"nu": NaN', '"lambda_cap": Infinity',
             '"kernel": "lags:[0.5,NaN]"']
)
def test_config_non_finite_rejected(tmp_path, run_cli, text):
    doc = {"nu": 100.0, "kernel": "none", "T": 20, "p": 1, "n_experiments": 10, "seed": 1}
    body = ", ".join(f'"{k}": {json.dumps(v)}' for k, v in doc.items() if f'"{k}"' not in text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{" + body + ", " + text + "}")
    proc = run_cli(["mc", "--config", cfg, "--out-dir", tmp_path / "x"])
    assert_one_line_error(proc, "ValidationError")


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
