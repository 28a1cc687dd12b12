"""End-to-end acceptance suite.

Runs the two study cases at T in {200, 500, 1000} with N=1000 replications
under the bundled base seed, then checks every published target: table
reproduction windows, the consistency trend, the normality pattern, the
estimator algebra, the analytic oracles, sandwich sanity, and raw sampler
statistics. Each criterion prints a single PASS/FAIL line.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest

import inar
from inar import CountPath, ModelParams, RngStream, ThetaVector


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def study(case1_params, case2_params):
    runs = {}
    times = {}
    for label, params in (("case1", case1_params), ("case2", case2_params)):
        for T in (200, 500, 1000):
            cfg = inar.McConfig(
                params=params,
                T=T,
                p=10,
                n_experiments=1000,
                base_seed=inar.DEFAULT_BASE_SEED,
            )
            t0 = time.perf_counter()
            runs[label, T] = inar.run_experiment(cfg)
            times[label, T] = time.perf_counter() - t0
    return {"runs": runs, "times": times}


def test_criterion_1_table1_case1(study):
    s = study["runs"]["case1", 1000]
    dt = study["times"]["case1", 1000]
    nu, a1 = s.mean_theta[0], s.mean_theta[1]
    ok = (
        99.5 <= nu <= 101.0
        and 0.240 <= a1 <= 0.258
        and 24.0 <= s.mse <= 36.0
        and s.rel_err_theta < 0.006
        and dt < 300.0
    )
    _line(
        1,
        "table1_case1_T1000",
        ok,
        f"mean_nu={nu:.4f} mean_a1={a1:.4f} mse={s.mse:.2f} "
        f"rel={100 * s.rel_err_theta:.3f}% runtime={dt:.1f}s",
    )
    assert ok


def test_criterion_2_consistency_trend(study):
    mses = {
        label: [study["runs"][label, T].mse for T in (200, 500, 1000)]
        for label in ("case1", "case2")
    }
    ok = all(m[0] > m[1] > m[2] for m in mses.values())
    _line(
        2,
        "mse_decreases_in_T",
        ok,
        f"case1={mses['case1'][0]:.2f}>{mses['case1'][1]:.2f}>{mses['case1'][2]:.2f} "
        f"case2={mses['case2'][0]:.2f}>{mses['case2'][1]:.2f}>{mses['case2'][2]:.2f}",
    )
    assert ok


def test_criterion_3_table2_case2(study):
    s = study["runs"]["case2", 1000]
    a1, a2 = s.mean_theta[1], s.mean_theta[2]
    ok = 0.790 <= a1 <= 0.808 and -0.01 <= a2 <= 0.01 and 40.0 <= s.mse <= 60.0
    _line(
        3,
        "table2_case2_T1000",
        ok,
        f"mean_a1={a1:.4f} mean_a2={a2:.5f} mse={s.mse:.2f}",
    )
    assert ok


def readme_study_rows():
    """The README "Bundled study" table: (case, T, [mean nu_hat, mean
    a1_hat, MSE] as printed)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Bundled study", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([12]) \| (\d+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                      section, flags=re.MULTILINE)
    return [(f"case{c}", int(T), list(cells)) for c, T, *cells in rows]


def test_readme_study_table(study):
    # The printed table is pinned behaviour: every cell must be the run's
    # value at the digits printed.
    rows = readme_study_rows()
    assert sorted((case, T) for case, T, _ in rows) == sorted(study["runs"])
    for case, T, printed in rows:
        s = study["runs"][case, T]
        for value, cell in zip((s.mean_theta[0], s.mean_theta[1], s.mse), printed):
            digits = len(cell.split(".")[1])
            assert f"{value:.{digits}f}" == cell, (case, T, value, cell)


def test_criterion_4_normality_pattern(study):
    d500 = inar.normality_suite(study["runs"]["case1", 500])
    d200 = inar.normality_suite(study["runs"]["case1", 200])
    p500 = [(d.report.jb_p, d.report.sw_p) for d in d500]
    p200 = [(d.report.jb_p, d.report.sw_p) for d in d200]
    ok_500 = all(jb > 0.01 and sw > 0.01 for jb, sw in p500)
    ok_200 = p200[0][0] < 0.05 and all(
        jb > 0.05 and sw > 0.05 for jb, sw in p200[1:]
    )
    ok = ok_500 and ok_200
    _line(
        4,
        "normality_T500_all_pass_T200_nu_fails",
        ok,
        f"T500 min_p={min(min(t) for t in p500):.4f}; "
        f"T200 nu_jb_p={p200[0][0]:.4f} "
        f"alpha_min_p={min(min(t) for t in p200[1:]):.4f}",
    )
    assert ok


def test_criterion_5_estimator_algebra(case1_params):
    path = inar.simulate_path(case1_params, 1000, RngStream(inar.DEFAULT_BASE_SEED, 1))
    sys_ = inar.build_design(path, 10)
    theta = inar.solve_cls(sys_)
    arr = theta.to_array()

    resid_ok = np.linalg.norm(sys_.Y @ arr - sys_.b) <= 1e-8 * max(
        1.0, np.linalg.norm(sys_.b)
    )

    rng = np.random.default_rng(0)
    quad_ok = True
    for _ in range(100):
        p = int(rng.integers(0, 8))
        s = inar.build_design(path, p)
        t = rng.normal(0.0, 30.0, size=p + 1)
        direct = inar.contrast(path, ThetaVector.from_array(t), p=p)
        quad = float(-2.0 * t @ s.b + t @ s.Y @ t)
        if abs(direct - quad) > 1e-10 * max(1.0, abs(quad)):
            quad_ok = False
            break

    grad = inar.contrast_gradient(sys_, theta)
    h = 1e-5
    fd_ok = True
    probe = arr + 0.1
    grad_probe = inar.contrast_gradient(sys_, ThetaVector.from_array(probe))
    for j in range(11):
        up, dn = probe.copy(), probe.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            inar.contrast(path, ThetaVector.from_array(up), p=10)
            - inar.contrast(path, ThetaVector.from_array(dn), p=10)
        ) / (2 * h)
        if abs(grad_probe[j] - fd) > 1e-6 * max(1.0, abs(fd)):
            fd_ok = False
            break

    gamma = inar.contrast(path, theta, p=10)
    expect = -float(arr @ sys_.b)
    min_ok = abs(gamma - expect) <= 1e-10 * max(1.0, abs(expect))

    hand = inar.solve_cls(inar.build_design(CountPath(counts=np.array([1, 2, 1])), 1))
    hand_ok = abs(hand.mu - 4.0 / 3.0) <= 1e-12 and abs(hand.betas[0]) <= 1e-12

    ok = resid_ok and quad_ok and fd_ok and min_ok and hand_ok
    _line(
        5,
        "estimator_algebra",
        ok,
        f"residual={resid_ok} quadratic_identity={quad_ok} "
        f"finite_diff={fd_ok} min_value={min_ok} hand_case={hand_ok}",
    )
    assert ok


def test_criterion_6_analytic_oracles(case1_params):
    def brute_renewal(kernel, n_max):
        al = np.zeros(n_max + 1)
        for i, a in enumerate(kernel):
            if i + 1 <= n_max:
                al[i + 1] = float(a)
        total = np.zeros(n_max + 1)
        power = al.copy()
        for _ in range(n_max):
            total += power
            nxt = np.zeros(n_max + 1)
            for i in range(1, n_max + 1):
                if power[i] != 0.0:
                    for j in range(1, n_max - i + 1):
                        nxt[i + j] += power[i] * al[j]
            power = nxt
        return total[1:]

    rng = np.random.default_rng(1)
    conv_ok = True
    for _ in range(10):
        q = int(rng.integers(1, 9))
        raw = rng.random(q) + 0.05
        kern = tuple(raw * (rng.uniform(0.1, 0.9) / raw.sum()))
        seq = inar.renewal_sequence(kern, 40)
        if np.max(np.abs(seq.values - brute_renewal(kern, 40))) > 1e-10:
            conv_ok = False
            break

    resub_ok = True
    kern = (0.3, 0.2, 0.1)
    y = rng.uniform(0.0, 20.0, size=30)
    x = inar.solve_renewal(y, kern)
    for n in range(1, 31):
        acc = y[n - 1] + sum(
            a * x[n - 1 - s] for s, a in enumerate(kern, start=1) if s < n
        )
        if abs(x[n - 1] - acc) > 1e-12 * max(1.0, abs(acc)):
            resub_ok = False
            break

    quarter = tuple(0.25 ** k for k in range(1, 21))
    seq = inar.renewal_sequence(quarter, 20)
    expect = 0.5 ** (np.arange(1, 21) + 1)
    halving_ok = bool(np.max(np.abs(seq.values - expect) / expect) <= 1e-12)

    rep = inar.moment_bounds(case1_params, horizon_T=200)
    bounds_ok = (
        abs(rep.mean_bound - 150.0) / 150.0 <= 1e-9
        and rep.second_moment_bound is not None
        and abs(rep.second_moment_bound - 23250.0) / 23250.0 <= 1e-9
    )

    ok = conv_ok and resub_ok and halving_ok and bounds_ok
    _line(
        6,
        "analytic_oracles",
        ok,
        f"convolution={conv_ok} resubstitution={resub_ok} "
        f"halving={halving_ok} bounds={bounds_ok}",
    )
    assert ok


def test_criterion_7_sandwich_sanity(study, case1_params):
    t0 = time.perf_counter()
    path = inar.simulate_path(ModelParams(nu=100.0), 100_000, RngStream(inar.DEFAULT_BASE_SEED))
    theta = inar.solve_cls(inar.build_design(path, 0))
    sigma = float(inar.sandwich_covariance(path, theta).Sigma_hat[0, 0])
    iid_ok = abs(sigma - 100.0) / 100.0 <= 0.05

    s = study["runs"]["case1", 1000]
    path1 = inar.simulate_path(case1_params, 1000, RngStream(inar.DEFAULT_BASE_SEED, 1))
    theta1 = inar.solve_cls(inar.build_design(path1, 10))
    cov1 = inar.sandwich_covariance(path1, theta1)
    pred = float(cov1.Sigma_hat[0, 0]) / 1000
    emp = float(s.per_component_samples[:, 0].var(ddof=1))
    var_ok = abs(pred - emp) / emp <= 0.5
    dt = time.perf_counter() - t0

    ok = iid_ok and var_ok and dt < 60.0
    _line(
        7,
        "sandwich_sanity",
        ok,
        f"iid_sigma={sigma:.2f} pred_var={pred:.3f} mc_var={emp:.3f} "
        f"ratio={pred / emp:.2f} runtime={dt:.1f}s",
    )
    assert ok


def test_criterion_8_sampler_statistics():
    x = inar.poisson_sample(150.0, RngStream(inar.DEFAULT_BASE_SEED), size=1_000_000)
    mean = float(x.mean())
    disp = float(x.var(ddof=1) / x.mean())
    mean_ok = abs(mean - 150.0) <= 3 * np.sqrt(150.0 / 1_000_000)
    disp_ok = 0.99 <= disp <= 1.01
    again = inar.poisson_sample(150.0, RngStream(inar.DEFAULT_BASE_SEED), size=1_000_000)
    det_ok = bool(np.array_equal(x, again))
    ok = mean_ok and disp_ok and det_ok
    _line(
        8,
        "sampler_statistics",
        ok,
        f"mean={mean:.4f} dispersion={disp:.5f} deterministic={det_ok}",
    )
    assert ok
