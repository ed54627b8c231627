"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 3 and 4 sweep
the full dyadic resolution ladders and dominate the runtime; stated wall
clock budgets are asserted alongside the tolerances.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from saltpde.cli import cmd_simulate, linear_strong_error, parse_config
from saltpde.estimates import (CoefficientBank, check_growth, check_difference,
                               check_cancellation, check_kato_ponce,
                               check_helmholtz_commutator)
from saltpde.models import ModelState, make_initial_state
from saltpde.noise import sample_path
from saltpde.solver import SimConfig, run_path, stability_experiment, step_ito_em
from saltpde.spectral import (Grid, bessel_multiplier, derivative,
                              from_values, riesz_perp, sobolev_norm, sup_norm,
                              to_grid)
from spectral_helpers import grid_inner, l2_inner, mollify_j


def report(num, label, ok, detail=""):
    print("ACCEPTANCE %s: %s - %s %s" % (num, "PASS" if ok else "FAIL",
                                         label, detail))
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_operator_exactness():
    t0 = time.time()
    n_fields = 100
    tol = 1e-12

    g = Grid(256)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(n_fields):
        c = np.zeros(256, dtype=np.complex128)
        k = np.arange(1, 80)
        c[k] = rng.standard_normal(79) + 1j * rng.standard_normal(79)
        f = from_values(g, np.real(np.fft.ifft(c * 256)))
        scale = max(1.0, np.max(np.abs(f)))

        # multiplier composition
        a = bessel_multiplier(g, bessel_multiplier(g, f, 1.7), -0.9)
        b = bessel_multiplier(g, f, 0.8)
        worst = max(worst, np.max(np.abs(a - b)) / scale)

        # [D^s, J_eps] = 0 and [D^s, H] = 0
        c1 = bessel_multiplier(g, mollify_j(g, f, 0.1), 2.0) \
            - mollify_j(g, bessel_multiplier(g, f, 2.0), 0.1)
        worst = max(worst, np.max(np.abs(c1)) / scale)
        from saltpde.spectral import hilbert_transform
        c2 = bessel_multiplier(g, hilbert_transform(g, f), 2.0) \
            - hilbert_transform(g, bessel_multiplier(g, f, 2.0))
        worst = max(worst, np.max(np.abs(c2)) / scale)

        # Parseval
        h = from_values(g, rng.standard_normal(256))
        gi = grid_inner(to_grid(g, f), to_grid(g, h))
        si = l2_inner(g, f, h)
        worst = max(worst, abs(gi - si) / max(1.0, abs(gi)))

    g2 = Grid(256, dim=2)
    rng2 = np.random.default_rng(1002)
    for _ in range(n_fields):
        vals = rng2.standard_normal(g2.shape)
        vals -= vals.mean()
        th = from_values(g2, vals)
        u1, u2 = riesz_perp(g2, th)
        div = derivative(g2, u1, 0) + derivative(g2, u2, 1)
        worst = max(worst, np.max(np.abs(div))
                    / max(1.0, np.max(np.abs(th))))

    elapsed = time.time() - t0
    ok = worst <= tol and elapsed < 10.0
    assert report(1, "operator exactness", ok,
                  "(worst=%.2e, %.1fs)" % (worst, elapsed))


def test_criterion_2_mollifier_rates():
    t0 = time.time()
    s, delta = 4.0, 0.1
    g = Grid(2048)
    bank = CoefficientBank(1, np.random.default_rng(1003), kbig=1024)
    u = bank.field(g, s + 0.5 + delta, g.kmax_dealias)
    u = (1.0 / sobolev_norm(g, u, s)) * u
    eps_list = [2.0 ** -j for j in range(3, 9)]

    ok = True
    detail = []
    for r in (2.0, 3.0):
        errs = [sobolev_norm(g, u - mollify_j(g, u, e), r) for e in eps_list]
        slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
        detail.append("slope(s=4,r=%g)=%.3f" % (r, slope))
        ok = ok and slope >= (s - r) - 0.2

    # smoothing gain for r > s: eps^(s-r)-scaled norm ratio stays bounded
    s2, r2 = 2.0, 4.0
    u2 = bank.field(g, s2 + 0.5 + delta, g.kmax_dealias)
    u2 = (1.0 / sobolev_norm(g, u2, s2)) * u2
    gains = [sobolev_norm(g, mollify_j(g, u2, e), r2) * e ** (r2 - s2)
             for e in eps_list]
    bounded = max(gains) < 4.0 * min(gains)
    detail.append("gain-spread=%.2f" % (max(gains) / min(gains)))
    ok = ok and bounded

    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    assert report(2, "mollifier rates", ok,
                  "(%s, %.1fs)" % (", ".join(detail), elapsed))


def test_criterion_3_cancellation():
    t0 = time.time()
    rep = check_cancellation(s=4.0, resolutions=(64, 128, 256, 512, 1024))
    elapsed = time.time() - t0
    ok = (rep.exponent < 0.1
          and rep.details["uncancelled_exponent"] >= 0.5
          and rep.details["const_xi_relative"] < 1e-10
          and elapsed < 120.0)
    assert report(3, "Lie cancellation", ok,
                  "(exp=%.3f, uncancelled=%.2f, const-xi=%.1e, %.1fs)"
                  % (rep.exponent, rep.details["uncancelled_exponent"],
                     rep.details["const_xi_relative"], elapsed))


def test_criterion_4_estimate_suites():
    t0 = time.time()
    reports = [check_kato_ponce(), check_helmholtz_commutator()]
    for model in ("sch2", "ccf", "sqg"):
        reports.append(check_growth(model))
        reports.append(check_difference(model))
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 300.0
    detail = "; ".join("%s exp=%+.3f" % (r.estimate_id, r.exponent)
                       for r in reports)
    assert report(4, "Kato-Ponce / Helmholtz commutator / growth / difference suites",
                  ok, "(%s, %.0fs)" % (detail, elapsed))


# ---------------------------------------------------------------------------

def test_criterion_5a_deterministic_ch_energy():
    cfg = SimConfig(model="sch2", n=256, dt=1e-4, t_end=1.0, s=6.0,
                    noise_k=0, noise_s_max=8.0, ic_amplitude=0.02,
                    record_every=1000)
    ops = cfg.build_ops()
    X0 = cfg.initial_state(cfg.grid()).coeffs
    rec = run_path(cfg, ops)
    drift = abs(ops.energy(rec.final_state) - ops.energy(X0)) / ops.energy(X0)
    ok = drift < 1e-4 and not rec.stopped
    assert report("5a", "deterministic two-component CH energy", ok,
                  "(relative drift=%.2e)" % drift)


def test_criterion_5b_deterministic_ccf_sup():
    cfg = SimConfig(model="ccf", n=256, dt=2e-4, t_end=0.5, s=4.0,
                    noise_k=0, noise_s_max=6.0, ic_amplitude=0.2,
                    record_every=500)
    g = cfg.grid()
    X0 = cfg.initial_state(g)
    rec = run_path(cfg, cfg.build_ops())
    drift = abs(sup_norm(g, rec.final_state[0]) - sup_norm(g, X0.coeffs[0])) \
        / sup_norm(g, X0.coeffs[0])
    ok = drift < 1e-3 and rec.stop_reason in ("end", "blowup_indicator")
    assert report("5b", "deterministic CCF sup norm", ok,
                  "(relative drift=%.2e, stop=%s)" % (drift, rec.stop_reason))


def test_criterion_5c_sqg_l2_drift_slope():
    base = SimConfig(model="sqg", n=64, dt=1e-3, t_end=0.25, s=4.5,
                     noise_k=4, noise_s_max=6.5, ic_amplitude=0.5, seed=7,
                     record_every=10 ** 9, scheme="strat_heun")
    g = base.grid()
    l20 = sobolev_norm(g, base.initial_state(g).coeffs[0], 0.0)
    dts = (1e-3, 5e-4, 2.5e-4)
    drifts = []
    for dt in dts:
        rec = run_path(replace(base, dt=dt), base.build_ops())
        drifts.append(abs(sobolev_norm(g, rec.final_state[0], 0.0) - l20) / l20)
    slope = float(np.polyfit(np.log(dts), np.log(drifts), 1)[0])
    ok = 0.7 <= slope <= 1.3
    assert report("5c", "SQG Stratonovich-Heun pathwise L2 drift", ok,
                  "(fitted slope=%.3f, drifts=%s)"
                  % (slope, ["%.1e" % d for d in drifts]))


def test_criterion_5d_mean_conservation_eta_sqg():
    cfg = SimConfig(model="sch2", n=128, dt=1e-3, t_end=0.2, s=6.0,
                    noise_k=4, noise_s_max=8.0, ic_amplitude=0.1, seed=5,
                    record_every=50)
    rec = run_path(cfg, cfg.build_ops())
    eta_drift = abs(rec.final_state[1, 0].real)

    cfg2 = SimConfig(model="sqg", n=64, dt=1e-3, t_end=0.1, s=4.5,
                     noise_k=4, noise_s_max=6.5, ic_amplitude=0.4, seed=6,
                     record_every=20)
    rec2 = run_path(cfg2, cfg2.build_ops())
    sqg_drift = abs(rec2.final_state[0, 0, 0].real)

    ok = eta_drift < 1e-12 and sqg_drift < 1e-12
    assert report("5d", "spatial mean of eta and SQG theta in noisy runs", ok,
                  "(eta=%.1e, sqg theta=%.1e)" % (eta_drift, sqg_drift))


@pytest.mark.xfail(strict=True, reason=(
    "the nonlocal transport term -(H theta) theta_x has spatial mean "
    "+sum_k |k||theta_k|^2 > 0, so the CCF theta mean is not conserved; "
    "the same statement's own worked example (g = 1/2 - cos(2x)/2 for "
    "theta = cos x) already has mean 1/2.  See the decisions ledger."))
def test_criterion_5d_mean_conservation_ccf():
    cfg = SimConfig(model="ccf", n=128, dt=1e-3, t_end=0.2, s=4.0,
                    noise_k=4, noise_s_max=6.0, ic_amplitude=0.1, seed=5,
                    record_every=50)
    X0 = cfg.initial_state(cfg.grid())
    rec = run_path(cfg, cfg.build_ops())
    drift = abs(rec.final_state[0, 0].real - X0.coeffs[0, 0].real)
    report("5d", "spatial mean of CCF theta in noisy runs",
           drift < 1e-12, "(drift=%.2e; not conserved by the model)" % drift)
    assert drift < 1e-12


# ---------------------------------------------------------------------------

def test_criterion_6_scheme_consistency():
    t0 = time.time()
    base = SimConfig(model="sch2", n=128, dt=1e-3, t_end=0.2, s=6.0,
                     noise_k=4, noise_s_max=12.0, ic_amplitude=0.3, seed=42,
                     record_every=10 ** 9)
    ops = base.build_ops()
    dists = []
    for i in range(5):
        cfg = replace(base, dt=1e-3 / 2 ** i)
        em = run_path(replace(cfg, scheme="ito_em"), ops)
        he = run_path(replace(cfg, scheme="strat_heun"), ops)
        dists.append(ops.z_norm(em.final_state - he.final_state))
    monotone = all(a > b for a, b in zip(dists, dists[1:]))

    # EM strong order on the linear test SDE against the exact solution
    from saltpde.cli import ExperimentSpec
    sim = SimConfig(model="linear", n=8, dt=1.0 / 16, t_end=1.0,
                    ic_amplitude=1.0, linear_a=1.0, seed=100,
                    record_every=10 ** 9, noise_k=1)
    spec = ExperimentSpec(command="converge", sim=sim, ensemble=128,
                          dt_ladder=tuple(1.0 / 2 ** j for j in range(4, 9)))
    ladder, errs, order = linear_strong_error(spec)
    order_ok = abs(order - 0.5) <= 0.15

    ok = monotone and order_ok
    assert report(6, "EM/Heun scheme consistency", ok,
                  "(distances=%s, EM strong order=%.3f, %.0fs)"
                  % (["%.2e" % d for d in dists], order, time.time() - t0))


def test_criterion_7_stability_uniqueness():
    cfg = SimConfig(model="ccf", n=128, dt=1e-3, t_end=0.2, s=4.0,
                    noise_k=4, noise_s_max=6.0, ic_amplitude=0.2, seed=11,
                    record_every=10 ** 9)
    grid = cfg.grid()
    X0 = cfg.initial_state(grid)

    def perturbed(delta):
        bump = from_values(grid, delta * np.cos(grid.x))
        return ModelState("ccf", grid, (X0.coeffs[0] + bump,))

    ops = cfg.build_ops()
    rep0 = stability_experiment(cfg, ops, X0, ModelState("ccf", grid, X0.coeffs))
    rep1 = stability_experiment(cfg, ops, X0, perturbed(1e-6))
    rep2 = stability_experiment(cfg, ops, X0, perturbed(1e-7))
    agree = abs(rep1.ratio - rep2.ratio) <= 0.2 * rep2.ratio
    ok = rep0.sup_distance < 1e-13 and agree
    assert report(7, "same-noise stability / uniqueness", ok,
                  "(zero-delta dist=%.1e, ratios %.6f vs %.6f)"
                  % (rep0.sup_distance, rep1.ratio, rep2.ratio))


def test_criterion_8_cutoff_semantics(tmp_path):
    # below-R run is byte-identical under doubling of R
    text = """
model = sch2
n = 64
dt = 1e-3
t_end = 0.05
seed = 13
noise_k = 2
ic_amplitude = 0.1
cutoff_r = 50.0
"""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    spec = parse_config(str(cfg_path), command="simulate")
    spec.out = str(tmp_path / "r1")
    cmd_simulate(spec)
    spec2 = parse_config(str(cfg_path), command="simulate")
    spec2.sim.cutoff_r = 100.0
    spec2.out = str(tmp_path / "r2")
    cmd_simulate(spec2)
    t1 = (tmp_path / "r1" / "traj_13.txt").read_bytes()
    t2 = (tmp_path / "r2" / "traj_13.txt").read_bytes()
    identical = t1 == t2

    # beyond 2R the stepper is an exact fixed point
    sim = spec.sim
    grid = sim.grid()
    ops = sim.build_ops(grid)
    X = make_initial_state("sch2", grid, "smooth", 500.0).coeffs
    assert ops.v_norm(X) > 2 * sim.cutoff_r
    dw = sample_path(1, sim.dt, 1, 2).increments[0]
    X1 = step_ito_em(X, ops, dw, sim.dt, sim.cutoff_r)
    fixed = (np.array_equal(X1[0], X[0])
             and np.array_equal(X1[1], X[1]))

    ok = identical and fixed
    assert report(8, "cut-off semantics", ok,
                  "(byte-identical=%s, fixed-point=%s)" % (identical, fixed))


def test_criterion_9_reproducibility(tmp_path):
    text = """
model = ccf
n = 64
dt = 1e-3
t_end = 0.02
seed = 30
noise_k = 2
ensemble = 8
ic_amplitude = 0.1
"""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)

    spec = parse_config(str(cfg_path), command="simulate")
    spec.out = str(tmp_path / "a")
    cmd_simulate(spec)

    # re-run from the manifest alone
    spec_m = parse_config(str(tmp_path / "a" / "manifest.txt"),
                          command="simulate")
    spec_m.out = str(tmp_path / "b")
    cmd_simulate(spec_m)
    same = all((tmp_path / "a" / f).read_bytes()
               == (tmp_path / "b" / f).read_bytes()
               for f in ["stats.txt"] + ["traj_%d.txt" % s
                                         for s in range(30, 38)])

    # 1 vs 8 workers
    spec_w = parse_config(str(cfg_path), command="simulate")
    spec_w.out = str(tmp_path / "w8")
    spec_w.workers = 8
    cmd_simulate(spec_w)
    same_workers = (tmp_path / "a" / "stats.txt").read_bytes() \
        == (tmp_path / "w8" / "stats.txt").read_bytes()

    ok = same and same_workers
    assert report(9, "reproducibility", ok,
                  "(manifest-rerun=%s, worker-independence=%s)"
                  % (same, same_workers))
