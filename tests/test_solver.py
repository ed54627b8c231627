import re

import numpy as np
import pytest
from dataclasses import replace

from saltpde.models import ModelState, make_initial_state
from saltpde.noise import sample_path
from saltpde.solver import (SimConfig, chi_cutoff, read_trajectory,
                            run_path, stability_experiment, step_ito_em,
                            step_strat_heun, write_trajectory)
from saltpde.spectral import Grid, from_values, lipschitz_bound


def test_chi_cutoff_values():
    R = 3.0
    assert chi_cutoff(0.0, R) == 1.0
    assert chi_cutoff(R, R) == 1.0
    assert chi_cutoff(2 * R, R) == 0.0
    assert chi_cutoff(10 * R, R) == 0.0
    mid = chi_cutoff(1.5 * R, R)
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError):
        chi_cutoff(1.0, 0.5)


def test_chi_cutoff_monotone_and_slope():
    R = 4.0
    v = np.linspace(0.0, 3 * R, 1000)
    vals = np.array([chi_cutoff(float(x), R) for x in v])
    assert np.all(np.diff(vals) <= 1e-15)
    slope = np.max(np.abs(np.diff(vals) / np.diff(v)))
    assert slope <= 4.0 / R


def em_cfg(**kw):
    base = dict(model="sch2", n=64, dt=1e-3, t_end=0.02, s=6.0, noise_k=2,
                noise_s_max=8.0, ic_amplitude=0.1, seed=1, record_every=1)
    base.update(kw)
    return SimConfig(**base)


def test_zero_state_is_fixed_point():
    cfg = em_cfg(ic="zero")
    rec = run_path(cfg)
    assert rec.hs_norms[-1] == 0.0
    assert not rec.stopped


def test_cutoff_kills_step_entirely():
    cfg = em_cfg(cutoff_r=1.0 + 1e-9)   # V-norm of the state far exceeds 2R
    grid = cfg.grid()
    ops = cfg.build_ops(grid)
    X = make_initial_state("sch2", grid, "smooth", 50.0).coeffs
    assert ops.v_norm(X) > 2 * cfg.cutoff_r
    path = sample_path(1, cfg.dt, 4, 2)
    X1 = step_ito_em(X, ops, path.increments[0], cfg.dt, cfg.cutoff_r)
    assert X1 is X or (np.array_equal(X1[0], X[0])
                       and np.array_equal(X1[1], X[1]))


def test_em_step_recomposition_oracle():
    cfg = em_cfg()
    grid = cfg.grid()
    ops = cfg.build_ops(grid)
    X = cfg.initial_state(grid).coeffs
    dw = sample_path(3, cfg.dt, 1, 2).increments[0]
    out = step_ito_em(X, ops, dw, cfg.dt, cfg.cutoff_r)
    chi = chi_cutoff(ops.v_norm(X), cfg.cutoff_r)
    manual = X + (chi * chi * cfg.dt) * (ops.b(X) + ops.g_eps(X))
    for k in range(2):
        manual = manual + (chi * dw[k]) * ops.h_eps_k(X, k)
    assert np.max(np.abs(out[0] - manual[0])) < 1e-13
    assert np.max(np.abs(out[1] - manual[1])) < 1e-13


def test_heun_reduces_to_rk2_without_noise():
    cfg = em_cfg(noise_k=0)
    grid = cfg.grid()
    ops = cfg.build_ops(grid)
    X = cfg.initial_state(grid).coeffs
    dw = np.zeros(0)
    out = step_strat_heun(X, ops, dw, cfg.dt, cfg.cutoff_r)

    def F(Y):
        return ops.b(Y) + ops.g_eps_transport(Y)

    pred = X + cfg.dt * F(X)
    rk2 = X + (0.5 * cfg.dt) * (F(X) + F(pred))
    assert np.max(np.abs(out[0] - rk2[0])) < 1e-13


def test_run_path_t_end_zero():
    cfg = em_cfg(t_end=0.0)
    rec = run_path(cfg)
    assert len(rec.times) == 1
    assert not rec.stopped
    assert rec.stop_reason == "end"


def test_stop_threshold_below_initial_norm():
    cfg = em_cfg(n_stop=1e-6)
    rec = run_path(cfg)
    assert rec.stopped
    assert rec.tau == 0.0
    assert rec.stop_reason == "threshold"


def test_stopping_time_monotone_in_threshold():
    # tau is non-decreasing as the threshold N_stop grows
    cfg = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, t_end=0.2,
                 ic_amplitude=0.3, record_every=1)
    ops = cfg.build_ops()
    base = run_path(cfg)
    norms = np.array(base.hs_norms)
    lo, hi = norms.min(), norms.max()
    taus = []
    for n_stop in (0.5 * lo, 0.5 * (lo + hi), 1.1 * hi):
        rec = run_path(replace(cfg, n_stop=float(n_stop)))
        taus.append(rec.tau if rec.stopped else np.inf)
    assert taus[0] <= taus[1] <= taus[2]


def test_cfl_guard():
    # dt * max|H theta| = 0.15 > dx/2 = 0.049 on the initial state: the run
    # stops there, with one row at tau = 0, instead of raising
    cfg = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, dt=0.05, t_end=0.1,
                 ic_amplitude=3.0, noise_k=0)
    rec = run_path(cfg)
    assert rec.stopped
    assert rec.stop_reason == "cfl"
    assert rec.tau == 0.0
    assert rec.times == [0.0]
    # noise drives the EM state past the guard after some steps: tau is the
    # time of the offending state, whose row ends the record exactly once,
    # whether or not record_every = 3 had already recorded it
    for amp, steps in ((1.1, 8), (1.2, 3)):
        late = run_path(em_cfg(model="ccf", s=4.0, noise_s_max=6.0, dt=0.04,
                               t_end=2.0, ic_amplitude=amp, noise_k=4,
                               record_every=3, blowup_factor=1e9))
        assert late.stop_reason == "cfl"
        assert late.tau == steps * 0.04
        assert late.times[-1] == late.tau
        assert late.times.count(late.tau) == 1


def test_cfl_check_takes_the_exact_velocity_where_the_bound_exceeds_it(
        monkeypatch):
    # sqg at 32^2: sup|u| = 0.96 and its coefficient bound B = 2.60 on the
    # initial state, against dx/2 = 0.098.  At dt = 1/16, dt*B exceeds dx/2
    # but dt*sup|u| does not: every check takes the exact sup and the run
    # goes on; at dt = 1/8 the velocity itself breaks the guard and the run
    # stops with "cfl" at tau = 0; at dt = 2^-10 the bound decides every
    # check, and no exact sup is taken
    from saltpde import models
    calls = []
    exact = models.SqgOps._sup_velocity
    monkeypatch.setattr(models.SqgOps, "_sup_velocity",
                        lambda self, X: calls.append(X) or exact(self, X))
    kw = dict(model="sqg", n=32, s=4.5, noise_k=2, noise_s_max=6.5, seed=3,
              scheme="strat_heun", ic_amplitude=0.5)
    for dt, reason, checks in ((1 / 16, "end", 4), (1 / 8, "cfl", 1),
                               (2.0 ** -10, "end", 0)):
        calls.clear()
        rec = run_path(SimConfig(dt=dt, t_end=4 * dt, **kw))
        assert (rec.stop_reason, len(calls)) == (reason, checks), dt
        assert rec.tau == (0.0 if reason == "cfl" else 4 * dt)


def test_blowup_indicator_on_steepening_gradients():
    # nonlocal transport steepens gradients; the V-functional growth flag
    # must stop the run with the dedicated reason before the final time
    cfg = SimConfig(model="ccf", n=128, dt=1e-3, t_end=2.0, s=4.0,
                    noise_k=0, noise_s_max=6.0, ic_amplitude=0.5,
                    blowup_factor=1.5, record_every=100)
    rec = run_path(cfg)
    assert rec.stopped
    assert rec.stop_reason == "blowup_indicator"
    assert rec.tau < 2.0
    assert rec.v_norms[-1] >= 1.5 * rec.v_norms[0]


def test_divergence_flagged():
    # drift coefficient overflows in one step: flagged, not crashed
    cfg = SimConfig(model="linear", n=8, dt=1.0, t_end=3.0, ic_amplitude=1.0,
                    linear_a=1e200, noise_k=1, record_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run_path(cfg)
    assert rec.stopped
    assert rec.stop_reason == "diverged"
    assert rec.tau == 1.0


def test_finite_state_with_overflowing_norm_ends_at_threshold():
    # one step takes X from 1e150 to about 5e155: every coefficient is
    # finite, but |X|^2 overflows, so the H^s norm reads inf; the run stops
    # at the threshold, not as diverged
    cfg = SimConfig(model="linear", n=8, dt=1.0, t_end=3.0, linear_a=1e3,
                    noise_k=1, cutoff_r=1e300, n_stop=1e200, record_every=1,
                    seed=4)
    grid = cfg.grid()
    X0 = ModelState("linear", grid, [from_values(grid, np.full(8, 1e150))])
    with np.errstate(over="ignore"):
        rec = run_path(cfg, X0=X0)
    assert np.isfinite(rec.final_state).all()
    assert rec.stop_reason == "threshold" and rec.tau == 1.0
    assert rec.hs_norms == [1e150, np.inf]


def test_linear_step_norm_budget(monkeypatch):
    # a linear step of run_path evaluates the H^s norm once: its V-norm is
    # the same norm of the same state
    import saltpde.models as models
    import saltpde.spectral as spectral
    calls = []

    def counted(*args, _fn=spectral.sobolev_norm):
        calls.append(1)
        return _fn(*args)
    monkeypatch.setattr(models, "sobolev_norm", counted)
    counts = []
    for steps in (1, 2):
        cfg = SimConfig(model="linear", n=8, dt=1.0 / 16, t_end=steps / 16,
                        noise_k=1, seed=100, ic_amplitude=1.0)
        calls.clear()
        rec = run_path(cfg)
        assert rec.stop_reason == "end" and len(rec.times) == steps + 1
        counts.append(len(calls))
    assert counts[1] - counts[0] == 1


def test_cutoff_idempotence_same_trajectory():
    # V-norm never exceeds R: doubling R gives the identical trajectory
    cfg = em_cfg(cutoff_r=50.0, t_end=0.05)
    a = run_path(cfg)
    b = run_path(replace(cfg, cutoff_r=100.0))
    assert a.hs_norms == b.hs_norms
    assert np.array_equal(a.final_state[0], b.final_state[0])


def test_mean_conserved_in_noisy_runs():
    cfg = em_cfg(t_end=0.1, noise_k=3)
    rec = run_path(cfg)
    assert abs(rec.final_state[1, 0].real) < 1e-12

    cfg2 = SimConfig(model="sqg", n=32, dt=1e-3, t_end=0.05, s=4.5,
                     noise_k=3, noise_s_max=6.5, ic_amplitude=0.3, seed=2,
                     record_every=10)
    rec2 = run_path(cfg2)
    assert abs(rec2.final_state[0, 0, 0].real) < 1e-12


def test_trajectory_round_trip(tmp_path):
    cfg = em_cfg(t_end=0.02, record_every=2)
    rec = run_path(cfg)
    fn = str(tmp_path / "traj.txt")
    write_trajectory(rec, fn)
    back = read_trajectory(fn)
    assert back.times == rec.times
    assert back.hs_norms == rec.hs_norms
    assert back.v_norms == rec.v_norms
    assert back.stopped == rec.stopped
    assert back.tau == rec.tau
    assert back.stop_reason == rec.stop_reason


def test_stability_identical_initial_data():
    cfg = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, t_end=0.05)
    grid = cfg.grid()
    X0 = cfg.initial_state(grid)
    rep = stability_experiment(cfg, X0, ModelState("ccf", grid, X0.coeffs))
    assert rep.distance0 == 0.0
    assert rep.sup_distance < 1e-14
    assert np.isnan(rep.ratio)


def test_stability_linear_response():
    cfg = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, t_end=0.1,
                 ic_amplitude=0.2)
    grid = cfg.grid()
    X0 = cfg.initial_state(grid)

    def perturbed(delta):
        bump = from_values(grid, delta * np.cos(grid.x))
        return ModelState("ccf", grid, (X0.coeffs[0] + bump,))

    r1 = stability_experiment(cfg, X0, perturbed(1e-6))
    r2 = stability_experiment(cfg, X0, perturbed(1e-7))
    assert abs(r1.ratio - r2.ratio) < 0.2 * r2.ratio
    assert r1.ratio < 10.0


def test_stability_ratio_stable_under_dt_halving():
    base = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, t_end=0.1,
                  ic_amplitude=0.2)
    grid = base.grid()
    X0 = base.initial_state(grid)
    bump = from_values(grid, 1e-6 * np.cos(grid.x))
    Y0 = ModelState("ccf", grid, (X0.coeffs[0] + bump,))
    ratios = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        rep = stability_experiment(replace(base, dt=dt), X0, Y0)
        ratios.append(rep.ratio)
    print("stability ratios over dt:", ratios)
    assert max(ratios) < 1.5 * min(ratios)


def test_heun_step_matches_frozen_oracle():
    # one h_eps_k(X, k) per noise index and step gives the same step bit for bit
    import oracle_ops
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.models import make_ops
    from saltpde.noise import build_basis_1d, build_basis_sqg
    from saltpde.spectral import Grid
    dw = np.array([0.03, 0.0, -0.02, 0.01])
    for model, g, s, build in (("sch2", Grid(128), 6.0, build_basis_1d),
                               ("sqg", Grid(64, dim=2), 4.5, build_basis_sqg)):
        ops = make_ops(model, g, s, build(g, 4, s + 2.0), 0.0625)
        X = corpus_state(model, g, s, corpus_banks(g.dim, 1, 31, 2)[0])
        X = (3.0 / ops.v_norm(X)) * X          # V-norm 3: chi_R = 1/2 at R = 2
        for R in (2.0, 1e6):
            got = step_strat_heun(X, ops, dw, 1e-3, R)
            want = oracle_ops.step_strat_heun(X, ops, dw, 1e-3, R)
            assert np.array_equal(got, want), (model, R)


def test_em_step_matches_frozen_oracle():
    # the stacked h_eps_k(X, ks) gives the per-index step bit for bit
    import oracle_ops
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.models import make_ops
    from saltpde.noise import build_basis_1d
    from saltpde.spectral import Grid
    dw = np.array([0.03, 0.0, -0.02, 0.01])
    for model, g, s in (("ccf", Grid(256), 4.0), ("sch2", Grid(128), 6.0)):
        ops = make_ops(model, g, s, build_basis_1d(g, 4, s + 2.0), 0.0625)
        X = corpus_state(model, g, s, corpus_banks(g.dim, 1, 31, 2)[0])
        X = (3.0 / ops.v_norm(X)) * X          # V-norm 3: chi_R = 1/2 at R = 2
        chis = [chi_cutoff(ops.v_norm(X), R) for R in (2.0, 1e6)]
        assert 0.0 < chis[0] < 1.0 and chis[1] == 1.0
        for R in (2.0, 1e6):
            got = step_ito_em(X, ops, dw, 1e-3, R)
            want = oracle_ops.step_ito_em(X, ops, dw, 1e-3, R)
            assert np.array_equal(got, want), (model, R)


def test_ccf_em_step_fft_budget(fft_calls):
    # one ccf Ito-EM step of run_path at n = 256, K = 4, with its CFL check
    # and its V-norm, makes 7 transforms over 7936 points: 2 for the
    # transport product (512 + 256 points), 2 for the stacked first-order
    # terms L_k(JX) that the Ito sum and the h^k share (512 + 2048), 2 for
    # the second-order terms (2048 + 2048) and 1 for v_norm (512); the CFL
    # check reads the velocity's coefficient bound
    counts = []
    for steps in (1, 2):
        cfg = SimConfig(model="ccf", n=256, dt=1e-3, t_end=steps * 1e-3,
                        s=4.0, noise_k=4, seed=3)
        assert np.all(sample_path(3, cfg.dt, steps, 4).increments != 0.0)
        fft_calls.clear()
        rec = run_path(cfg)
        assert rec.stop_reason == "end" and len(rec.times) == steps + 1
        counts.append((len(fft_calls), sum(fft_calls)))
    assert counts[1][0] - counts[0][0] == 7
    assert counts[1][1] - counts[0][1] == 7936


def per_step_transforms(fft_calls, run, **kw):
    """(transforms, real passes) one more step adds to run(cfg) for the
    SimConfig kw: a 1D transform or a 2D one of a whole spectrum is one
    numpy call, a 2D one of a half spectrum a complex and a real pass."""
    counts, real = [], []
    for steps in (1, 2):
        cfg = SimConfig(t_end=steps * kw["dt"], **kw)
        assert np.all(sample_path(cfg.seed, cfg.dt, steps,
                                  cfg.noise_k).increments != 0.0)
        fft_calls.clear()
        run(cfg)
        counts.append(len(fft_calls))
        real.append(len(fft_calls.real_passes))
    return counts[1] - counts[0], real[1] - real[0]


def test_sqg_heun_step_fft_budget(fft_calls):
    # one sqg Stratonovich-Heun step of run_path at 64^2, K = 4, with its
    # CFL check and its V-norm, makes 12 transforms: 3 of half spectra for
    # each of the two transport products (one inverse of each pair
    # (u_i, d_i theta), one forward of their dot product), and one of a
    # whole spectrum per real field for the monitor's v_norm (6); the CFL
    # check reads the velocity's coefficient bound and the noise operators
    # make none.  The predictor's chi_R comes from its coefficient bound at
    # R = 1e6; with R below that bound its v_norm runs, 6 more
    kw = dict(model="sqg", n=64, dt=1e-3, s=4.5, noise_k=4, noise_s_max=6.5,
              seed=3, scheme="strat_heun", ic_amplitude=0.5)
    grid = Grid(64, dim=2)
    X0 = SimConfig(**kw).initial_state(grid).coeffs
    assert 2.0 < lipschitz_bound(grid, X0) < 1e6

    def run(cfg):
        rec = run_path(cfg)
        assert rec.stop_reason == "end" and len(rec.times) == cfg.n_steps() + 1
    assert per_step_transforms(fft_calls, run, cutoff_r=1e6, **kw) == (12, 6)
    assert per_step_transforms(fft_calls, run, cutoff_r=2.0, **kw) == (18, 6)


def test_stability_step_pair_fft_budget(fft_calls):
    # one step of stability_experiment steps X and Y (ccf Ito-EM, n = 128,
    # K = 4): 6 transforms each, 2 for the transport product and 2 each for
    # the first- and second-order Lie terms.  chi_R comes from the
    # coefficient bound and the H^s and H^{s-2} monitors are coefficient
    # sums; with R below the bound each state's v_norm adds 1 transform
    kw = dict(model="ccf", n=128, dt=1e-3, s=4.0, noise_k=4,
              noise_s_max=6.0, seed=11, ic_amplitude=1.0)
    grid = Grid(128)
    X0 = SimConfig(**kw).initial_state(grid)
    bump = from_values(grid, [1e-6 * np.cos(grid.x)])
    Y0 = ModelState("ccf", grid, X0.coeffs + bump)
    assert 2.0 * lipschitz_bound(grid, X0.coeffs) > 3.0

    def run(cfg):
        assert stability_experiment(cfg, X0, Y0).n_steps_used == cfg.n_steps()
    assert per_step_transforms(fft_calls, run, cutoff_r=1e6, **kw) == (12, 0)
    assert per_step_transforms(fft_calls, run, cutoff_r=1.5, **kw) == (14, 0)


GUARD_SETUPS = {"sch2": (64, 6.0), "ccf": (128, 4.0), "sqg": (32, 4.5),
                "linear": (8, 1.0)}


def guard_corpus(model):
    """The model's ops and a corpus of states: critical-corpus (rough) and
    band-limited white-noise states at three scales, the smooth initial
    state, and single modes, where the bound is nearly attained."""
    from saltpde.estimates import corpus_banks, corpus_state
    n, s = GUARD_SETUPS[model]
    cfg = SimConfig(model=model, n=n, s=s, noise_k=1 if model == "linear" else 4,
                    noise_s_max=s + 2.0)
    grid = cfg.grid()
    ops = cfg.build_ops(grid)
    rng = np.random.default_rng(29)
    shape = ops.shape
    bases = [cfg.initial_state(grid).coeffs]
    for banks in corpus_banks(grid.dim, 3, 37, per_state=2):
        if model == "linear":
            bases.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        else:
            bases.append(corpus_state(model, grid, s, banks))
        noise = from_values(grid, rng.standard_normal(shape[:1] + grid.shape))
        noise *= grid.dealias_keep
        if model == "sqg":
            noise[..., 0, 0] = 0.0
        bases.append(noise)
    for m in (1, 3, grid.kmax_dealias):
        vals = np.cos(m * grid.nodes()[0])
        bases.append(np.stack([from_values(grid, vals)] * shape[0]))
    states = [scale * X for X in bases for scale in (1e-3, 1.0, 1e3)]
    return ops, states


@pytest.mark.parametrize("model", sorted(GUARD_SETUPS))
def test_v_norm_is_bounded_by_the_coefficient_bound(model):
    ops, states = guard_corpus(model)
    tight = 0.0
    for X in states:
        v, bound = ops.v_norm(X), 2.0 * lipschitz_bound(ops.grid, X)
        assert v <= bound, (model, v, bound)
        tight = max(tight, v / bound)
    # the bound is not slack by more than 2: a single mode (a constant for
    # linear) attains half of it or more
    assert tight > 0.49


@pytest.mark.parametrize("model", sorted(GUARD_SETUPS))
def test_guarded_chi_is_the_exact_chi(model, monkeypatch):
    from saltpde.solver import _chi
    ops, states = guard_corpus(model)
    v_norm, calls = ops.v_norm, []

    def counted(X):
        calls.append(1)
        return v_norm(X)
    monkeypatch.setattr(ops, "v_norm", counted)
    for X in states:
        v, bound = v_norm(X), 2.0 * lipschitz_bound(ops.grid, X)
        R = max(bound * (1.0 + 2e-9), 2.0)
        calls.clear()
        assert _chi(ops, X, R) == chi_cutoff(v, R) == 1.0
        assert calls == []                   # decided by the bound
        # positive control: V-norm 3 against R = 2, where chi_R < 1
        Y = (3.0 / v) * X
        calls.clear()
        chi = _chi(ops, Y, 2.0)
        assert calls == [1] and 0.0 < chi < 1.0
        assert chi == chi_cutoff(v_norm(Y), 2.0)
    with pytest.raises(ValueError, match="R > 1"):
        _chi(ops, 1e-3 * states[0], 1.0)     # bound below R: R <= 1 still raises


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("model", sorted(GUARD_SETUPS))
def test_a_non_finite_state_takes_the_exact_chi(model, bad, monkeypatch):
    from saltpde.solver import _chi
    ops, states = guard_corpus(model)
    seen = []
    monkeypatch.setattr(ops, "v_norm", lambda X: seen.append(X) or 0.5)
    X = states[0].copy()
    X.flat[1] = bad
    assert _chi(ops, X, 1e300) == 1.0 and len(seen) == 1 and seen[0] is X


def test_entry_states_must_match_the_config():
    # X0 and Y0 are checked where they enter: same model kind, same grid
    # (a linear state has the array shape of a ccf one on the same grid)
    cfg = em_cfg(model="ccf", s=4.0, noise_s_max=6.0, t_end=0.002)
    grid = cfg.grid()
    X0 = cfg.initial_state(grid)
    for bad in (make_initial_state("linear", grid, "smooth", 0.1),
                make_initial_state("ccf", Grid(32), "smooth", 0.1),
                make_initial_state("sch2", grid, "smooth", 0.1)):
        want = "is a %s state on %r; this run needs a ccf state on %r" \
            % (bad.kind, bad.grid, grid)
        with pytest.raises(ValueError, match="X0 " + re.escape(want)):
            run_path(cfg, X0=bad)
        with pytest.raises(ValueError, match="X0 " + re.escape(want)):
            stability_experiment(cfg, bad, X0)
        with pytest.raises(ValueError, match="Y0 " + re.escape(want)):
            stability_experiment(cfg, X0, bad)
    assert run_path(cfg, X0=X0).stop_reason == "end"


@pytest.mark.parametrize("model, noise_k, steps, K", [
    ("linear", 1, 10, 2),   # would drive the one SDE with both components
    ("ccf", 2, 10, 3),      # would stop mid-run at noise index 2
    ("ccf", 2, 10, 1),
    ("ccf", 2, 9, 2)])
def test_supplied_path_must_fit_the_run(model, noise_k, steps, K):
    cfg = SimConfig(model=model, n=16, dt=1e-3, t_end=0.01, s=4.0,
                    noise_k=noise_k, noise_s_max=6.0)
    path = sample_path(5, cfg.dt, steps, K)
    want = ("supplied Brownian path has %d steps x %d components; this run "
            "needs at least 10 steps x exactly %d" % (steps, K, noise_k))
    with pytest.raises(ValueError, match=want):
        run_path(cfg, path=path)
    X0 = cfg.initial_state(cfg.grid())
    with pytest.raises(ValueError, match=want):
        stability_experiment(cfg, X0, X0, path=path)
    # a longer path with the right components drives the run
    rec = run_path(cfg, path=sample_path(5, cfg.dt, 12, noise_k))
    assert rec.stop_reason == "end"


def test_run_path_builds_one_checked_state(monkeypatch):
    # the initial state is the only ModelState a run builds, none when X0
    # is given: the stepper loop and the record hold plain arrays
    calls = []

    def counted(self, *args, _init=ModelState.__init__):
        calls.append(1)
        _init(self, *args)
    monkeypatch.setattr(ModelState, "__init__", counted)
    cfg = SimConfig(model="ccf", n=64, dt=1e-3, t_end=0.02, s=4.0,
                    noise_k=4, seed=3)
    rec = run_path(cfg)
    assert rec.stop_reason == "end" and len(rec.times) == 21
    assert type(rec.final_state) is np.ndarray
    assert len(calls) == 1
    X0 = cfg.initial_state(cfg.grid())
    calls.clear()
    again = run_path(cfg, X0=X0)
    assert again.hs_norms == rec.hs_norms
    assert len(calls) == 0
