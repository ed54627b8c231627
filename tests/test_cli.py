import gc
import os
import re

import numpy as np
import pytest

from saltpde.cli import (_KEYS, ConfigError, _check_spec, cmd_converge,
                         cmd_simulate, cmd_stability, cmd_verify,
                         keep_heap_pages, main, manifest_lines, parse_config,
                         write_manifest)
from saltpde.estimates import ESTIMATE_IDS, parse_estimate_ids
from saltpde.solver import SimConfig, read_trajectory, step_strat_heun


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL_CCF = """
# minimal CCF run
model = ccf
n = 64
dt = 1e-3
t_end = 0.01
seed = 3
"""


def test_minimal_config_fills_defaults(tmp_path):
    spec = parse_config(write_config(tmp_path, MINIMAL_CCF))
    sim = spec.sim
    assert sim.model == "ccf"
    assert sim.s == 4.0
    assert sim.epsilon == 0.0625
    assert sim.noise_s_max == 6.0
    assert sim.record_every >= 1
    assert spec.ensemble == 1
    assert spec.estimates == "all"


# overrides of a runnable sch2 config -> what the ConfigError must say
UNRUNNABLE = (
    ({"s": "3.0"}, "s > 5.5"),
    ({"n": "100"}, "n must be a power of two"),
    ({"ic": "bogus"}, "ic must be one of"),
    ({"noise_decay": "polynomial", "noise_decay_param": "0.9"},
     "noise_decay_param"),
    ({"seed": "-1"}, "seed must be >= 0"),
    ({"estimates": "bogus"}, "estimates: unknown id 'bogus'"),
    ({"estimates": ""}, "estimates: no estimate id given"),
    ({"estimates": "kato_ponce,kato_ponce"}, "estimates: repeated id 'kato_ponce'"),
    ({"estimates": "all,kato_ponce"}, "estimates: 'all' must stand alone"),
    ({"delta": "0.0"}, "delta must be nonzero"),
    ({"perturb_mode": "0"}, "perturb_mode must satisfy 1 <= perturb_mode "
     "< n // 2 = 32, got 0"),
    ({"perturb_mode": "32"}, "perturb_mode must satisfy .* got 32"),
    ({"perturb_mode": "100"}, "perturb_mode must satisfy .* got 100"),
    ({"eps_ladder": "0.5,0.25"}, "eps_ladder needs at least 3 rungs"),
    ({"eps_ladder": "0.5,1.5,0.25"},
     "eps_ladder rung 1.5: epsilon must lie in"),
    ({"t_end": "0.005", "dt_ladder": "0.001,0.0015,0.0005"},
     "dt_ladder rung 0.0015: t_end must be an integer multiple of dt"),
    # non-finite floats, named before any other check reads them
    ({"t_end": "inf"}, "t_end must be finite, got inf"),
    ({"dt": "nan"}, "dt must be finite, got nan"),
    ({"cutoff_r": "nan"}, "cutoff_r must be finite, got nan"),
    ({"s": "nan"}, "s must be finite, got nan"),
    ({"noise_s_max": "nan"}, "noise_s_max must be finite, got nan"),
    ({"ic_amplitude": "inf"}, "ic_amplitude must be finite, got inf"),
    ({"n_stop": "inf"}, "n_stop must be finite, got inf"),
    ({"delta": "nan"}, "delta must be finite, got nan"),
    ({"blowup_factor": "-1"}, "blowup_factor must exceed 1"),
    # noise fields above the 2/3 band n//3, which would act as zero
    ({"n": "16", "noise_k": "6"},
     "noise_k, n: 6 noise fields need wavenumber 6, above n//3 = 5"),
    ({"model": "ccf", "n": "16", "noise_k": "8"},
     "noise_k, n: 8 noise fields need wavenumber 8"),
    ({"model": "sqg", "n": "8", "noise_k": "9"},
     "noise_k, n: 9 noise fields need wavenumber 3, above n//3 = 2"),
)


def test_sch2_s_threshold_rejected(tmp_path, monkeypatch):
    # unrunnable configs fail at parse time, name the key and write nothing
    monkeypatch.chdir(tmp_path)
    for overrides, message in UNRUNNABLE:
        keys = {"model": "sch2", "n": "64", "dt": "1e-3", "t_end": "0.01",
                "seed": "1", **overrides}
        cfg = write_config(tmp_path, "".join("%s = %s\n" % kv
                                             for kv in keys.items()))
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["simulate", cfg]) == 2
        assert not (tmp_path / "out").exists()

    # converge without a ladder, and CLI overrides that cannot run
    cfg = write_config(tmp_path, MINIMAL_CCF)
    with pytest.raises(ConfigError, match="converge needs eps_ladder"):
        parse_config(cfg, command="converge")
    assert main(["converge", cfg]) == 2
    assert main(["simulate", cfg, "--seed", "-5"]) == 2
    assert main(["simulate", cfg, "--workers", "0"]) == 2
    assert not (tmp_path / "out").exists()


def test_noise_k_at_the_dealiasing_band_parses(tmp_path):
    # the last field at wavenumber n//3 (1D) or wave scale n//3 (sqg) is
    # kept by the 2/3 band
    for model, n, K in (("sch2", 16, 5), ("ccf", 16, 5), ("sqg", 8, 8)):
        cfg = write_config(tmp_path, "model = %s\nn = %d\nnoise_k = %d\n"
                           "dt = 1e-3\nt_end = 0.01\nseed = 0\n" % (model, n, K))
        assert parse_config(cfg).sim.noise_k == K


def test_unknown_key_cites_line(tmp_path):
    cfg = write_config(tmp_path, "model = ccf\nfoo = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(cfg)


def test_missing_required_key(tmp_path):
    cfg = write_config(tmp_path, "model = ccf\nn = 64\ndt = 1e-3\nseed = 0\n")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(cfg)


def test_bad_value_cites_line(tmp_path):
    cfg = write_config(tmp_path, "model = ccf\nn = sixty\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(cfg)


def test_duplicate_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "model = ccf\nmodel = sqg\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(cfg)


def test_manifest_round_trip(tmp_path):
    spec = parse_config(write_config(tmp_path, MINIMAL_CCF), command="simulate")
    manifest = tmp_path / "manifest.txt"
    write_manifest(spec, str(manifest))
    spec2 = parse_config(str(manifest), command="simulate")
    assert manifest_lines(spec) == manifest_lines(spec2)
    assert spec.sim == spec2.sim


def test_non_integer_n_rejected():
    # a run on int(n) points would write n = 16.5 to a manifest that
    # parse_config refuses
    with pytest.raises(ValueError, match="n must be a power of two"):
        SimConfig(model="ccf", n=16.5, dt=1e-3, t_end=0.002).validate()


def test_float_n_never_reaches_a_manifest(tmp_path):
    # n = 16.0 would be written back as "n = 16.0", which parse_config
    # refuses; the spec is rejected before a manifest is written, and the
    # int n round-trips
    spec = parse_config(write_config(tmp_path, MINIMAL_CCF), command="simulate")
    for n in (16.0, np.float64(16.0)):
        spec.sim.n = n
        with pytest.raises(ValueError, match="n must be a power of two"):
            spec.sim.validate()
        with pytest.raises(ConfigError, match="n must be a power of two"):
            _check_spec(spec, "run.cfg")
    spec.sim.n = np.int64(16)
    spec.sim.validate()
    spec.sim.n = 16
    manifest = tmp_path / "manifest.txt"
    write_manifest(spec, str(manifest))
    assert "n = 16" in manifest.read_text().splitlines()
    spec2 = parse_config(str(manifest), command="simulate")
    assert manifest_lines(spec2) == manifest_lines(spec)
    assert spec2.sim == spec.sim


def test_readme_config_table_lists_every_key():
    # one row per key parse_config accepts, and no other
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(rows) == sorted(_KEYS)


def test_manifest_command_mismatch(tmp_path):
    spec = parse_config(write_config(tmp_path, MINIMAL_CCF), command="simulate")
    manifest = tmp_path / "manifest.txt"
    write_manifest(spec, str(manifest))
    with pytest.raises(ConfigError, match="command"):
        parse_config(str(manifest), command="verify")


def test_simulate_t_end_zero_single_row(tmp_path):
    cfg = write_config(tmp_path, """
model = ccf
n = 64
dt = 1e-3
t_end = 0.0
seed = 5
out = %s
""" % (tmp_path / "out"))
    spec = parse_config(cfg, command="simulate")
    assert cmd_simulate(spec) == 0
    traj = (tmp_path / "out" / "traj_5.txt").read_text()
    rows = [ln for ln in traj.splitlines()
            if ln and not ln.startswith("#") and not ln[0].isalpha()]
    assert len(rows) == 1


def test_simulate_byte_identical(tmp_path):
    text = """
model = sch2
n = 64
dt = 1e-3
t_end = 0.01
seed = 9
noise_k = 2
ic_amplitude = 0.05
"""
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    spec = parse_config(write_config(tmp_path, text), command="simulate")
    spec.out = out1
    cmd_simulate(spec)
    spec2 = parse_config(str(tmp_path / "a" / "manifest.txt"),
                         command="simulate")
    spec2.out = out2
    cmd_simulate(spec2)
    a = open(os.path.join(out1, "traj_9.txt"), "rb").read()
    b = open(os.path.join(out2, "traj_9.txt"), "rb").read()
    assert a == b
    sa = open(os.path.join(out1, "stats.txt"), "rb").read()
    sb = open(os.path.join(out2, "stats.txt"), "rb").read()
    assert sa == sb


def test_simulate_worker_independence(tmp_path):
    text = """
model = ccf
n = 64
dt = 1e-3
t_end = 0.01
seed = 20
noise_k = 2
ensemble = 8
ic_amplitude = 0.1
"""
    spec = parse_config(write_config(tmp_path, text), command="simulate")
    spec.out = str(tmp_path / "w1")
    spec.workers = 1
    cmd_simulate(spec)
    spec.out = str(tmp_path / "w8")
    spec.workers = 8
    cmd_simulate(spec)
    s1 = (tmp_path / "w1" / "stats.txt").read_bytes()
    s8 = (tmp_path / "w8" / "stats.txt").read_bytes()
    assert s1 == s8
    for seed in range(20, 28):
        t1 = (tmp_path / "w1" / ("traj_%d.txt" % seed)).read_bytes()
        t8 = (tmp_path / "w8" / ("traj_%d.txt" % seed)).read_bytes()
        assert t1 == t8


def test_simulate_cfl_member_keeps_the_ensemble(tmp_path):
    # at dt = 0.04 the noise drives member 1 past the CFL guard at t = 0.32;
    # it stops there with reason "cfl" and the other members run to the end
    cfg = write_config(tmp_path, """
model = ccf
n = 64
dt = 0.04
t_end = 0.4
seed = 1
noise_k = 4
ic_amplitude = 1.1
ensemble = 3
out = %s
""" % (tmp_path / "out"))
    assert main(["simulate", cfg]) == 0
    out = tmp_path / "out"
    reasons = {}
    for seed in (1, 2, 3):
        rec = read_trajectory(str(out / ("traj_%d.txt" % seed)))
        reasons[seed] = (rec.stop_reason, rec.tau)
    assert reasons == {1: ("cfl", 0.32), 2: ("end", 0.4), 3: ("end", 0.4)}
    stats = (out / "stats.txt").read_text()
    assert "# n_stopped = 1" in stats
    assert stats.splitlines()[1].split()[4:] == ["1", "0.32"]


def test_simulate_save_states(tmp_path):
    text = MINIMAL_CCF + "save_states = 1\nout = %s\n" % (tmp_path / "st")
    spec = parse_config(write_config(tmp_path, text), command="simulate")
    cmd_simulate(spec)
    snap = (tmp_path / "st" / "state_3.txt").read_text()
    assert snap.startswith("# model = ccf")
    assert "theta 1 0 " in snap


def test_sqg_snapshot_holds_the_whole_spectrum(tmp_path):
    # an sqg state holds its half spectrum; its snapshot keeps one row per
    # mode of the n x n grid in fft order, the k2 < 0 rows the conjugates
    # of the k2 > 0 ones, and the held rows the state's own coefficients
    from saltpde.solver import run_path
    text = ("model = sqg\nn = 16\ndt = 1e-3\nt_end = 0.003\nseed = 4\n"
            "noise_k = 2\nscheme = strat_heun\nic = random\nic_amplitude = 0.5\n"
            "save_states = 1\nout = %s\n" % (tmp_path / "st"))
    spec = parse_config(write_config(tmp_path, text), command="simulate")
    cmd_simulate(spec)
    lines = (tmp_path / "st" / "state_4.txt").read_text().splitlines()
    assert lines[:2] == ["# model = sqg", "field k1 k2 re im"]
    rows = [line.split() for line in lines[2:]]
    k = np.fft.fftfreq(16, 1.0 / 16).astype(int)
    assert [(int(r[1]), int(r[2])) for r in rows] == \
        [(k1, k2) for k1 in k for k2 in k]
    assert {r[0] for r in rows} == {"theta"}
    coeff = {(int(r[1]), int(r[2])): complex(float(r[3]), float(r[4]))
             for r in rows}
    X = run_path(spec.sim, spec.sim.build_ops()).final_state[0]
    for i1, k1 in enumerate(k):
        for i2, k2 in enumerate(k[:9]):
            assert coeff[k1, k2] == X[i1, i2]
            if 0 < k2 < 8:
                assert coeff[-k1 if k1 != -8 else -8, -k2] == np.conj(X[i1, i2])


def test_converge_eps_ladder_bandlimited_identity(tmp_path):
    # all mollifiers act as the identity on far-bandlimited data: distances 0
    text = """
model = ccf
n = 128
dt = 1e-3
t_end = 0.01
seed = 2
noise_k = 2
ic = smooth
ic_amplitude = 0.1
eps_ladder = 0.03125,0.015625,0.0078125
out = %s
""" % (tmp_path / "conv")
    spec = parse_config(write_config(tmp_path, text), command="converge")
    assert cmd_converge(spec) == 0
    report = (tmp_path / "conv" / "converge.txt").read_text()
    dists = [float(ln.split()[2]) for ln in report.splitlines()
             if ln and not ln.startswith("#") and not ln[0].isalpha()]
    assert max(dists) < 1e-13


def test_converge_eps_ladder_monotone_on_smooth(tmp_path):
    text = """
model = ccf
n = 128
dt = 1e-3
t_end = 0.05
seed = 2
noise_k = 2
ic = random
ic_amplitude = 0.2
eps_ladder = 0.5,0.25,0.125,0.0625
out = %s
""" % (tmp_path / "conv2")
    spec = parse_config(write_config(tmp_path, text), command="converge")
    assert cmd_converge(spec) == 0
    report = (tmp_path / "conv2" / "converge.txt").read_text()
    dists = [float(ln.split()[2]) for ln in report.splitlines()
             if ln and not ln.startswith("#") and not ln[0].isalpha()]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_converge_requires_three_rungs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = MINIMAL_CCF + "eps_ladder = 0.5,0.25\n"
    with pytest.raises(ConfigError, match="3 rungs"):
        parse_config(write_config(tmp_path, text), command="converge")


def test_verify_single_and_malformed(tmp_path, capsys):
    text = MINIMAL_CCF + "estimates = log_interpolation\nout = %s\n" % (tmp_path / "v")
    spec = parse_config(write_config(tmp_path, text), command="verify")
    assert cmd_verify(spec) == 0
    out = capsys.readouterr().out
    assert "log_interpolation" in out
    assert (tmp_path / "v" / "estimate_log_interpolation.txt").exists()

    spec.estimates = "not_an_estimate"
    with pytest.raises(ValueError, match="valid ids"):
        cmd_verify(spec)


def test_verify_reads_its_ids_by_one_rule(tmp_path, monkeypatch):
    # blank entries are skipped, so "all," means every id, and cmd_verify
    # runs the ids _check_spec accepted
    import saltpde.cli as cli
    assert parse_estimate_ids("all,") == list(ESTIMATE_IDS)
    assert parse_estimate_ids(" kato_ponce, ,cancellation ") == [
        "kato_ponce", "cancellation"]
    ran = []
    monkeypatch.setattr(cli, "run_estimates", lambda ids: ran.append(ids) or [])
    text = MINIMAL_CCF + "estimates = all,\nout = %s\n" % (tmp_path / "v")
    spec = parse_config(write_config(tmp_path, text), command="verify")
    assert cmd_verify(spec) == 0
    assert ran == [list(ESTIMATE_IDS)]


def test_stability_command(tmp_path, capsys):
    text = """
model = ccf
n = 64
dt = 1e-3
t_end = 0.02
seed = 4
noise_k = 2
ic_amplitude = 0.2
delta = 1e-6
out = %s
""" % (tmp_path / "stab")
    spec = parse_config(write_config(tmp_path, text), command="stability")
    assert cmd_stability(spec) == 0
    report = (tmp_path / "stab" / "stability.txt").read_text()
    assert "distance0" in report


def test_main_entry(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL_CCF + "out = %s\n" % (tmp_path / "m"))
    assert main(["simulate", cfg]) == 0
    assert (tmp_path / "m" / "manifest.txt").exists()
    assert main(["simulate", cfg, "--out", str(tmp_path / "m2"), "--seed",
                 "77"]) == 0
    assert (tmp_path / "m2" / "traj_77.txt").exists()

    bad = write_config(tmp_path, "model = ccf\n", name="bad.cfg")
    assert main(["simulate", bad]) == 2


def test_sqg_steps_reuse_heap_pages():
    # a 64^2 sqg Heun step frees about 1 MiB of 64 KiB temporaries; with
    # glibc's default 128 KiB trim threshold those pages go back to the
    # kernel and are faulted in again on the next step (some 100 faults a
    # step, or none, depending on where earlier allocations landed).  After
    # keep_heap_pages (main calls it) the steps reuse the same pages
    import ctypes
    resource = pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("no mallopt in this C library")
    keep_heap_pages()
    cfg = SimConfig(model="sqg", n=64, s=4.5, noise_k=4, noise_s_max=6.5,
                    ic_amplitude=0.5, seed=7)
    ops = cfg.build_ops()
    X = cfg.initial_state(cfg.grid()).coeffs
    dw = np.full(4, 0.01)
    for _ in range(5):
        X = step_strat_heun(X, ops, dw, 1e-3, 1e6)
    # the steps leave no cycles, but earlier tests do (exceptions and their
    # tracebacks); a collection that frees them inside the measured steps
    # faults some 70 pages, so it runs here
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        X = step_strat_heun(X, ops, dw, 1e-3, 1e6)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def _rung_by_rung_linear_strong_error(spec):
    # linear_strong_error as a rung-by-rung loop: every member draws
    # its own path on every rung and run_path runs on it
    from dataclasses import replace
    from saltpde.noise import sample_path
    from saltpde.solver import run_path
    ladder = sorted(spec.dt_ladder, reverse=True)
    x0 = spec.sim.ic_amplitude
    errors = []
    for dt in ladder:
        cfg = replace(spec.sim, dt=dt, scheme="ito_em")
        ops = cfg.build_ops()
        errs = []
        for member in range(spec.ensemble):
            mcfg = replace(cfg, seed=cfg.seed + member)
            path = sample_path(mcfg.seed, mcfg.dt, mcfg.n_steps(), mcfg.path_k())
            rec = run_path(mcfg, ops, path=path)
            exact = ops.exact_solution(x0, path.endpoint()[0])
            errs.append(abs(ops.value(rec.final_state) - exact))
        errors.append(float(np.mean(errs)))
    return ladder, errors


@pytest.mark.parametrize("dt_ladder", [
    (0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625),   # the shipped one
    (0.0625, 0.05, 0.03125, 0.015625)])   # 0.05 is not on the tree: drawn
def test_linear_strong_error_is_the_rung_by_rung_loop(dt_ladder):
    from saltpde.cli import ExperimentSpec, linear_strong_error
    sim = SimConfig(model="linear", n=8, dt=dt_ladder[0], t_end=1.0,
                    ic_amplitude=1.0, linear_a=1.0, seed=100, noise_k=1,
                    record_every=7)
    spec = ExperimentSpec(command="converge", sim=sim, ensemble=6,
                          dt_ladder=dt_ladder)
    ladder, errors, _ = linear_strong_error(spec)
    assert (ladder, errors) == _rung_by_rung_linear_strong_error(spec)


def test_converge_ladders_draw_one_path(tmp_path, monkeypatch):
    # each ladder draws its path once (the coarser dt rungs are read off the
    # finest rung's tree), and the distances are those of runs that draw
    # their own paths
    import saltpde.cli as cli
    import saltpde.noise as noise
    from dataclasses import replace
    from saltpde.solver import run_path
    draws = []

    def counted(*args, _fn=noise.sample_path):
        draws.append(args)
        return _fn(*args)
    monkeypatch.setattr(noise, "sample_path", counted)
    monkeypatch.setattr(cli, "sample_path", counted)
    sim = SimConfig(model="ccf", n=32, dt=1e-3, t_end=8e-3, noise_k=2,
                    seed=5, ic="random", ic_amplitude=0.2)
    spec = cli.ExperimentSpec(command="converge", sim=sim,
                              eps_ladder=(0.5, 0.25, 0.125),
                              dt_ladder=(2e-3, 1e-3, 5e-4))
    _, dists, _ = cli.eps_convergence(spec)
    assert len(draws) == 1
    ops = sim.build_ops()
    finals = [run_path(cfg, cfg.build_ops()).final_state
              for cfg in (replace(sim, epsilon=e) for e in (0.5, 0.25, 0.125))]
    assert dists == [ops.z_norm(a - b) for a, b in zip(finals, finals[1:])]

    draws.clear()
    _, dists, _ = cli.dt_consistency(spec)
    assert draws == [(5, 5e-4, 16, 2)]
    want = []
    for dt in (2e-3, 1e-3, 5e-4):
        em = run_path(replace(sim, dt=dt), ops)
        he = run_path(replace(sim, dt=dt, scheme="strat_heun"), ops)
        want.append(ops.z_norm(em.final_state - he.final_state))
    assert dists == want


# ---------------------------------------------------------------------------
# one set-up per command: the runs of a command step on the ops it builds once

def _recorded_runs(monkeypatch):
    """Every run_path call a command makes, as (cfg, ops, kwargs, record)."""
    import saltpde.cli as cli
    from saltpde.solver import run_path
    runs = []

    def recording(cfg, ops, **kw):
        rec = run_path(cfg, ops, **kw)
        runs.append((cfg, ops, kw, rec))
        return rec
    monkeypatch.setattr(cli, "run_path", recording)
    return runs


def _record_bytes(rec):
    return (rec.times, rec.hs_norms, rec.v_norms, rec.stopped, rec.tau,
            rec.stop_reason, rec.final_state.tobytes())


def _assert_runs_repeat_on_shared_and_fresh_ops(runs):
    # each run again, in the command's order and reversed, on the ops the
    # command handed it (stepped by every other run by then) and on fresh
    # ops: the records and final states are the same bit for bit
    from saltpde.solver import run_path
    want = [_record_bytes(rec) for _, _, _, rec in runs]
    for order in (list(range(len(runs))), list(range(len(runs)))[::-1]):
        for i in order:
            cfg, ops, kw, _ = runs[i]
            assert _record_bytes(run_path(cfg, ops, **kw)) == want[i], i
            assert _record_bytes(run_path(cfg, cfg.build_ops(), **kw)) == want[i], i


SHARED_CCF = """
model = ccf
n = 64
dt = 1e-3
t_end = 0.008
seed = 5
noise_k = 3
ic = random
ic_amplitude = 0.3
"""

SHARED_LINEAR = """
model = linear
n = 8
dt = 0.0625
t_end = 0.5
seed = 100
noise_k = 1
ic_amplitude = 1.0
ensemble = 3
dt_ladder = 0.0625,0.03125,0.015625
"""


def test_simulate_members_share_one_ops(tmp_path, monkeypatch):
    runs = _recorded_runs(monkeypatch)
    spec = parse_config(write_config(
        tmp_path, SHARED_CCF + "ensemble = 3\nsave_states = 1\n"), "simulate")
    spec.out = str(tmp_path / "w1")
    cmd_simulate(spec)
    assert len(runs) == 3 and len({id(ops) for _, ops, _, _ in runs}) == 1
    assert [cfg.seed for cfg, _, _, _ in runs] == [5, 6, 7]
    _assert_runs_repeat_on_shared_and_fresh_ops(runs)
    # the workers step pickled copies of the one ops: the same bytes,
    # snapshots included
    monkeypatch.undo()          # the recording run_path does not pickle
    spec.out, spec.workers = str(tmp_path / "w2"), 2
    cmd_simulate(spec)
    for name in sorted(os.listdir(tmp_path / "w1")):
        if name != "manifest.txt":
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes(), name


def test_converge_rungs_share_one_set_up(tmp_path, monkeypatch):
    import saltpde.cli as cli
    runs = _recorded_runs(monkeypatch)
    spec = parse_config(write_config(
        tmp_path, SHARED_CCF + "eps_ladder = 0.5,0.25,0.125\n"
        "dt_ladder = 2e-3,1e-3,5e-4\n"), "converge")
    # eps: one ops per rung, all on one grid and one basis
    cli.eps_convergence(spec)
    assert len(runs) == 3
    assert len({id(ops) for _, ops, _, _ in runs}) == 3
    assert len({id(ops.grid) for _, ops, _, _ in runs}) == 1
    assert len({id(ops.basis) for _, ops, _, _ in runs}) == 1
    assert [ops.eps for _, ops, _, _ in runs] == [0.5, 0.25, 0.125]
    _assert_runs_repeat_on_shared_and_fresh_ops(runs)
    # dt: both schemes on every rung, all on one ops
    runs.clear()
    cli.dt_consistency(spec)
    assert [(cfg.dt, cfg.scheme) for cfg, _, _, _ in runs] == [
        (dt, scheme) for dt in (2e-3, 1e-3, 5e-4)
        for scheme in ("ito_em", "strat_heun")]
    assert len({id(ops) for _, ops, _, _ in runs}) == 1
    _assert_runs_repeat_on_shared_and_fresh_ops(runs)


def test_linear_strong_error_members_share_one_ops(tmp_path, monkeypatch):
    from saltpde.cli import linear_strong_error
    runs = _recorded_runs(monkeypatch)
    linear_strong_error(parse_config(write_config(tmp_path, SHARED_LINEAR),
                                     "converge"))
    assert len(runs) == 9 and len({id(ops) for _, ops, _, _ in runs}) == 1
    _assert_runs_repeat_on_shared_and_fresh_ops(runs)


@pytest.mark.parametrize("command, text, ops_calls, basis_calls", [
    ("simulate", SHARED_CCF + "ensemble = 4\n", 1, 1),
    ("converge", SHARED_CCF + "eps_ladder = 0.5,0.25,0.125\n", 3, 1),
    ("converge", SHARED_CCF + "dt_ladder = 2e-3,1e-3,5e-4\n", 1, 1),
    ("converge", SHARED_LINEAR, 1, 0),         # the linear model has no basis
    ("stability", SHARED_CCF, 1, 1)])
def test_each_command_builds_its_set_up_once(tmp_path, monkeypatch, command,
                                              text, ops_calls, basis_calls):
    import saltpde.solver as solver
    calls = []
    for name in ("make_ops", "build_basis"):
        fn = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    cfg = write_config(tmp_path, text)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls.count("make_ops") == ops_calls
    assert calls.count("build_basis") == basis_calls
