"""Experiment orchestration: simulate / verify / converge / stability.

Configs are flat key-value text files::

    # lines starting with '#' are comments
    model = ccf
    n = 256
    dt = 1e-3
    t_end = 0.5
    seed = 1

Every run writes a manifest echoing all effective parameters (defaults
included) in the same grammar, so a manifest alone reproduces the run
byte for byte.  All floats are serialised with full round-trip precision.
Each command builds its set-up (grid, noise basis, ops) once from spec.sim
and hands it to every run it makes (one ops per eps rung, on one basis).
"""

import argparse
import ctypes
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import partial

import numpy as np

from .estimates import parse_estimate_ids, run_estimates, summary_table
from .models import DEFAULT_S, ModelState
from .noise import sample_path
from .solver import (SimConfig, run_path, stability_experiment,
                     write_state_snapshot, write_trajectory)
from .spectral import from_values


@dataclass
class ExperimentSpec:
    """A parsed config: the command, the trajectory's SimConfig and the
    command's own keys (ensemble, ladders, estimate ids, output, ...)."""

    command: str = ""
    sim: SimConfig = field(default_factory=SimConfig)
    ensemble: int = 1
    out: str = "out"
    workers: int = 1
    eps_ladder: tuple = ()
    dt_ladder: tuple = ()
    estimates: str = "all"
    delta: float = 1e-6
    perturb_mode: int = 1
    save_states: int = 0


_REQUIRED = ("model", "n", "dt", "t_end", "seed")

# key -> (target, type), from the fields of SimConfig ("sim") and of
# ExperimentSpec ("spec"); their defaults are the config defaults, except
# s, noise_s_max and record_every, which parse_config computes
_KEYS = {f.name: ("sim", f.type) for f in dc_fields(SimConfig)}
_KEYS.update((f.name, ("spec", f.type)) for f in dc_fields(ExperimentSpec)
             if f.name != "sim")


class ConfigError(ValueError):
    pass


def _parse_floats(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def parse_config(path, command=None):
    """Read and fully validate a config file; all defaults are filled in.

    Errors carry the offending line number, or name the offending key.  The
    returned spec serialises back to an identical manifest (round-trip
    identity).
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError("%s line %d: expected 'key = value', got %r"
                                  % (path, lineno, stripped))
            key, _, val = stripped.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _KEYS:
                raise ConfigError("%s line %d: unknown key %r"
                                  % (path, lineno, key))
            if key in raw:
                raise ConfigError("%s line %d: duplicate key %r"
                                  % (path, lineno, key))
            conv = _KEYS[key][1]
            try:
                raw[key] = _parse_floats(val) if conv is tuple else conv(val)
            except ValueError:
                raise ConfigError("%s line %d: bad value %r for key %r"
                                  % (path, lineno, val, key)) from None

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError("%s: missing required key %r" % (path, key))

    if command is not None:
        stated = raw.get("command")
        if stated is not None and stated != command:
            raise ConfigError("%s: config was written for command %r, invoked as %r"
                              % (path, stated, command))

    model = raw["model"]
    if model not in DEFAULT_S:
        raise ConfigError("%s: unknown model %r (%s)"
                          % (path, model, " | ".join(DEFAULT_S)))
    raw.setdefault("s", DEFAULT_S[model])
    raw.setdefault("noise_s_max", raw["s"] + 2.0)
    sim = SimConfig(**{k: v for k, v in raw.items() if _KEYS[k][0] == "sim"})
    spec = ExperimentSpec(sim=sim, **{k: v for k, v in raw.items()
                                      if _KEYS[k][0] == "spec"})
    spec.command = command or spec.command
    steps = _check_spec(spec, path)
    if "record_every" not in raw:
        sim.record_every = max(1, steps // 512)
    return spec


def _check_spec(spec, path):
    """Reject a spec that cannot run, naming the key; returns n_steps."""
    try:
        steps = spec.sim.validate().n_steps()
    except ValueError as exc:
        raise ConfigError("%s: %s" % (path, exc)) from None
    try:
        parse_estimate_ids(spec.estimates)
    except ValueError as exc:
        raise ConfigError("%s: estimates: %s" % (path, exc)) from None
    half = spec.sim.n // 2
    problems = [
        (spec.ensemble < 1, "ensemble must be >= 1"),
        (spec.workers < 1, "workers must be >= 1"),
        (not math.isfinite(spec.delta), "delta must be finite, got %r"
         % (spec.delta,)),
        (spec.delta == 0, "delta must be nonzero"),
        (not 1 <= spec.perturb_mode < half, "perturb_mode must satisfy "
         "1 <= perturb_mode < n // 2 = %d, got %d" % (half, spec.perturb_mode)),
        (spec.command == "converge" and not (spec.eps_ladder or spec.dt_ladder),
         "converge needs eps_ladder and/or dt_ladder")]
    for key in ("eps_ladder", "dt_ladder"):
        rungs = len(getattr(spec, key))
        problems.append((0 < rungs < 3, "%s needs at least 3 rungs, got %d"
                         % (key, rungs)))
    for bad, message in problems:
        if bad:
            raise ConfigError("%s: %s" % (path, message))
    # every rung must make a runnable config on its own
    for key, field_name in (("eps_ladder", "epsilon"), ("dt_ladder", "dt")):
        for rung in getattr(spec, key):
            try:
                replace(spec.sim, **{field_name: rung}).validate().n_steps()
            except ValueError as exc:
                raise ConfigError("%s: %s rung %r: %s"
                                  % (path, key, rung, exc)) from None
    return steps


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def manifest_lines(spec):
    """Complete, re-parseable key-value dump of the effective parameters."""
    sim = spec.sim
    pairs = [("command", spec.command)] if spec.command else []
    for f in dc_fields(SimConfig):
        pairs.append((f.name, getattr(sim, f.name)))
    for f in dc_fields(ExperimentSpec):
        if f.name not in ("command", "sim"):
            pairs.append((f.name, getattr(spec, f.name)))
    return ["%s = %s" % (k, _fmt(v)) for k, v in pairs]


def write_manifest(spec, filename):
    with open(filename, "w") as fh:
        fh.write("\n".join(manifest_lines(spec)) + "\n")


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(spec):
    """Run the ensemble; one trajectory file per member plus statistics."""
    os.makedirs(spec.out, exist_ok=True)
    write_manifest(spec, os.path.join(spec.out, "manifest.txt"))
    cfgs = [replace(spec.sim, seed=spec.sim.seed + i)
            for i in range(spec.ensemble)]
    # pickled for the workers before any step (_FluidOps._first's read-only
    # terms would unpickle writeable)
    ops = spec.sim.build_ops()
    run = partial(run_path, ops=ops, keep_final_state=bool(spec.save_states))
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(run, cfgs))
    else:
        records = [run(cfg) for cfg in cfgs]

    for cfg, rec in zip(cfgs, records):
        write_trajectory(rec, os.path.join(spec.out, "traj_%d.txt" % cfg.seed))
        if spec.save_states and rec.final_state is not None:
            write_state_snapshot(cfg.model, ops.grid, rec.final_state,
                                 os.path.join(spec.out,
                                              "state_%d.txt" % cfg.seed))

    stats_path = os.path.join(spec.out, "stats.txt")
    final_hs = np.array([rec.hs_norms[-1] for rec in records])
    with open(stats_path, "w") as fh:
        fh.write("seed final_t final_Hs final_V stopped tau\n")
        for cfg, rec in zip(cfgs, records):
            fh.write("%d %s %s %s %d %s\n"
                     % (cfg.seed, repr(rec.times[-1]), repr(rec.hs_norms[-1]),
                        repr(rec.v_norms[-1]), int(rec.stopped), repr(rec.tau)))
        fh.write("# mean_final_Hs = %s\n" % repr(float(np.mean(final_hs))))
        fh.write("# min_final_Hs = %s\n" % repr(float(np.min(final_hs))))
        fh.write("# max_final_Hs = %s\n" % repr(float(np.max(final_hs))))
        fh.write("# n_stopped = %d\n" % sum(int(r.stopped) for r in records))
    return 0


# ---------------------------------------------------------------------------
# converge

def _fit_order(hs, ds):
    hs = np.asarray(hs, dtype=float)
    ds = np.maximum(np.asarray(ds, dtype=float), 1e-300)
    return float(np.polyfit(np.log(hs), np.log(ds), 1)[0])


def _path(cfg):
    """The Brownian path run_path would draw for cfg."""
    return sample_path(cfg.seed, cfg.dt, cfg.n_steps(), cfg.path_k())


def _ladder_paths(cfgs):
    """The path of each of cfgs (one seed, a dt ladder with its finest rung
    last): the finest is drawn, the coarser ones are read off its tree."""
    finest = _path(cfgs[-1])
    return [finest.coarsened(cfg.dt, cfg.n_steps()) for cfg in cfgs]


def eps_convergence(spec):
    """Distances between consecutive eps-rungs at the final time."""
    ladder = sorted(spec.eps_ladder, reverse=True)
    grid = spec.sim.grid()
    basis = spec.sim.build_basis(grid)
    path = _path(spec.sim)          # every rung runs on the same path
    cfgs = [replace(spec.sim, epsilon=eps) for eps in ladder]
    opss = [cfg.build_ops(grid, basis) for cfg in cfgs]
    finals = [run_path(cfg, ops, path=path).final_state
              for cfg, ops in zip(cfgs, opss)]
    # z_norm reads only the grid and s: any rung's ops take it
    dists = [opss[0].z_norm(a - b) for a, b in zip(finals, finals[1:])]
    order = _fit_order(ladder[:-1], dists)
    return ladder, dists, order


def dt_consistency(spec):
    """EM(Ito) vs Heun(Stratonovich) distance at T down the dt ladder."""
    ladder = sorted(spec.dt_ladder, reverse=True)
    ops = spec.sim.build_ops()      # neither dt nor the scheme enters the ops
    cfgs = [replace(spec.sim, dt=dt) for dt in ladder]
    dists = []
    for cfg, path in zip(cfgs, _ladder_paths(cfgs)):
        rec_em = run_path(replace(cfg, scheme="ito_em"), ops, path=path)
        rec_he = run_path(replace(cfg, scheme="strat_heun"), ops, path=path)
        dists.append(ops.z_norm(rec_em.final_state - rec_he.final_state))
    order = _fit_order(ladder, dists)
    return ladder, dists, order


def linear_strong_error(spec):
    """EM strong error against the exact exponential solution.

    Members run one after another, each over the whole dt ladder on the
    paths of one Brownian tree; the mean error of each rung is taken over
    the members in seed order.
    """
    ladder = sorted(spec.dt_ladder, reverse=True)
    x0 = spec.sim.ic_amplitude
    cfgs = [replace(spec.sim, dt=dt, scheme="ito_em") for dt in ladder]
    ops = cfgs[0].build_ops()       # neither the seed nor dt enters the ops
    errs = [[] for _ in ladder]
    for member in range(spec.ensemble):
        mcfgs = [replace(cfg, seed=cfg.seed + member) for cfg in cfgs]
        for mcfg, path, rung in zip(mcfgs, _ladder_paths(mcfgs), errs):
            rec = run_path(mcfg, ops, path=path)
            exact = ops.exact_solution(x0, path.endpoint()[0])
            rung.append(abs(ops.value(rec.final_state) - exact))
    errors = [float(np.mean(rung)) for rung in errs]
    order = _fit_order(ladder, errors)
    return ladder, errors, order


def cmd_converge(spec):
    os.makedirs(spec.out, exist_ok=True)
    write_manifest(spec, os.path.join(spec.out, "manifest.txt"))
    lines = []
    if spec.eps_ladder:
        ladder, dists, order = eps_convergence(spec)
        lines += ["# eps_order = %s" % repr(order), "eps_i eps_next distance"]
        lines += ["%s %s %s" % (repr(a), repr(b), repr(float(d)))
                  for a, b, d in zip(ladder, ladder[1:], dists)]
    if spec.dt_ladder:
        name, column, ladder_run = (
            ("strong_order_em", "strong_error", linear_strong_error)
            if spec.sim.model == "linear"
            else ("dt_order", "em_heun_distance", dt_consistency))
        ladder, values, order = ladder_run(spec)
        lines += ["# %s = %s" % (name, repr(order)), "dt " + column]
        lines += ["%s %s" % (repr(dt), repr(float(v)))
                  for dt, v in zip(ladder, values)]
    report = "\n".join(lines) + "\n"
    with open(os.path.join(spec.out, "converge.txt"), "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(spec):
    ids = parse_estimate_ids(spec.estimates)
    os.makedirs(spec.out, exist_ok=True)
    write_manifest(spec, os.path.join(spec.out, "manifest.txt"))
    reports = run_estimates(ids)
    for rep in reports:
        rep.write(os.path.join(spec.out, "estimate_%s.txt" % rep.estimate_id))
    sys.stdout.write(summary_table(reports) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


# ---------------------------------------------------------------------------
# stability

def perturbed_state(X0, delta, mode):
    """Add delta*cos(mode*x) (first coordinate in 2D) to the leading field."""
    grid = X0.grid
    rows = X0.coeffs.copy()
    rows[0] += from_values(grid, delta * np.cos(mode * grid.nodes()[0]))
    return ModelState(X0.kind, grid, rows)


def cmd_stability(spec):
    os.makedirs(spec.out, exist_ok=True)
    write_manifest(spec, os.path.join(spec.out, "manifest.txt"))
    cfg = spec.sim
    ops = cfg.validate().build_ops()
    X0 = cfg.initial_state(ops.grid)
    Y0 = perturbed_state(X0, spec.delta, spec.perturb_mode)
    rep = stability_experiment(cfg, ops, X0, Y0)
    lines = ["# delta = %s" % repr(spec.delta),
             "# perturb_mode = %d" % spec.perturb_mode,
             "distance0 sup_distance ratio tau_joint",
             "%s %s %s %s" % (repr(rep.distance0), repr(rep.sup_distance),
                              repr(rep.ratio), repr(rep.tau_joint))]
    report = "\n".join(lines) + "\n"
    with open(os.path.join(spec.out, "stability.txt"), "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {"simulate": cmd_simulate, "verify": cmd_verify,
             "converge": cmd_converge, "stability": cmd_stability}


# glibc mallopt parameters
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3


def keep_heap_pages():
    """On glibc, keep freed heap pages for reuse instead of handing them
    back to the kernel as soon as 128 KiB lie free at the heap top.

    A 64^2 sqg time step allocates and frees about 1 MiB of temporaries
    (a complex 64^2 array is 64 KiB); with glibc's defaults the top of the
    heap is trimmed and faulted in again every step (some 100 page faults
    a step), or not at all, depending on where earlier allocations
    happened to land.  16 MiB of top padding holds a step's temporaries;
    arrays up to 32 MiB come from the heap, where glibc's own threshold
    would settle after the first such array is freed.  The price is freed
    pages kept resident: `verify` with every estimate peaks about 3%
    higher.  Without mallopt (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TOP_PAD, 16 << 20)


def main(argv=None):
    keep_heap_pages()
    parser = argparse.ArgumentParser(
        prog="saltpde",
        description="transport-noise fluid PDE simulation and estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="flat key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="override worker count")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config, command=args.command)
        for key in ("seed", "out", "workers"):
            if getattr(args, key) is not None:
                setattr(spec.sim if key == "seed" else spec, key,
                        getattr(args, key))
        _check_spec(spec, args.config)      # the overrides pass the same rules
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    try:
        return _COMMANDS[args.command](spec)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
