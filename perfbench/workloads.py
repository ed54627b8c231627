"""The four benchmark workloads.

Each workload turns the benchmark seed into generated inputs (a config
derived from a shipped ``configs/*.cfg``, or the corpus seeds of the estimate
checks), times one set-up, runs one repetition, and reads the program's
outputs back as plain numbers for the correctness gate.  Seed 0 reproduces
the shipped inputs exactly; that is the seed the stored reference covers.
"""

import contextlib
import importlib
import inspect
import io
import math
import os
import shutil
import sys

SEED_STRIDE = 1000

CHECK_IDS = ("cancellation", "kato_ponce", "helmholtz_commutator",
             "growth_sch2", "growth_ccf", "growth_sqg", "difference_sch2",
             "difference_ccf", "difference_sqg", "log_interpolation")

# functions each workload must reach; a zero count means a missed binding
_SIMULATE_SPANS = (
    "cli.main", "cli.parse_config", "cli.cmd_simulate", "cli.write_manifest",
    "cli.open(w)", "solver.run_path", "solver.chi_cutoff",
    "solver.write_trajectory", "noise.sample_path", "models.make_ops",
    "models.make_initial_state", "models.ModelState.__init__",
    "lie.lie_derivative", "spectral.product_with_values",
    "spectral.dealiased_product", "spectral.from_values", "spectral.to_grid",
    "numpy.fft.fftn", "numpy.fft.ifftn")


def import_saltpde():
    """Import the package from scratch (fresh module objects every call)."""
    for name in [n for n in sys.modules
                 if n == "saltpde" or n.startswith("saltpde.")]:
        del sys.modules[name]
    importlib.import_module("saltpde")
    return importlib.import_module("saltpde.cli")


def _finite(*values):
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _derive_config(src, dst, overrides):
    """Copy a shipped config, replacing or appending the given keys."""
    lines = []
    seen = set()
    with open(src) as fh:
        for line in fh:
            key = line.partition("=")[0].strip()
            if "=" in line and not line.lstrip().startswith("#") and key in overrides:
                line = "%s = %s\n" % (key, overrides[key])
                seen.add(key)
            lines.append(line)
    for key, val in overrides.items():
        if key not in seen:
            lines.append("%s = %s\n" % (key, val))
    with open(dst, "w") as fh:
        fh.writelines(lines)


def _config_values(path):
    """key -> raw value text of a flat key-value config."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line and not line.lstrip().startswith("#"):
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    return values


class _CliWorkload:
    """A saltpde CLI command on a config generated from a shipped one."""

    command = ""
    shipped = ""

    def __init__(self, root, seed, workdir):
        self.out = os.path.join(workdir, "out")
        self.cfg = os.path.join(workdir, os.path.basename(self.shipped))
        src = os.path.join(root, "configs", self.shipped)
        self.sim_seed = int(_config_values(src)["seed"]) + SEED_STRIDE * seed
        _derive_config(src, self.cfg, {"seed": self.sim_seed, "out": self.out,
                                       "workers": 1})
        self.values = _config_values(self.cfg)

    def largest_array_bytes(self):
        dim = 2 if self.values["model"] == "sqg" else 1
        return 16 * int(self.values["n"]) ** dim

    def setup(self, cli):
        """Config parse plus everything run_path builds before its first step."""
        from saltpde.noise import sample_path
        spec = cli.parse_config(self.cfg, command=self.command)
        sim = self.first_member(spec)
        grid = sim.grid()
        basis = sim.build_basis(grid)
        sim.build_ops(grid, basis)
        sim.initial_state(grid)
        sample_path(sim.seed, sim.dt, sim.n_steps(), sim.path_k())

    def first_member(self, spec):
        return spec.sim

    def prepare_rep(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, cli, recorder=None):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([self.command, self.cfg])

    def out_bytes(self):
        total = 0
        for dirpath, _, files in os.walk(self.out):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total


class Simulate(_CliWorkload):
    command = "simulate"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.ensemble = int(self.values.get("ensemble", 1))
        self.ops_per_rep = self.ensemble

    def outputs(self, rc):
        """Final Hs_norm / V_norm / tau / stop_reason of every member."""
        from saltpde.solver import read_trajectory
        members = []
        for i in range(self.ensemble):
            path = os.path.join(self.out, "traj_%d.txt" % (self.sim_seed + i))
            if rc != 0 or not os.path.exists(path):
                members.append(None)
                continue
            rec = read_trajectory(path)
            members.append({"Hs_norm": rec.hs_norms[-1], "V_norm": rec.v_norms[-1],
                            "tau": rec.tau, "stop_reason": rec.stop_reason})
        return {"members": members}

    @staticmethod
    def failures(outputs, reference, close):
        failed = 0
        ref = reference["members"] if reference else None
        for i, m in enumerate(outputs["members"]):
            bad = (m is None or not _finite(m["Hs_norm"], m["V_norm"], m["tau"])
                   or m["stop_reason"] == "diverged")
            if not bad and ref is not None:
                r = ref[i]
                bad = (m["stop_reason"] != r["stop_reason"]
                       or not all(close(m[k], r[k]) for k in ("Hs_norm", "V_norm", "tau")))
            failed += int(bad)
        return failed


class CcfEnsemble(Simulate):
    name = "ccf_ensemble"
    shipped = "simulate_ccf.cfg"
    expected_spans = _SIMULATE_SPANS + (
        "solver.step_ito_em", "noise.build_basis_1d", "lie.lie_second",
        "models.CcfOps.b", "models.CcfOps.g_eps", "models.CcfOps.h_eps_k",
        "models.CcfOps.x_norm", "models.CcfOps.v_norm",
        "models.CcfOps.max_velocity", "spectral.hilbert_transform")


class SqgHeun(Simulate):
    name = "sqg_heun"
    shipped = "simulate_sqg.cfg"
    expected_spans = _SIMULATE_SPANS + (
        "solver.step_strat_heun", "noise.build_basis_sqg",
        "models.SqgOps.b", "models.SqgOps.g_eps_transport",
        "models.SqgOps.h_eps_k", "models.SqgOps.x_norm", "models.SqgOps.v_norm",
        "models.SqgOps.max_velocity", "spectral.riesz_perp",
        "spectral.riesz_component", "spectral.gradient")


class LinearMc(_CliWorkload):
    name = "linear_mc"
    command = "converge"
    shipped = "converge_linear.cfg"
    expected_spans = (
        "cli.main", "cli.parse_config", "cli.cmd_converge",
        "cli.linear_strong_error", "cli.write_manifest", "cli.open(w)",
        "noise.sample_path", "solver.run_path", "solver.step_ito_em",
        "solver.chi_cutoff", "models.make_ops", "models.make_initial_state",
        "models.ModelState.__init__", "models.LinearOps.b",
        "models.LinearOps.g_eps", "models.LinearOps.h_eps_k",
        "models.LinearOps.x_norm", "models.LinearOps.v_norm",
        "models.LinearOps.max_velocity", "models.LinearOps.value",
        "models.LinearOps.exact_solution", "spectral.zero_field",
        "spectral.sobolev_norm")

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.ensemble = int(self.values["ensemble"])
        self.rungs = len(self.values["dt_ladder"].split(","))
        self.ops_per_rep = self.ensemble * self.rungs

    def first_member(self, spec):
        from dataclasses import replace
        return replace(spec.sim, dt=max(spec.dt_ladder), scheme="ito_em")

    def outputs(self, rc):
        """Strong error per dt rung and the fitted EM order."""
        out = {"ensemble": self.ensemble, "rungs": self.rungs, "dt": None,
               "strong_error": None, "order": None}
        path = os.path.join(self.out, "converge.txt")
        if rc != 0 or not os.path.exists(path):
            return out
        dts, errs = [], []
        with open(path) as fh:
            for line in fh:
                if line.startswith("# strong_order_em ="):
                    out["order"] = float(line.partition("=")[2])
                elif line[:1].isdigit():
                    dt, err = line.split()
                    dts.append(float(dt))
                    errs.append(float(err))
        out["dt"], out["strong_error"] = dts, errs
        return out

    @staticmethod
    def failures(outputs, reference, close):
        """A rung off its reference fails its members; a bad order fails all."""
        n, rungs = outputs["ensemble"], outputs["rungs"]
        errs, order = outputs["strong_error"], outputs["order"]
        if errs is None or len(errs) != rungs or not _finite(order):
            return n * rungs
        if reference and not close(order, reference["order"]):
            return n * rungs
        failed = 0
        for i, e in enumerate(errs):
            bad = not _finite(e) or (reference is not None
                                     and not close(e, reference["strong_error"][i]))
            failed += n * int(bad)
        return failed


class EstimateLab:
    name = "estimate_lab"

    expected_spans = (
        "estimates.check_cancellation", "estimates.check_kato_ponce",
        "estimates.check_helmholtz_commutator", "estimates.check_growth",
        "estimates.check_difference", "estimates.check_log_interpolation",
        "estimates.cancellation_terms", "estimates.kato_ponce_ratio",
        "estimates.helmholtz_commutator_ratio", "estimates.growth_ratios",
        "estimates.difference_ratio", "estimates.log_interpolation_ratio",
        "estimates.corpus_banks", "estimates.corpus_field",
        "estimates.corpus_state", "estimates.fit_exponent", "models.make_ops",
        "noise.build_basis_1d", "noise.build_basis_sqg",
        "noise.constant_basis_1d", "lie.lie_derivative", "lie.ds_commutator",
        "spectral.mollify_helmholtz", "spectral.dealiased_product",
        "spectral.hs_inner", "spectral.sup_norm", "models.Sch2Ops.g_eps",
        "models.CcfOps.g_eps", "models.SqgOps.g_eps", "models.SqgOps.h_eps_k",
        "models.SqgOps.g", "models.SqgOps.h_k", "models.SqgOps.x_inner",
        "models.SqgOps.z_inner", "models.ModelState.__init__",
        "numpy.fft.fftn", "numpy.fft.ifftn")

    # the shipped 2D ladder runs to 1024 (~125 s a pass); cut it at 512
    MAX_2D = 512

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.ops_per_rep = len(CHECK_IDS)
        self.reports = {}

    def largest_array_bytes(self):
        import saltpde.estimates as E
        n2 = max(n for n in E.RESOLUTIONS_2D if n <= self.MAX_2D)
        return 16 * max(max(E.RESOLUTIONS_1D), n2 * n2)

    def checks(self):
        """(id, thunk) for the ten checks, seeds shifted from their defaults."""
        import saltpde.estimates as E
        off = SEED_STRIDE * self.seed
        ladder_2d = tuple(n for n in E.RESOLUTIONS_2D if n <= self.MAX_2D)

        def at(fn, *args, **kwargs):
            seed = inspect.signature(fn).parameters["seed"].default + off
            return lambda: fn(*args, seed=seed, **kwargs)

        return [
            ("cancellation", at(E.check_cancellation)),
            ("kato_ponce", at(E.check_kato_ponce)),
            ("helmholtz_commutator", at(E.check_helmholtz_commutator)),
            ("growth_sch2", at(E.check_growth, "sch2")),
            ("growth_ccf", at(E.check_growth, "ccf")),
            ("growth_sqg", at(E.check_growth, "sqg", resolutions=ladder_2d)),
            ("difference_sch2", at(E.check_difference, "sch2")),
            ("difference_ccf", at(E.check_difference, "ccf")),
            ("difference_sqg", at(E.check_difference, "sqg", resolutions=ladder_2d)),
            ("log_interpolation", at(E.check_log_interpolation)),
        ]

    def setup(self, cli):
        """Corpus, grid and basis of the first check's first ratio."""
        import saltpde.estimates as E
        from saltpde.noise import build_basis_1d
        from saltpde.spectral import Grid
        sig = inspect.signature(E.check_cancellation).parameters
        s = sig["s"].default
        banks = E.corpus_banks(1, sig["corpus_count"].default,
                               sig["seed"].default + SEED_STRIDE * self.seed)
        grid = Grid(sig["resolutions"].default[0])
        build_basis_1d(grid, sig["K"].default, s_max=s + 2.0)
        E.corpus_field(grid, s, "critical", banks[0][0])

    def prepare_rep(self):
        pass

    def run(self, cli, recorder=None):
        self.reports = {}
        for cid, thunk in self.checks():
            span = recorder.span("estimates.check." + cid) if recorder \
                else contextlib.nullcontext()
            try:
                with span:
                    self.reports[cid] = thunk()
            except Exception as exc:        # a raising check is a failed operation
                self.reports[cid] = exc
        return 0

    def out_bytes(self):
        return 0

    def outputs(self, rc):
        """Ratios, exponent and pass flag of each check."""
        out = {}
        for cid in CHECK_IDS:
            rep = self.reports.get(cid, RuntimeError("not run"))
            if isinstance(rep, Exception):
                out[cid] = {"error": repr(rep)}
            else:
                out[cid] = {"ratios": [float(r) for r in rep.ratios],
                            "exponent": float(rep.exponent),
                            "passed": bool(rep.passed)}
        return out

    @staticmethod
    def failures(outputs, reference, close):
        failed = 0
        for cid, o in outputs.items():
            bad = "error" in o or not _finite(o["exponent"], *o["ratios"])
            if not bad and reference is not None:
                r = reference[cid]
                bad = (o["passed"] != r["passed"] or len(o["ratios"]) != len(r["ratios"])
                       or not close(o["exponent"], r["exponent"])
                       or not all(map(close, o["ratios"], r["ratios"])))
            failed += int(bad)
        return failed


WORKLOADS = {w.name: w for w in (CcfEnsemble, SqgHeun, LinearMc, EstimateLab)}
