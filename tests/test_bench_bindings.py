"""The benchmark's expected spans name functions that still exist.

perfbench/spans.py wraps the public functions of each layer module and the
functions in each ``*Ops`` class's own ``vars()``; a workload whose expected
span names something else fails only in a traced benchmark run.  This check
reads the same names without running anything.  The numpy.fft names a
workload expects are checked by running its 2D paths with numpy.fft wrapped.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# spans the benchmark records from outside the package
NOT_PACKAGE = ("numpy.fft.", "cli.open(w)")


def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # imports only the standard library
    return module


def expected_spans():
    names = set()
    for obj in vars(workloads()).values():
        if inspect.isclass(obj):
            names.update(getattr(obj, "expected_spans", ()))
    return sorted(n for n in names if not n.startswith(NOT_PACKAGE))


def test_expected_spans_are_bound():
    names = expected_spans()
    assert any(n.startswith("models.") and n.count(".") == 2 for n in names)
    for name in names:
        parts = name.split(".")
        module = importlib.import_module("saltpde." + parts[0])
        if len(parts) == 3:
            # class-level method, wrapped only if the class defines it itself
            cls = getattr(module, parts[1])
            assert inspect.isfunction(vars(cls).get(parts[2])), name
        else:
            fn = getattr(module, parts[1], None)
            assert inspect.isfunction(fn), name
            assert not parts[1].startswith("_"), name
            assert fn.__module__ == module.__name__, name


def unbound_public_names(cls):
    """The public callables cls answers to that are not functions in its
    own vars(): the tracer would record their calls under another class,
    or not at all."""
    return sorted(name for name in dir(cls)
                  if not name.startswith("_") and callable(getattr(cls, name))
                  and not inspect.isfunction(vars(cls).get(name)))


def test_ops_classes_bind_every_public_method():
    # each model class binds the operators and norms it shares with
    # _FluidOps in its own body, so that every call is traced under it
    from saltpde import models
    traced = [cls for name, cls in vars(models).items()
              if inspect.isclass(cls) and name.endswith("Ops")]
    assert {models.Sch2Ops, models.CcfOps, models.SqgOps,
            models.LinearOps} <= set(traced)
    for cls in traced:
        assert unbound_public_names(cls) == [], cls.__name__


def test_binding_check_fails_on_a_class_that_binds_nothing():
    # positive control: a model class that inherits the shared operators
    # and norms instead of binding them answers to every one of them
    from saltpde import models

    class BareOps(models._FluidOps):
        kind = "ccf"

        def v_norm(self, X):
            return 0.0

    assert unbound_public_names(BareOps) == sorted(
        ("b", "g_transport", "ito_correction", "g", "h_k", "g_eps_transport",
         "g_eps", "h_eps_k", "max_velocity", "x_inner", "z_inner", "x_norm",
         "z_norm"))


def test_binding_rule_gives_the_core_functions_and_overrides_nothing():
    # the rule below OPS_CLASS puts each public function of _FluidOps that
    # a model class does not define into the class's vars() as that very
    # function, so the tracer wraps the shared code under the class name
    import numpy as np

    from saltpde import models, spectral
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.noise import build_basis_1d
    core = {name: fn for name, fn in vars(models._FluidOps).items()
            if inspect.isfunction(fn) and not name.startswith("_")}
    own = {models.Sch2Ops: {"b"}, models.CcfOps: set(), models.SqgOps: set()}
    for cls, defined in own.items():
        for name, fn in core.items():
            assert (vars(cls)[name] is fn) == (name not in defined), \
                (cls.__name__, name)
        # the class's own definitions stay
        assert vars(cls)["v_norm"].__qualname__ == cls.__name__ + ".v_norm"
    assert models.Sch2Ops.b is not models._FluidOps.b
    # LinearOps defines or aliases every core name itself
    lin = vars(models.LinearOps)
    assert lin["z_inner"] is core["x_inner"]
    assert lin["z_norm"] is lin["v_norm"] is core["x_norm"]
    assert lin["g_eps"] is lin["g"] and lin["h_eps_k"] is lin["h_k"]
    assert lin["max_velocity"].__qualname__ == "LinearOps.max_velocity"

    # sch2's norms through the core, with the arithmetic of its own former
    # x_norm and z_norm, bit for bit
    grid = spectral.Grid(64)
    ops = models.make_ops("sch2", grid, 6.0, build_basis_1d(grid, 4, 8.0), 0.1)
    X = corpus_state("sch2", grid, 6.0, corpus_banks(1, 1, 3, per_state=2)[0])
    assert ops.x_norm(X) == float(np.sqrt(max(ops.x_inner(X, X), 0.0)))
    assert ops.z_norm(X) == float(np.sqrt(max(ops.z_inner(X, X), 0.0)))


def count_at_bindings(monkeypatch, fn):
    """Wrap fn at every module-level binding in the package, as the tracer
    does; returns the list each call appends to and the modules patched."""
    import sys
    calls, patched = [], set()

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "saltpde" or name.startswith("saltpde."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
                    patched.add(name)
    return calls, patched


def sqg_setup():
    from saltpde import spectral
    from saltpde.models import make_initial_state, make_ops
    from saltpde.noise import build_basis_sqg
    grid = spectral.Grid(32, dim=2)
    ops = make_ops("sqg", grid, 4.5, build_basis_sqg(grid, 4, 6.5), 0.1)
    return ops, make_initial_state("sqg", grid, "smooth", 0.1).coeffs


def test_sqg_heun_step_reaches_product_with_values(monkeypatch):
    # the tracer records spectral.product_with_values by wrapping it at
    # every module-level binding in the package, and the sqg_heun workload
    # expects that span; a 2D Lie kernel that went around those bindings
    # (a private helper, say) would fail only a traced benchmark run
    import numpy as np

    from saltpde import spectral
    from saltpde.solver import step_strat_heun
    calls, patched = count_at_bindings(monkeypatch,
                                       spectral.product_with_values)
    assert "saltpde.lie" in patched
    ops, X = sqg_setup()
    step_strat_heun(X, ops, np.full(4, 0.01), 1e-3, 1e6)
    assert len(calls) >= ops.basis.K


def test_sqg_heun_step_and_norms_reach_to_grid_and_product(monkeypatch):
    # the sqg_heun workload expects spectral.to_grid and
    # spectral.dealiased_product; the transforms of the transport term,
    # v_norm and max_velocity must go through those two functions at their
    # module bindings, not through a helper beside them.  A step handed no
    # V-norm decides chi_R from a coefficient bound at R = 1e6 (no to_grid
    # call); with R below that bound it calls v_norm on X and on the
    # predictor, 6 to_grid calls each (one per real field).  max_velocity
    # makes 2, and none where its coefficient bound lies below the limit
    # it is given (the CFL check's)
    import numpy as np

    from saltpde import spectral
    from saltpde.solver import step_strat_heun
    ops, X = sqg_setup()
    X = 10.0 * X
    assert 2.0 * spectral.lipschitz_bound(ops.grid, X) > 4.0
    counts = {}
    for fn in (spectral.to_grid, spectral.dealiased_product):
        calls, patched = count_at_bindings(monkeypatch, fn)
        assert "saltpde.models" in patched, fn.__name__
        counts[fn.__name__] = calls
    to_grid_calls = counts["to_grid"]
    step_strat_heun(X, ops, np.full(4, 0.01), 1e-3, 1e6)
    assert len(counts["dealiased_product"]) == 2 and len(to_grid_calls) == 0
    step_strat_heun(X, ops, np.full(4, 0.01), 1e-3, 2.0)
    assert len(counts["dealiased_product"]) == 4 and len(to_grid_calls) == 12
    to_grid_calls.clear()
    ops.v_norm(X)
    assert len(to_grid_calls) == 6
    ops.max_velocity(X)
    assert len(to_grid_calls) == 8
    ops.max_velocity(X, 1e9)
    assert len(to_grid_calls) == 8
    ops.max_velocity(X, 0.0)
    assert len(to_grid_calls) == 10


def assert_sqg_g_reaches_stencil_sum(monkeypatch):
    # the Ito sum of a 2D basis applies both L_k of every xi_k as block
    # stencil sums; the tracer records spectral.stencil_sum only if lie
    # calls it through its module binding
    from saltpde import spectral
    calls, patched = count_at_bindings(monkeypatch, spectral.stencil_sum)
    ops, X = sqg_setup()
    ops.g(X)
    assert "saltpde.lie" in patched
    assert len(calls) == 2 * ops.basis.K


def test_sqg_g_reaches_stencil_sum(monkeypatch):
    assert_sqg_g_reaches_stencil_sum(monkeypatch)


def test_stencil_sum_check_fails_on_a_private_helper(monkeypatch):
    # positive control: lie calling the kernel through a private helper that
    # captured it at import time escapes every binding the tracer wraps
    from saltpde import lie, spectral

    def _stencil_sum(grid, stencil, block, _kernel=spectral.stencil_sum):
        return _kernel(grid, stencil, block)

    monkeypatch.setattr(lie, "stencil_sum", _stencil_sum)
    with pytest.raises(AssertionError):
        assert_sqg_g_reaches_stencil_sum(monkeypatch)


def numpy_fft_calls(monkeypatch):
    """Wrap every numpy.fft entry point the tracer wraps; returns the dict
    of call counts by name."""
    import numpy as np
    from conftest import FFT_ENTRY_POINTS
    counts = dict.fromkeys(FFT_ENTRY_POINTS, 0)
    for name in FFT_ENTRY_POINTS:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def assert_2d_paths_reach_expected_numpy_fft(monkeypatch):
    # the traced benchmark expects every numpy.fft name in a workload's
    # expected_spans to be called, and expected_spans() above skips those
    # names; so one sqg Heun step (sqg_heun) and one 2D growth sample
    # (estimate_lab) run with numpy.fft wrapped, and each must reach every
    # numpy.fft name its workload expects
    import numpy as np

    from saltpde.estimates import corpus_banks, corpus_state, growth_ratios
    from saltpde.solver import step_strat_heun
    module = workloads()
    want = {w: sorted(n[len("numpy.fft."):] for n in cls.expected_spans
                      if n.startswith("numpy.fft."))
            for w, cls in (("sqg_heun", module.SqgHeun),
                           ("estimate_lab", module.EstimateLab))}
    assert want["sqg_heun"] and want["estimate_lab"]
    ops, X = sqg_setup()
    Y = corpus_state("sqg", ops.grid, 4.5, corpus_banks(2, 1, 17, 2)[0])
    counts = numpy_fft_calls(monkeypatch)
    for workload, run in (
            ("sqg_heun", lambda: step_strat_heun(X, ops, np.full(4, 0.01),
                                                 1e-3, 1e6)),
            ("estimate_lab", lambda: growth_ratios(
                ops, Y, ops.x_inner(Y, Y), ops.v_norm(Y)))):
        for name in counts:
            counts[name] = 0
        run()
        assert [n for n in want[workload] if not counts[n]] == [], workload


def test_2d_paths_reach_expected_numpy_fft(monkeypatch):
    assert_2d_paths_reach_expected_numpy_fft(monkeypatch)


def test_numpy_fft_check_fails_on_a_2d_irfftn(monkeypatch):
    # positive control: a 2D inverse transform made by one irfftn call
    # (the same samples) no longer reaches numpy.fft.ifftn
    import numpy as np

    from saltpde import spectral
    inverse = spectral._inverse

    def _inverse(grid, z):
        if grid.dim == 1:
            return inverse(grid, z)
        return np.fft.irfftn(z, s=grid.shape, axes=grid.axes)
    monkeypatch.setattr(spectral, "_inverse", _inverse)
    with pytest.raises(AssertionError):
        assert_2d_paths_reach_expected_numpy_fft(monkeypatch)
