"""Memory of the 2D estimate path, and the bits it keeps while saving it.

Budgets are in units of one 256^2 half-spectrum array, complex128 of shape
(256, 129): UNIT = 528 384 bytes.  A real 256^2 array of samples is about
one unit, a whole-spectrum complex array two.  Peaks come from the
peak_alloc fixture (tracemalloc), taken on a second call, after the first
has built the grid's multipliers and weights.  Each budget is the peak
measured on this layout plus its stated headroom; the routes they replaced
measured above them (in the comments), the concatenate route of the
transport product and the basis build's kept whole-spectrum tables far
above.

The one-buffer transport product must give the concatenate route's bits:
the sqg transport term against oracle_ops.concat_sqg_transport, and every
1D caller of dealiased_product against oracle_ops.concat_dealiased_product
(1D bits stay frozen: the cancellation check's ratio is conditioned only to
about 1e-9 at N = 1024).
"""

import gc
import types

import numpy as np
import pytest

import oracle_ops
from saltpde.estimates import (corpus_banks, corpus_field, corpus_state,
                               difference_ratio, growth_ratios,
                               helmholtz_commutator_ratio, kato_ponce_ratio)
from saltpde.models import make_ops
from saltpde.noise import build_basis_1d, build_basis_sqg
from saltpde.solver import SimConfig, run_path
from saltpde.spectral import Grid, lipschitz_bound

N = 256
UNIT = N * (N // 2 + 1) * 16
S = 4.5


@pytest.fixture(scope="module")
def sqg256():
    g = Grid(N, dim=2)
    basis = build_basis_sqg(g, 8, S + 2.0)
    X, Y = [corpus_state("sqg", g, S, banks)
            for banks in corpus_banks(2, 2, seed=17, per_state=2)]
    return g, basis, X, Y


def warm_peak(peak_alloc, fn, *args):
    """(peak, retained) of a second call of fn(*args), in units."""
    fn(*args)
    _, peak, retained = peak_alloc(fn, *args)
    return peak / UNIT, retained / UNIT


def owned_arrays(*roots):
    """Every ndarray that owns its data and is reachable from roots through
    instances, containers and arrays (not through classes, modules or
    functions, whose globals reach everything)."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.base is None:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def whole_arrays(grid, *roots):
    """The arrays reachable from grid and roots (owned_arrays) whose
    trailing axes have the grid's shape: whole spectra or samples."""
    return [a for a in owned_arrays(grid, *roots)
            if a.shape[-2:] == grid.shape]


def test_sqg_basis_leaves_no_whole_spectrum_arrays(peak_alloc):
    # the build reads ksq, the masks, two derivative symbols and the
    # H^{s_max} weight of the whole spectrum (about 7 units at 256^2, which
    # a layout kept with the grid would hold for the grid's life); they die
    # with the build, which leaves its 16 stencil entries
    g = Grid(N, dim=2)
    basis, _, retained = peak_alloc(build_basis_sqg, g, 8, S + 2.0)
    assert retained < 0.1 * UNIT        # measured 0.024 units
    assert whole_arrays(g, basis) == []
    # positive control: a table read on a whole-spectrum layout that the
    # basis keeps is found
    basis.layout = g.full_modes()
    ksq = basis.layout.ksq
    assert any(a is ksq for a in whole_arrays(g, basis))


def test_sqg_state_path_holds_no_whole_spectrum_array():
    # the V-norm, the max velocity on both of its routes and one Heun step
    # of run_path sample every field on its half spectrum, and keep no
    # array of the grid's shape on the grid or the ops
    cfg = SimConfig(model="sqg", n=64, dt=1e-3, t_end=1e-3, s=S, noise_k=4,
                    noise_s_max=S + 2.0, scheme="strat_heun")
    ops = cfg.build_ops()
    g = ops.grid
    X = cfg.initial_state(g).coeffs
    ops.v_norm(X)
    bound = lipschitz_bound(g, X)
    assert ops.max_velocity(X, 2.0 * bound) == bound
    assert ops.max_velocity(X, 0.5 * bound) < bound
    assert run_path(cfg, ops).stop_reason == "end"
    assert whole_arrays(g, ops) == []
    # positive control: an array of the grid's shape on the ops is found
    ops.probe = np.zeros(g.shape)
    assert any(a is ops.probe for a in whole_arrays(g, ops))


# (function, budget in units): the peak measured with the transport's
# component pairs sampled one at a time, the V-norm's fields sampled one at
# a time on their half spectra and the basis build's divergence summed in
# place, plus its headroom; and the peak of the route before (both pairs in
# one buffer, whole spectra transformed in place, a zeroed divergence) for
# comparison
BUDGETS = {
    "g": 6.0,                   # measured 4.98 (+1.02); before 7.98
    "growth_ratios": 7.0,       # measured 5.99 (+1.02); before 8.98
    "difference_ratio": 8.0,    # measured 6.99 (+1.02); before 9.98
    "v_norm": 7.02,             # measured 6.00 (+1.02); before 6.48
    "build_basis_sqg": 15.2,    # measured 14.17 (+1.02); before 15.27
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_sqg_operator_peaks_within_budget(name, sqg256, peak_alloc):
    g, basis, X, Y = sqg256
    ops = make_ops("sqg", g, S, basis, 0.125)
    call = {"g": (ops.g, X),
            "growth_ratios": (growth_ratios, ops, X, ops.x_inner(X, X),
                              ops.v_norm(X)),
            "difference_ratio": (difference_ratio, ops, X, Y),
            "v_norm": (ops.v_norm, X),
            "build_basis_sqg": (build_basis_sqg, g, 8, S + 2.0)}[name]
    peak, retained = warm_peak(peak_alloc, *call)
    assert peak <= BUDGETS[name], peak
    # nothing is kept beyond the result (g's one state, the basis's 16
    # stencil entries: measured 0.013 units)
    assert retained <= {"g": 1.01, "build_basis_sqg": 0.1}.get(name, 0.01), \
        retained


def same_bits(a, b):
    # np.array_equal, and the signs of zeros too
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [64, 256])
def test_sqg_transport_matches_concatenate_route(n):
    g = Grid(n, dim=2)
    ops = make_ops("sqg", g, S, build_basis_sqg(g, 4, S + 2.0), 0.125)
    jhat = ops._jhat
    for banks in corpus_banks(2, 3, seed=29, per_state=2):
        X = corpus_state("sqg", g, S, banks)
        before = X.tobytes()
        want = oracle_ops.concat_sqg_transport(g, X)
        want *= -1.0
        assert same_bits(ops.g_transport(X), want)
        want = oracle_ops.concat_sqg_transport(g, X * jhat)
        want *= jhat
        want *= -1.0
        assert same_bits(ops.g_eps_transport(X), want)
        assert X.tobytes() == before


def checked_products(monkeypatch, modules):
    """Wraps dealiased_product at the bindings of modules: every call must
    give the concatenate route's bytes and leave its inputs as they were.
    Returns the list of calls made, by module."""
    from saltpde import spectral
    calls = []

    def checked(grid, f, g, dot=False, _module=None):
        inputs = [(x, x.tobytes()) for x in (f, g)]
        got = spectral.dealiased_product(grid, f, g, dot)
        want = oracle_ops.concat_dealiased_product(grid, f, g, dot)
        assert same_bits(got, want)
        assert all(x.tobytes() == b for x, b in inputs)
        calls.append(_module)
        return got

    for module in modules:
        monkeypatch.setattr(
            module, "dealiased_product",
            lambda *a, _m=module.__name__, **k: checked(*a, _module=_m, **k))
    return calls


def test_1d_products_match_concatenate_route(monkeypatch):
    # the ccf transport, Sch2Ops.b's four-row product and the sch2
    # transport (models), ds_commutator's broadcast pair (lie, through
    # kato_ponce_ratio) and helmholtz_commutator_ratio (estimates), on
    # corpus fields at N = 1024
    from saltpde import estimates, lie, models
    calls = checked_products(monkeypatch, (models, lie, estimates))
    n = 1024
    g = Grid(n)
    (bf, bg), = corpus_banks(1, 1, seed=11, per_state=2)
    f, h = (corpus_field(g, 4.0, "critical", b) for b in (bf, bg))
    kato_ponce_ratio(g, 4.0, f, h)
    helmholtz_commutator_ratio(g, 0.125, h, f)
    for model, s in (("ccf", 4.0), ("sch2", 6.0)):
        ops = make_ops(model, g, s, build_basis_1d(g, 4, s + 2.0), 0.25)
        for banks in corpus_banks(1, 2, seed=31, per_state=2):
            X = corpus_state(model, g, s, banks)
            ops.g_transport(X)
            ops.g_eps_transport(X)
            if model == "sch2":
                ops.b(X)
    assert {m: calls.count(m) for m in set(calls)} == {
        "saltpde.lie": 1, "saltpde.estimates": 1, "saltpde.models": 10}
