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
from saltpde.spectral import Grid

N = 256
UNIT = N * (N // 2 + 1) * 16
S = 4.5
TABLES = ("ksq", "inv_absk", "dealias_keep", "not_nyquist")


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


def test_sqg_basis_leaves_no_whole_spectrum_arrays(peak_alloc):
    # the build reads ksq, the masks, two derivative symbols and the
    # H^{s_max} weight of the whole spectrum (about 7 units at 256^2, which
    # the grid kept for its life when they lived on Grid.full); they die
    # with the build, which leaves its 16 stencil entries
    g = Grid(N, dim=2)
    basis, _, retained = peak_alloc(build_basis_sqg, g, 8, S + 2.0)
    assert retained < 0.1 * UNIT        # measured 0.024 units
    whole = [a for a in owned_arrays(g, basis) if a.shape[-2:] == g.shape]
    assert whole == []
    # positive control: a table read on Grid.full stays with the grid
    assert g.full.ksq.shape == g.shape
    assert any(a is g.full.ksq for a in owned_arrays(g, basis))


def test_full_layout_is_one_object_holding_no_tables(sqg256):
    # the V-norm and max velocity transform on Grid.full, which reads only
    # its geometry: one layout across calls, with no table or symbol
    g, basis, X, _ = sqg256
    ops = make_ops("sqg", g, S, basis, 0.5)
    ops.v_norm(X)
    layout = g.full
    for _ in range(2):
        ops.v_norm(X)
        ops.max_velocity(X)
        assert g.full is layout
    assert not set(TABLES) & set(vars(layout)) and layout._symbols == {}


# (function, budget in units): the peak measured with the transport's
# component pairs sampled one at a time, the V-norm's spectra transformed
# in place and the basis build's divergence summed in place, plus its
# headroom; and the peak of the route before (both pairs in one buffer,
# to_grid's scaled copy, a zeroed divergence) for comparison
BUDGETS = {
    "g": 6.0,                   # measured 4.98 (+1.02); before 7.98
    "growth_ratios": 7.0,       # measured 5.99 (+1.02); before 8.98
    "difference_ratio": 8.0,    # measured 6.99 (+1.02); before 9.98
    "v_norm": 7.5,              # measured 6.48 (+1.02); before 10.08
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
