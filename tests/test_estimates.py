import math

import numpy as np
import pytest

import saltpde.estimates as E
from saltpde.estimates import (CoefficientBank, EstimateReport, check_growth,
                               check_difference, check_cancellation, check_log_interpolation,
                               check_kato_ponce, check_helmholtz_commutator,
                               corpus_banks, corpus_field, corpus_kmax,
                               corpus_state, fit_exponent, run_estimates,
                               summary_table, helmholtz_commutator_ratio, _sups)
from saltpde.spectral import Grid, from_values, sobolev_norm, sup_norm

FAST_1D = (64, 128, 256)


def test_corpus_nested_across_resolutions():
    # the same bank restricted to a larger band extends the smaller field
    bank = CoefficientBank(1, np.random.default_rng(0))
    f_small = bank.field(Grid(64), 3.0, corpus_kmax(64))
    f_big = bank.field(Grid(128), 3.0, corpus_kmax(64))
    k = np.arange(1, corpus_kmax(64) + 1)
    assert np.max(np.abs(f_small[k] - f_big[k])) < 1e-14


def test_trimmed_bank_fields_equal_the_full_bank():
    # a 2D bank cut to the finest rung's corpus_kmax draws what the full
    # bank draws, in the same order, so every rung's field keeps its bits;
    # modes beyond the kept block are refused, not clipped
    from saltpde.estimates import RESOLUTIONS_2D
    kmax = corpus_kmax(max(RESOLUTIONS_2D))
    full = corpus_banks(2, 1, seed=41, per_state=2)[0]
    trimmed = corpus_banks(2, 1, seed=41, per_state=2, kmax=kmax)[0]
    assert trimmed[1].raw.shape == (2 * kmax + 1, kmax + 1)
    for n in RESOLUTIONS_2D:
        g = Grid(n, dim=2)
        for whole, cut in zip(full, trimmed):
            assert np.array_equal(corpus_field(g, 4.5, "critical", cut),
                                  corpus_field(g, 4.5, "critical", whole)), n
    small = CoefficientBank(2, np.random.default_rng(41), kmax=corpus_kmax(512))
    with pytest.raises(ValueError, match="modes up to %d, but the bank kept "
                       "modes up to %d" % (kmax, corpus_kmax(512))):
        small.field(Grid(1024, dim=2), 5.1, kmax)


def test_corpus_kinds():
    g = Grid(128)
    bank = CoefficientBank(1, np.random.default_rng(1))
    for kind in ("smooth", "critical", "bandlimited"):
        f = corpus_field(g, 4.0, kind, bank)
        assert abs(sobolev_norm(g, f, 4.0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        corpus_field(g, 4.0, "nope", bank)


def test_corpus_state_normalised():
    banks = corpus_banks(2, 1, seed=3, per_state=2)[0]
    g = Grid(32, dim=2)
    X = corpus_state("sqg", g, 4.5, banks)
    assert abs(X[0, 0, 0].real) < 1e-14


def test_fit_exponent():
    ns = (64, 128, 256, 512)
    assert abs(fit_exponent(ns, [1.0, 1.0, 1.0, 1.0])) < 1e-12
    assert abs(fit_exponent(ns, [n ** 0.5 for n in ns]) - 0.5) < 1e-12


def test_sups_contract():
    # per tuple position and rung: the sup of |r| over the corpus, 0.0 for
    # an empty corpus, plain floats
    corpus = {64: [(0.5, -2.0), (-1.5, 1.0)], 128: [], 256: [(0.25, 3.0)]}
    sups = _sups(list(corpus), lambda n: iter(corpus[n]), width=2)
    assert sups == [[1.5, 0.0, 0.25], [2.0, 0.0, 3.0]]
    assert all(type(v) is float for col in sups for v in col)
    assert _sups([64, 128], lambda n: iter(())) == [[0.0, 0.0]]

    # finite ratios: the running max(worst, |r|) from 0.0, bit for bit
    rng = np.random.default_rng(0)
    rows = [tuple(rng.standard_normal(3) * 10.0 ** rng.integers(-300, 300, 3))
            for _ in range(7)]
    worst = [0.0, 0.0, 0.0]
    for row in rows:
        worst = [max(w, abs(r)) for w, r in zip(worst, row)]
    assert _sups([0], lambda n: (r for r in rows), width=3) == [[w] for w in worst]

    # one NaN makes its rung's entry NaN wherever it comes in the corpus
    for at in range(3):
        rows = [(1.0,), (-2.0,), (3.0,)]
        rows[at] = (np.nan,)
        (col,) = _sups([64, 128], lambda n: iter(rows if n == 128 else [(5.0,)]))
        assert col[0] == 5.0 and math.isnan(col[1]), at


def _poison(monkeypatch, name, n, at):
    """Make the ratio function `name` return NaN (in its first position)
    for the sample number `at` of the rung with n points."""
    real, seen = getattr(E, name), []

    def ratio(*args):
        out = real(*args)
        grid = args[0] if isinstance(args[0], Grid) else args[0].grid
        if grid.n == n:
            seen.append(1)
            if len(seen) == at + 1:
                return (np.nan,) + out[1:] if isinstance(out, tuple) else np.nan
        return out
    monkeypatch.setattr(E, name, ratio)


@pytest.mark.parametrize("name, check", [
    ("cancellation_terms",
     lambda: check_cancellation(resolutions=FAST_1D, corpus_count=2)),
    ("kato_ponce_ratio",
     lambda: check_kato_ponce(resolutions=FAST_1D, corpus_count=2)),
    ("helmholtz_commutator_ratio",
     lambda: check_helmholtz_commutator(eps_list=(0.5, 0.125),
                                        resolutions=FAST_1D, corpus_count=2)),
    ("growth_ratios",
     lambda: check_growth("ccf", resolutions=FAST_1D, corpus_count=2,
                          eps_list=(0.5, 0.125))),
    ("difference_ratio",
     lambda: check_difference("ccf", resolutions=FAST_1D, corpus_count=2)),
])
def test_a_nan_ratio_fails_its_check(monkeypatch, name, check):
    # one NaN among the corpus of the middle rung (its second sample) must
    # reach the report and fail the check, not be dropped by the sup
    assert check().passed
    _poison(monkeypatch, name, FAST_1D[1], at=1)
    rep = check()
    assert rep.passed is False
    assert math.isnan(rep.ratios[1])
    assert np.all(np.isfinite(rep.ratios[::2]))


def test_cancellation_small_ladder():
    rep = check_cancellation(resolutions=FAST_1D, corpus_count=2)
    assert rep.passed
    assert rep.details["uncancelled_exponent"] >= 0.5
    assert rep.details["const_xi_relative"] < 1e-10


def test_cancellation_empty_basis_is_zero():
    from saltpde.estimates import cancellation_terms
    from saltpde.noise import build_basis_1d
    g = Grid(64)
    bank = CoefficientBank(1, np.random.default_rng(9))
    f = corpus_field(g, 4.0, "critical", bank)
    q, t1 = cancellation_terms(g, 4.0, build_basis_1d(g, 0, 6.0), f)
    assert q == 0.0 and t1 == 0.0


def test_kato_ponce_small_ladder():
    rep = check_kato_ponce(resolutions=FAST_1D, corpus_count=2)
    assert rep.passed and rep.exponent < 0.1


def test_helmholtz_commutator_limits():
    g = Grid(128)
    # constant advecting field: commutator vanishes identically
    const = from_values(g, np.full(128, 0.7))
    rng = np.random.default_rng(2)
    f = from_values(g, rng.standard_normal(128))
    from saltpde.spectral import dealiased_product, derivative, mollify_helmholtz
    adv = dealiased_product(g, const, derivative(g, f))
    comm = mollify_helmholtz(g, adv, 0.3) \
        - dealiased_product(g, const, derivative(g, mollify_helmholtz(g, f, 0.3)))
    assert sup_norm(g, comm) < 1e-12

    # far-bandlimited f and tiny eps: ratio tends to zero
    bank = CoefficientBank(1, np.random.default_rng(3))
    gsm = corpus_field(g, 4.0, "smooth", bank)
    fb = corpus_field(g, 2.0, "bandlimited", bank)
    small = helmholtz_commutator_ratio(g, 2.0 ** -7, gsm, fb)
    big = helmholtz_commutator_ratio(g, 0.5, gsm, fb)
    assert small < 0.05 * big

    rep = check_helmholtz_commutator(resolutions=FAST_1D, corpus_count=2)
    assert rep.passed


def test_growth_and_difference_small_ladders():
    for model in ("sch2", "ccf"):
        rep = check_growth(model, resolutions=FAST_1D, corpus_count=2,
                       eps_list=(0.5, 0.125))
        assert rep.passed, rep.summary_line()
        rep = check_difference(model, resolutions=FAST_1D, corpus_count=2)
        assert rep.passed, rep.summary_line()


def test_growth_difference_sqg_small():
    rep = check_growth("sqg", resolutions=(32, 64, 128), corpus_count=2,
                   eps_list=(0.5,))
    assert rep.passed, rep.summary_line()
    rep = check_difference("sqg", resolutions=(32, 64, 128), corpus_count=2)
    assert rep.passed, rep.summary_line()


def test_growth_zero_state():
    from saltpde.estimates import growth_ratios
    from saltpde.models import ModelState, make_ops
    from saltpde.noise import build_basis_1d
    from saltpde.spectral import zero_field
    g = Grid(64)
    ops = make_ops("ccf", g, 4.0, build_basis_1d(g, 2, 6.0), 0.25)
    X = ModelState("ccf", g, (zero_field(g),)).coeffs
    # both sides vanish; the ratio is 0/0 and excluded by construction
    lhs_energy = 2.0 * ops.x_inner(ops.g_eps(X), X)
    for k in range(2):
        h = ops.h_eps_k(X, k)
        lhs_energy += ops.x_inner(h, h)
    assert lhs_energy == 0.0


def test_difference_identical_pair_lhs_zero():
    from saltpde.estimates import difference_ratio
    from saltpde.models import make_ops
    from saltpde.noise import build_basis_1d
    g = Grid(64)
    ops = make_ops("ccf", g, 4.0, build_basis_1d(g, 2, 6.0), 0.5)
    banks = corpus_banks(1, 1, seed=4)[0]
    X = corpus_state("ccf", g, 4.0, banks)
    diff = X - X
    lhs = 2.0 * ops.z_inner(ops.g(X) - ops.g(X), diff)
    assert lhs == 0.0


def test_log_interpolation_informational():
    rep = check_log_interpolation(n=256, modes=16, corpus_count=2)
    assert rep.passed
    assert rep.details["max_mode_ratio"] < 10.0


def test_report_io(tmp_path):
    rep = EstimateReport("demo", [64, 128], [0.5, 0.51], 0.02, 0.1, True,
                         {"note": "x"})
    fn = str(tmp_path / "rep.txt")
    rep.write(fn)
    text = open(fn).read()
    assert "estimate_id = demo" in text
    assert "64 0.5" in text
    assert "PASS" in rep.summary_line()


def test_run_estimates_unknown_id():
    with pytest.raises(ValueError, match="valid ids"):
        run_estimates(["bogus"])


def test_summary_table():
    reps = run_estimates(["log_interpolation"])
    table = summary_table(reps)
    assert "log_interpolation" in table
