import math
import re

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


@pytest.mark.parametrize("dim", [1, 2])
def test_unread_banks_keep_no_modes(dim):
    # corpus_banks(..., read=1) draws every bank of a tuple, so the stream
    # and the read banks are those of a full draw, bit for bit; the unread
    # second bank of each tuple keeps mode 0 only
    kmax = corpus_kmax(128)
    full = corpus_banks(dim, 3, seed=43, per_state=2, kmax=kmax)
    read = corpus_banks(dim, 3, seed=43, per_state=2, kmax=kmax, read=1)
    for (whole, spare), (kept, unread) in zip(full, read):
        assert kept.kmax == kmax and kept.raw.tobytes() == whole.raw.tobytes()
        assert unread.kmax == 0 and unread.raw.size == 1
        assert unread.raw.tobytes() == spare.raw[
            (kmax, 0) if dim == 2 else 0].tobytes()


@pytest.mark.parametrize("model", ["sch2", "ccf", "sqg"])
def test_checks_draw_only_the_banks_a_state_reads(model, monkeypatch):
    # check_growth and check_difference keep modes in the first
    # len(FIELD_NAMES[model]) banks of each pair: sch2 reads both, ccf and
    # sqg only the first
    from saltpde.models import FIELD_NAMES
    drawn = []
    banks = E.corpus_banks
    monkeypatch.setattr(E, "corpus_banks", lambda *a, **k: drawn.append(
        banks(*a, **k)) or drawn[-1])
    rungs = (16, 32) if model == "sqg" else (32, 64)
    check_growth(model, resolutions=rungs, corpus_count=1, K=1,
                 eps_list=(0.5,))
    check_difference(model, resolutions=rungs, corpus_count=1, K=1)
    assert len(drawn) == 2
    for tuples in drawn:
        for pair in tuples:
            assert [b.kmax > 0 for b in pair] == [
                i < len(FIELD_NAMES[model]) for i in range(2)]


@pytest.mark.parametrize("check", [check_growth, check_difference])
@pytest.mark.parametrize("model", ["linear", "bogus"])
def test_checks_refuse_a_model_without_a_corpus_up_front(check, model,
                                                         monkeypatch):
    # the linear model has no s threshold and no corpus: the check refuses
    # it, naming the models it knows, before it draws a bank
    monkeypatch.setattr(E, "corpus_banks", lambda *a, **k: pytest.fail(
        "drew banks for %r" % model))
    with pytest.raises(ValueError, match="unknown model %r; the estimate "
                       "checks know sch2 | ccf | sqg" % model):
        check(model, resolutions=(16,), corpus_count=1)


CHECK_BY_ID = {
    "cancellation": check_cancellation,
    "kato_ponce": check_kato_ponce,
    "helmholtz_commutator": check_helmholtz_commutator,
    **{"growth_" + m: (lambda m=m, **k: check_growth(m, **k))
       for m in ("sch2", "ccf", "sqg")},
    **{"difference_" + m: (lambda m=m, **k: check_difference(m, **k))
       for m in ("sch2", "ccf", "sqg")}}


@pytest.mark.parametrize("resolutions", [(64,), ()])
@pytest.mark.parametrize("cid", sorted(CHECK_BY_ID))
def test_ladder_checks_refuse_a_one_rung_ladder(cid, resolutions, monkeypatch):
    # one rung fits its exponent on one point (check_growth('ccf',
    # resolutions=(64,)) read PASS): every ladder check refuses fewer than
    # two rungs before it draws a bank, after the corpus check
    check = CHECK_BY_ID[cid]
    monkeypatch.setattr(E, "corpus_banks", lambda *a, **k: pytest.fail(
        "drew banks for %s" % cid))
    want = ("a ladder check needs at least two resolutions, got %r"
            % (resolutions,))
    with pytest.raises(ValueError, match=re.escape(want)):
        check(resolutions=resolutions, corpus_count=1)
    with pytest.raises(ValueError, match="corpus_count must be >= 1"):
        check(resolutions=resolutions, corpus_count=0)


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


LADDER_CHECKS = [
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
]


@pytest.mark.parametrize("name, check", LADDER_CHECKS)
def test_a_nan_ratio_fails_its_check(monkeypatch, name, check):
    # one NaN among the corpus of the middle rung (its second sample) must
    # reach the report and fail the check, not be dropped by the sup
    assert check().passed
    _poison(monkeypatch, name, FAST_1D[1], at=1)
    rep = check()
    assert rep.passed is False
    assert math.isnan(rep.ratios[1])
    assert np.all(np.isfinite(rep.ratios[::2]))


@pytest.mark.parametrize("name, check", LADDER_CHECKS)
def test_a_vanishing_ladder_fails_its_check(monkeypatch, name, check):
    # every main ratio scaled to 0 leaves a ladder of fit_exponent's floor,
    # whose slope 0 would pass; scaled by 1e-3 the ratios stay above the
    # floor and the check still passes (positive control)
    real = getattr(E, name)

    def scaled(factor):
        def ratio(*args):
            out = real(*args)
            return ((factor * out[0],) + out[1:] if isinstance(out, tuple)
                    else factor * out)
        monkeypatch.setattr(E, name, ratio)
    scaled(1e-3)
    rep = check()
    assert rep.passed and min(rep.ratios) > E.RATIO_FLOOR
    scaled(0.0)
    rep = check()
    assert rep.ratios == [0.0] * len(FAST_1D) and abs(rep.exponent) < 1e-12
    assert rep.passed is False


@pytest.mark.parametrize("check", [
    lambda n: check_cancellation(resolutions=(64, 128), corpus_count=n),
    lambda n: check_kato_ponce(resolutions=(64, 128), corpus_count=n),
    lambda n: check_helmholtz_commutator(resolutions=(64, 128), corpus_count=n),
    lambda n: check_growth("ccf", resolutions=(64, 128), corpus_count=n),
    lambda n: check_difference("ccf", resolutions=(64, 128), corpus_count=n),
    lambda n: check_log_interpolation(n=64, modes=4, corpus_count=n)])
def test_an_empty_corpus_is_refused(check):
    # with no corpus every sup is 0.0 and the ladder fitted slope 0: PASS
    for count in (0, -1):
        with pytest.raises(ValueError, match="corpus_count must be >= 1, got %d"
                           % count):
            check(count)


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


def per_eps_growth_ratios(ops, X):
    """growth_ratios with its norms taken per call and one h_eps_k call per
    index, as it was formed before the norms moved out of the eps loop."""
    xn2 = ops.x_inner(X, X)
    v = ops.v_norm(X)
    lhs_energy = 2.0 * ops.x_inner(ops.g_eps(X), X)
    lhs_pair = 0.0
    for k in range(ops.basis.K):
        h = ops.h_eps_k(X, k)
        lhs_energy += ops.x_inner(h, h)
        lhs_pair += ops.x_inner(h, X) ** 2
    return lhs_energy / ((1.0 + v) * xn2), lhs_pair / ((1.0 + v) * xn2 * xn2)


@pytest.mark.parametrize("model", ["sch2", "ccf", "sqg"])
def test_growth_takes_each_states_norms_once(model, monkeypatch):
    # x_inner(X, X) and v_norm(X) do not depend on eps, so check_growth
    # takes them once per state and rung (one v_norm call per state, not
    # one per state and eps), and each ratio is the per-eps one bit for bit
    from saltpde.estimates import growth_ratios
    from saltpde.models import make_ops
    from saltpde.noise import build_basis
    dim, n = (2, 32) if model == "sqg" else (1, 64)
    ops_class = type(make_ops(model, Grid(n, dim=dim), E.DEFAULT_S[model],
                              build_basis(Grid(n, dim=dim), 2, 8.0), 0.5))
    v_norm, calls = ops_class.v_norm, []
    monkeypatch.setattr(ops_class, "v_norm",
                        lambda self, X: calls.append(1) or v_norm(self, X))
    resolutions, eps_list = (n, 2 * n), (0.5, 0.125)
    check_growth(model, resolutions=resolutions, corpus_count=2,
                 eps_list=eps_list, K=3)
    assert len(calls) == len(resolutions) * 2
    g = Grid(n, dim=dim)
    s = E.DEFAULT_S[model]
    basis = build_basis(g, 3, s + 2.0)
    for banks in corpus_banks(dim, 2, 17, per_state=2,
                              kmax=corpus_kmax(max(resolutions))):
        X = corpus_state(model, g, s, banks)
        for eps in eps_list:
            ops = make_ops(model, g, s, basis, eps)
            got = growth_ratios(ops, X, ops.x_inner(X, X), ops.v_norm(X))
            assert got == per_eps_growth_ratios(ops, X)


@pytest.mark.parametrize("kmax", [0, 5, 155, 512])
def test_2d_bank_draws_blockwise_what_one_draw_keeps(kmax):
    # a 2D bank draws each part in blocks of rows into one buffer and keeps
    # the rows it needs: the kept values are those of one whole draw of
    # each part, in the same order, and the generator ends where it would
    bank_rng, whole_rng = np.random.default_rng(61), np.random.default_rng(61)
    bank = CoefficientBank(2, bank_rng, kmax=kmax)
    kbig = E._KBIG
    rows = np.s_[kbig - kmax:kbig + kmax + 1, :kmax + 1]
    re = whole_rng.standard_normal((2 * kbig + 1, kbig + 1))[rows]
    im = whole_rng.standard_normal((2 * kbig + 1, kbig + 1))[rows]
    assert bank.raw.tobytes() == (re + 1j * im).tobytes()
    assert bank_rng.standard_normal() == whole_rng.standard_normal()
