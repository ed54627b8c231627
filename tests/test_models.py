import inspect
from functools import partial

import numpy as np
import pytest

from saltpde.lie import VectorFieldXi, lie_derivative
from saltpde.models import ModelState, make_initial_state, make_ops
from saltpde.noise import NoiseBasis, build_basis_1d, build_basis_sqg, constant_basis_1d
from saltpde.spectral import (Grid, dealiased_product, derivative,
                              from_values, full_spectrum, mollifier_symbol,
                              sobolev_norm, sup_norm, to_grid, zero_field)
from spectral_helpers import hermitian_defect, l2_inner, mollify_j


def band_field(grid, rng, kmax, zero_mean=True):
    c = zero_field(grid)
    if grid.dim == 1:
        k = np.arange(1, kmax + 1)
        c[k] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    else:
        absk = np.sqrt(grid.ksq)
        band = (absk > 0) & (absk <= kmax)
        c[band] = rng.standard_normal(int(band.sum())) \
            + 1j * rng.standard_normal(int(band.sum()))
    vals = to_grid(grid, c)
    return from_values(grid, vals / max(np.max(np.abs(vals)), 1e-30))


def state(kind, grid, rows):
    """The coefficient array of a kind state, built through the checked entry."""
    return ModelState(kind, grid, rows).coeffs


def sch2_setup(n=128, K=3, eps=0.1, s=6.0):
    g = Grid(n)
    basis = build_basis_1d(g, K, s_max=s + 2.0)
    return g, make_ops("sch2", g, s, basis, eps)


def test_state_validation():
    g = Grid(64)
    f = from_values(g, np.cos(g.x))
    with pytest.raises(ValueError):
        ModelState("sch2", g, (f,))       # needs two fields
    with pytest.raises(ValueError):
        ModelState("nope", g, (f,))
    g2 = Grid(16, dim=2)
    x1, _ = g2.nodes()
    with pytest.raises(ValueError, match="zero mean"):
        ModelState("sqg", g2, (from_values(g2, 1.0 + np.cos(x1)),))


OPERATORS = ("b", "g_transport", "ito_correction", "g", "g_eps_transport",
             "g_eps")
NOISE_OPERATORS = ("h_k", "h_eps_k")


def model_setup(model, n=None, K=3, eps=0.1):
    """Grid, ops and default s of a fluid model at a small resolution."""
    s = {"sch2": 6.0, "ccf": 4.0, "sqg": 4.5}[model]
    if model == "sqg":
        g = Grid(n or 32, dim=2)
        basis = build_basis_sqg(g, K, s + 2.0)
    else:
        g = Grid(n or 64)
        basis = build_basis_1d(g, K, s + 2.0)
    return g, make_ops(model, g, s, basis, eps), s


def every_model_ops():
    """ops of each of the four models at a small resolution."""
    for model in ("sch2", "ccf", "sqg"):
        yield model_setup(model)[1]
    yield make_ops("linear", Grid(64), 0.0, None, 0.5)


def public_calls(ops, X):
    """(name, thunk) for every public method of ops that takes a state."""
    for name, fn in inspect.getmembers(ops, inspect.ismethod):
        if name.startswith("_") or name == "exact_solution":
            continue
        args = ((X, X) if name.endswith("_inner")
                else (X, 0) if name in NOISE_OPERATORS else (X,))
        yield name, partial(fn, *args)


def test_operators_take_and_return_arrays():
    # a state is its coefficient array: every operator maps it to an array
    # of its shape, every norm and readout to a scalar
    assert [n for n, v in vars(ModelState).items()
            if inspect.isfunction(v)] == ["__init__"]
    for ops in every_model_ops():
        X = make_initial_state(ops.kind, ops.grid, "smooth", 0.1).coeffs
        names = set()
        for name, call in public_calls(ops, X):
            out = call()
            names.add(name)
            if name in OPERATORS + NOISE_OPERATORS:
                assert type(out) is np.ndarray and out.shape == X.shape, \
                    (ops.kind, name)
            else:
                assert np.ndim(out) == 0, (ops.kind, name)
        assert names.issuperset(OPERATORS + NOISE_OPERATORS), ops.kind
        for name in NOISE_OPERATORS:
            hs = list(getattr(ops, name)(X, [0]))
            assert len(hs) == 1 and type(hs[0]) is np.ndarray
            assert hs[0].shape == X.shape, (ops.kind, name)


def test_wrong_variant_rejected():
    # every public method checks the shape of the state array it is given
    # against its own model and grid, whatever the pairing; the checked
    # entry ModelState is not itself a state array
    wrong = {"sch2": "ccf", "ccf": "sch2", "sqg": "ccf", "linear": "sch2"}
    for ops in every_model_ops():
        other = make_initial_state(wrong[ops.kind], Grid(64), "smooth", 0.1)
        own = make_initial_state(ops.kind, ops.grid, "smooth", 0.1)
        for X in (other.coeffs, other, own):
            for name, call in public_calls(ops, X):
                with pytest.raises(ValueError,
                                   match="expected a %s state" % ops.kind):
                    call()


@pytest.mark.parametrize("model, dim", [("sch2", 2), ("ccf", 2), ("sqg", 1)])
def test_wrong_grid_dimension_rejected(model, dim):
    g = Grid(32, dim=dim)
    with pytest.raises(ValueError, match="%s lives on the %dD torus"
                       % (model, 3 - dim)):
        make_ops(model, g, 6.0, NoiseBasis([]), 0.1)


def sqg_parent_formulas(grid, theta, jhat=None, dtype=np.float64):
    """(transport, v_norm, max_velocity) of one sqg row theta as the models
    computed them before the paired transforms, every operation in dtype.

    The transport term is -J(u1*d1 theta + u2*d2 theta) of J theta (J = 1
    when jhat is None), one inverse transform per real field and the two
    dealiased products summed in coefficient space; the V-norm takes one
    transform per row.  grid is the parent's (oracle_ops.parent_grid), and
    theta and jhat are given on the whole spectrum.  At float64 it is the
    frozen oracle's transport bit for bit; at longdouble (numpy transforms
    clongdouble natively, epsilon 1.1e-19) it is the yardstick the float64
    operators are measured by.
    """
    n_total, keep, nyq = grid.n_total, grid.dealias_keep, grid.not_nyquist
    k = [np.asarray(ka, dtype=dtype) for ka in grid.k_axes]
    absk = np.sqrt(k[0] * k[0] + k[1] * k[1])
    inv_absk = np.zeros(grid.shape, dtype=dtype)
    np.divide(1.0, absk, out=inv_absk, where=absk > 0)
    theta = np.asarray(theta, dtype=np.result_type(dtype, np.complex64))

    def deriv(c, axis):
        return c * (1j * k[axis] * nyq)

    def riesz(c, axis):
        return c * (1j * k[axis] * inv_absk * nyq)

    def band(c):
        return np.real(np.fft.ifftn(c * keep * n_total))

    def product(f, h):
        return (np.fft.fftn(band(f) * band(h)) / n_total) * keep

    def samples(c):
        return np.real(np.fft.ifftn(c * n_total))

    th = theta if jhat is None else theta * jhat
    u1, u2 = riesz(th, 1), -riesz(th, 0)
    adv = product(u1, deriv(th, 0)) + product(u2, deriv(th, 1))
    transport = (adv if jhat is None else adv * jhat) * -1.0
    g1, g2 = deriv(theta, 0), deriv(theta, 1)
    v1, v2 = samples(g1), samples(g2)
    v_norm = np.max(np.sqrt(v1 * v1 + v2 * v2))
    acc = np.zeros(grid.shape, dtype=dtype)
    for gj in (g1, g2):
        for axis in (0, 1):
            r = samples(riesz(gj, axis))
            acc += r * r
    v_norm = v_norm + np.max(np.sqrt(acc))
    w1, w2 = samples(riesz(theta, 1)), samples(-riesz(theta, 0))
    return transport, v_norm, np.max(np.sqrt(w1 * w1 + w2 * w2))


def long_double_error(got, ref):
    """max |got - ref|, with got taken exactly into long double."""
    return float(np.max(np.abs(np.asarray(got, dtype=np.clongdouble) - ref)))


# the sqg operators with a transport term: measured against the
# long-double yardstick, not the old bits
SQG_TRANSPORT = ("g_transport", "g", "g_eps_transport", "g_eps")

# the sqg Ito sum on the half spectrum reads the modes k2 < 0 of its first
# L_k terms as conjugates, where the oracle reads the terms it formed on
# the whole spectrum: measured 1.5e-19 relative to the largest coefficient
# at 64^2 (each h^k, one L_k of an exactly Hermitian state, is bit for bit)
SQG_ITO_RTOL = 1e-15


@pytest.mark.parametrize("eps", [0.5, 0.0625])
@pytest.mark.parametrize("model", ["sch2", "ccf", "sqg"])
def test_operators_match_frozen_oracle(model, eps):
    # the shared core reproduces the per-model operators bit for bit.  An
    # sqg state is its half spectrum, which the oracle takes on the whole
    # spectrum: its Ito sum agrees to SQG_ITO_RTOL, and its transport term
    # (and g, g_eps through it) takes real transforms, so there it must be
    # no farther from the long-double evaluation of the frozen formulas
    # than the oracle is, max over the corpus
    import oracle_ops
    from saltpde.estimates import corpus_banks, corpus_state
    g, ops, s = model_setup(model, n=128 if model != "sqg" else 64, K=4,
                            eps=eps)
    pg = oracle_ops.parent_grid(g)
    oracle = getattr(oracle_ops, type(ops).__name__)(pg, s, ops.basis, eps)
    calls = [(name, ()) for name in OPERATORS] + [
        (name, (k,)) for name in NOISE_OPERATORS for k in range(ops.basis.K)]
    half = g.spec_shape[-1]
    errors = {}
    for banks in corpus_banks(g.dim, 3, seed=29, per_state=2):
        X = corpus_state(model, g, s, banks)
        state = ModelState(model, g, X)
        for name, args in calls:
            got = getattr(ops, name)(X, *args)
            want = oracle_ops.operator(oracle, name, state, *args)
            assert type(got) is np.ndarray and want.kind == model
            assert want.coeffs.shape[:-1] == got.shape[:-1]
            want = want.coeffs[..., :half]
            if model == "sqg" and name in SQG_TRANSPORT:
                mollified = "eps" in name
                ref = sqg_parent_formulas(
                    pg, full_spectrum(g, X[0]),
                    oracle_ops.mollifier_symbol(pg, eps) if mollified else None,
                    np.longdouble)[0][..., :half]
                if name in ("g", "g_eps"):
                    ito = "ito_correction_eps" if mollified else "ito_correction"
                    ref = ref + oracle_ops.operator(
                        oracle, ito, state).coeffs[0, :, :half]
                for side, out in (("package", got[0]), ("oracle", want[0])):
                    errors[name, side] = max(errors.get((name, side), 0.0),
                                             long_double_error(out, ref))
            elif model == "sqg" and name == "ito_correction":
                assert np.max(np.abs(got - want)) \
                    <= SQG_ITO_RTOL * np.max(np.abs(want)), (name, args)
            else:
                for a, b in zip(got, want, strict=True):
                    assert np.array_equal(a, b), (name, args)
    for name in SQG_TRANSPORT if model == "sqg" else ():
        assert errors[name, "package"] <= errors[name, "oracle"], \
            (name, errors[name, "package"], errors[name, "oracle"])


def conjugates_dropped(grid, c):
    """The whole spectrum of half-spectrum coefficients c with its columns
    k2 < 0 left at zero: what a route that forgot the modes the half
    spectrum stands for would transform."""
    out = np.zeros(c.shape[:-1] + (grid.n,), dtype=np.complex128)
    out[..., :c.shape[-1]] = c
    return out


@pytest.mark.parametrize("n", [64, 128, 256])
def test_sqg_paired_transforms_no_farther_from_long_double(n, monkeypatch):
    # the transport term takes its real fields through real transforms of
    # the half spectrum (where the parent paired two fields per complex
    # transform), the V-norm and max velocity through one complex transform
    # per field of the whole spectrum; over the corpus, none may be farther
    # from the long-double evaluation of the frozen formulas than those
    # formulas in float64, the transport term measured on the half
    # spectrum.  The V-norm and max velocity are the formulas' own floats.
    # Positive control: the package's routes with the conjugate half
    # dropped (half-spectrum samples and whole spectra that read the modes
    # k2 < 0 as zero) must be far beyond the bound
    import oracle_ops
    from saltpde import models, spectral
    from saltpde.estimates import corpus_banks, corpus_state
    eps = 0.0625
    g, ops, s = model_setup("sqg", n=n, K=4, eps=eps)
    pg = oracle_ops.parent_grid(g)
    oracle = oracle_ops.SqgOps(pg, s, ops.basis, eps)
    half = g.spec_shape[-1]
    names = ("g_transport", "g_eps_transport", "v_norm", "max_velocity")
    inverse = spectral._inverse
    errors = {}

    def record(name, side, got, ref):
        errors[name, side] = max(errors.get((name, side), 0.0),
                                 long_double_error(got, ref))

    def dropped_inverse(grid, z):
        if not grid.half:
            return inverse(grid, z)
        return np.real(np.fft.ifftn(conjugates_dropped(grid, z), axes=grid.axes))

    for banks in corpus_banks(2, 3, seed=29, per_state=2):
        X = corpus_state("sqg", g, s, banks)
        theta = full_spectrum(g, X[0])
        refs, formulas = {}, {}
        for name, jhat in (("g_transport", None),
                           ("g_eps_transport", oracle_ops.mollifier_symbol(pg, eps))):
            parent = sqg_parent_formulas(pg, theta, jhat)[0]
            frozen = oracle_ops.operator(oracle, name, ModelState("sqg", g, X))
            assert np.array_equal(parent, frozen.coeffs[0]), name
            refs[name] = sqg_parent_formulas(pg, theta, jhat, np.longdouble)[0][:, :half]
            formulas[name] = parent[:, :half]
        parent = sqg_parent_formulas(pg, theta)
        ref = sqg_parent_formulas(pg, theta, None, np.longdouble)
        for i, name in ((1, "v_norm"), (2, "max_velocity")):
            refs[name], formulas[name] = ref[i], parent[i]
            assert getattr(ops, name)(X) == parent[i], name

        def package(name):
            out = getattr(ops, name)(X)
            return out if np.ndim(out) == 0 else out[0]
        for name in names:
            record(name, "package", package(name), refs[name])
            record(name, "parent", formulas[name], refs[name])
        with monkeypatch.context() as m:
            m.setattr(spectral, "_inverse", dropped_inverse)
            m.setattr(models, "full_spectrum", conjugates_dropped)
            for name in names:
                record(name, "dropped", package(name), refs[name])
    for name in names:
        assert errors[name, "package"] <= errors[name, "parent"], \
            (name, errors[name, "package"], errors[name, "parent"])
        assert errors[name, "dropped"] > 1e3 * errors[name, "parent"], \
            (name, errors[name, "dropped"], errors[name, "parent"])


@pytest.mark.parametrize("K", [1, 2, 8])
@pytest.mark.parametrize("n", [64, 1024])
def test_stacked_noise_fields_equal_the_loop(n, K):
    # the 1D stack applies field k to row k: every stacked result equals the
    # per-index call bit for bit (sch2 at K = 2 is where plain broadcasting
    # would pair xi_1 with u and xi_2 with eta)
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.lie import ito_correction, lie_second
    g = Grid(n)
    for model, s in (("ccf", 4.0), ("sch2", 6.0)):
        basis = build_basis_1d(g, K, s + 2.0)
        assert basis.stack.K == K
        for eps in (0.5, 0.0625):
            ops = make_ops(model, g, s, basis, eps)
            X = corpus_state(model, g, s, corpus_banks(1, 1, 37, 2)[0])
            want = np.zeros(X.shape, dtype=np.complex128)
            for xi in basis.xis:
                want = want + lie_second(xi, X)
            assert np.array_equal(ito_correction(basis, X), 0.5 * want)
            for ks in ((), (2,), (3, 0), tuple(range(K))):
                if any(k >= K for k in ks):
                    continue
                for name in NOISE_OPERATORS:
                    op = getattr(ops, name)
                    got = list(op(X, ks))
                    assert len(got) == len(ks)
                    for k, h in zip(ks, got):
                        assert h.shape == X.shape
                        assert np.array_equal(h, op(X, k)), \
                            (model, name, ks, k)
            for name in NOISE_OPERATORS:
                for ks in ((0, K), (-1,)):
                    with pytest.raises(ValueError, match="noise index %d out of "
                                       "range \\(K=%d\\)" % (ks[-1], K)):
                        getattr(ops, name)(X, ks)
        if K > 1:
            with pytest.raises(ValueError, match="a stack of %d fields" % K):
                lie_derivative(basis.stack, np.stack([X] * (K + 1)))


def direct_h(kind, grid, basis, X, k, jhat=None):
    """-J C^-1 L_k(C JX) from one lie_derivative call on basis.xis[k]."""
    c = X if jhat is None else X * jhat
    if kind == "sch2":
        d2 = 1.0 + grid.ksq
        ones = np.ones(grid.shape)
        h = lie_derivative(basis.xis[k], c * np.stack([d2, ones])) \
            * np.stack([1.0 / d2, ones])
    else:
        h = lie_derivative(basis.xis[k], c)
    if jhat is not None:
        h = h * jhat
    return h * -1.0


@pytest.mark.parametrize("model, s", [("ccf", 4.0), ("sch2", 6.0)])
def test_shared_first_order_terms_never_cross_states(model, s):
    # the Ito sum and the h^k of one state share its first-order terms; a
    # state that differs in one bit, or X mutated in place, gets its own
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.solver import chi_cutoff, step_ito_em
    g, K, eps = Grid(64), 4, 0.0625
    basis = build_basis_1d(g, K, s + 2.0)
    jhat = mollifier_symbol(g, eps)
    X = corpus_state(model, g, s, corpus_banks(1, 1, 41, 2)[0])
    ks = list(range(K))

    def fresh():
        return make_ops(model, g, s, basis, eps)

    # g_eps(X), then the h^k of Y, which differs from X by 1e-9 relative in
    # one mode that J keeps whole (within np.allclose of X)
    Y = X.copy()
    Y[0, 3] *= 1.0 + 1e-9
    assert jhat[3] == 1.0 and Y[0, 3] != X[0, 3] and np.allclose(Y, X)
    ops = fresh()
    ops.g_eps(X)
    got = list(ops.h_eps_k(Y, ks))
    want = list(fresh().h_eps_k(Y, ks))
    for k in ks:
        assert np.array_equal(got[k], want[k])
        assert np.array_equal(got[k], direct_h(model, g, basis, Y, k, jhat))
    assert not all(np.array_equal(got[k], direct_h(model, g, basis, X, k, jhat))
                   for k in ks)

    # g(X), then X mutated in place, then h_k(X, ks): with J = 1 (and C = 1
    # on ccf) the terms were formed from the caller's own array
    Z = X.copy()
    ops = fresh()
    ops.g(Z)
    before = list(ops.h_k(Z, ks))
    Z[0, 5] *= 1.5
    got = list(ops.h_k(Z, ks))
    want = list(fresh().h_k(Z, ks))
    for k in ks:
        assert np.array_equal(got[k], want[k])
        assert np.array_equal(got[k], direct_h(model, g, basis, Z, k))
        assert not np.array_equal(got[k], before[k])
    assert np.array_equal(ops.g(Z), fresh().g(Z))

    # an Ito-EM step whose dW_1 is exactly zero takes the h^k of the other
    # indices from the terms its g_eps formed
    dw, dt, R, v = [0.03, 0.0, -0.02, 0.01], 1e-3, 10.0, 0.5
    ops = fresh()
    got = step_ito_em(X, ops, dw, dt, R, v)
    ref = fresh()
    chi = chi_cutoff(v, R)
    want = X + (chi * chi * dt) * (ref.b(X) + ref.g_eps(X))
    for k in (0, 2, 3):
        want = want + (chi * dw[k]) * direct_h(model, g, basis, X, k, jhat)
    assert np.array_equal(got, want)
    assert [np.array_equal(h, direct_h(model, g, basis, X, k, jhat))
            for k, h in zip((0, 2, 3), ops.h_eps_k(X, (0, 2, 3)))] == [True] * 3

    # one index at a time, after the terms of X and of another state
    ops = fresh()
    ops.g_eps(X)
    for k in ks:
        assert np.array_equal(ops.h_eps_k(X, k),
                              direct_h(model, g, basis, X, k, jhat))
        assert np.array_equal(ops.h_eps_k(Y, k),
                              direct_h(model, g, basis, Y, k, jhat))


def test_sqg_noise_operators_stay_hermitian():
    # the 2D support convolution reads coefficients as they are (the FFT
    # route projected onto real fields), so the outputs must stay Hermitian
    from saltpde.estimates import corpus_banks, corpus_state
    g, _, s = model_setup("sqg", n=64)
    basis = build_basis_sqg(g, 8, s + 2.0)
    for eps in (0.5, 0.125):
        ops = make_ops("sqg", g, s, basis, eps)
        for banks in corpus_banks(2, 3, seed=17, per_state=2):
            X = corpus_state("sqg", g, s, banks)
            for k in range(basis.K):
                h = ops.h_eps_k(X, k)[0]
                assert hermitian_defect(g, h) <= 1e-15 * np.max(np.abs(h))
            # g_eps also holds the FFT-route transport term, whose defect is
            # up to 3e-15 relative on the same states with either L_xi route
            ge = ops.g_eps(X)[0]
            assert hermitian_defect(g, ge) <= 1e-14 * np.max(np.abs(ge))


def test_sch2_b_zero_and_cosine():
    g, ops = sch2_setup()
    zero = state("sch2", g, (zero_field(g), zero_field(g)))
    out = ops.b(zero)
    assert sup_norm(g, out[0]) == 0.0 and sup_norm(g, out[1]) == 0.0

    # u = 0, eta = cos x: b = (0.1 sin 2x, 0)
    X = state("sch2", g, (zero_field(g), from_values(g, np.cos(g.x))))
    out = ops.b(X)
    assert np.max(np.abs(to_grid(g, out[0]) - 0.1 * np.sin(2 * g.x))) < 1e-13
    assert sup_norm(g, out[1]) < 1e-15


def test_sch2_b_against_term_by_term_oracle():
    # independent recomposition from raw spectral primitives
    g, ops = sch2_setup()
    rng = np.random.default_rng(0)
    u = band_field(g, rng, 20)
    eta = band_field(g, rng, 20)
    X = state("sch2", g, (u, eta))
    out = ops.b(X)

    keep = g.dealias_keep

    def prod(a, b):
        va = np.real(np.fft.ifft(a * keep * g.n))
        vb = np.real(np.fft.ifft(b * keep * g.n))
        return (np.fft.fft(va * vb) / g.n) * keep

    ux = u * 1j * g.k_axes[0] * g.not_nyquist
    q = 0.5 * prod(u, u) + prod(ux, ux) + 0.5 * prod(eta, eta)
    G = q / (1.0 + g.ksq) * 1j * g.k_axes[0] * g.not_nyquist
    b_u = -1.0 * G
    b_eta = -1.0 * prod(eta, ux)
    assert np.max(np.abs(out[0] - b_u)) < 1e-11
    assert np.max(np.abs(out[1] - b_eta)) < 1e-11


def test_sch2_b_fft_budget(fft_calls):
    # one Sch2Ops.b call at n = 256 takes its four products in one
    # dealiased_product: one inverse transform of the stacked rows and one
    # forward transform of the stacked products
    g, ops = sch2_setup(n=256)
    rng = np.random.default_rng(5)
    X = state("sch2", g, (band_field(g, rng, 40), band_field(g, rng, 40)))
    fft_calls.clear()
    ops.b(X)
    assert len(fft_calls) == 2


def test_sch2_g_empty_basis():
    g = Grid(128)
    ops = make_ops("sch2", g, 6.0, build_basis_1d(g, 0, 8.0), 0.1)
    rng = np.random.default_rng(1)
    u = band_field(g, rng, 15)
    eta = band_field(g, rng, 15)
    X = state("sch2", g, (u, eta))
    out = ops.g(X)
    tu = -1.0 * dealiased_product(g, u, derivative(g, u))
    te = -1.0 * dealiased_product(g, u, derivative(g, eta))
    assert np.max(np.abs(out[0] - tu)) < 1e-14
    assert np.max(np.abs(out[1] - te)) < 1e-14
    # h vanishes identically with no noise
    with pytest.raises(ValueError, match="out of range"):
        ops.h_k(X, 0)
    # every model refuses an index outside range(K), alone or in a list,
    # at the call; the linear model drives K = 1 Brownian motion
    cases = [(model_setup(model, K=2)[1], 2) for model in ("sch2", "ccf", "sqg")]
    cases.append((make_ops("linear", Grid(8), 1.0, None, 0.1), 1))
    for ops_m, K in cases:
        Xm = make_initial_state(ops_m.kind, ops_m.grid, "smooth", 0.1).coeffs
        for name in NOISE_OPERATORS:
            for k in (-1, K, 7):
                for index in (k, [0, k]):
                    with pytest.raises(ValueError, match=r"noise index %d out "
                                       r"of range \(K=%d\)" % (k, K)):
                        getattr(ops_m, name)(Xm, index)


def test_sch2_h_constant_xi_single_mode():
    # xi = c, u = cos x: h first component is  c sin x
    g = Grid(64)
    c = 0.6
    ops = make_ops("sch2", g, 6.0, constant_basis_1d(g, c), 0.1)
    X = state("sch2", g, (from_values(g, np.cos(g.x)), zero_field(g)))
    out = ops.h_k(X, 0)
    assert np.max(np.abs(to_grid(g, out[0]) - c * np.sin(g.x))) < 1e-13
    assert sup_norm(g, out[1]) < 1e-15


def test_sch2_ito_correction_against_lie_route():
    g, ops = sch2_setup(K=4)
    rng = np.random.default_rng(2)
    u = band_field(g, rng, 12)
    eta = band_field(g, rng, 12)
    X = state("sch2", g, (u, eta))
    out = ops.ito_correction(X)

    from saltpde.lie import ito_correction as lie_ito
    d2u = u * (1.0 + g.ksq)
    corr_u = lie_ito(ops.basis, d2u)
    corr_u = corr_u / (1.0 + g.ksq)
    corr_e = lie_ito(ops.basis, eta)
    assert np.max(np.abs(out[0] - corr_u)) < 1e-11
    assert np.max(np.abs(out[1] - corr_e)) < 1e-11


def test_sch2_mollified_identity_on_band():
    # bandlimited state below 1/eps: every J acts as the identity
    g = Grid(256)
    eps = 1.0 / 32.0
    ops = make_ops("sch2", g, 6.0, build_basis_1d(g, 2, 8.0), eps)
    rng = np.random.default_rng(3)
    u = band_field(g, rng, 10)      # modes up to 10, products up to 22 < 32
    eta = band_field(g, rng, 10)
    X = state("sch2", g, (u, eta))
    a = ops.g_eps(X)
    b = ops.g(X)
    assert np.max(np.abs(a[0] - b[0])) < 1e-13
    assert np.max(np.abs(a[1] - b[1])) < 1e-13
    ha = ops.h_eps_k(X, 1)
    hb = ops.h_k(X, 1)
    assert np.max(np.abs(ha[0] - hb[0])) < 1e-13


def test_sch2_g_eps_converges_to_g():
    g = Grid(256)
    rng = np.random.default_rng(4)
    # smooth but not bandlimited: geometric coefficient decay
    c = np.zeros(256, dtype=np.complex128)
    k = np.arange(1, 64)
    c[k] = (rng.standard_normal(63) + 1j * rng.standard_normal(63)) \
        * np.exp(-1.0 * k)
    u = from_values(g, np.real(np.fft.ifft(c * 256)))
    eta = from_values(g, np.roll(np.real(np.fft.ifft(c * 256)), 5))
    X = state("sch2", g, (u, eta))
    basis = build_basis_1d(g, 3, 8.0)
    base_ops = make_ops("sch2", g, 6.0, basis, 0.5)
    ref = base_ops.g(X)
    dists = []
    for eps in (0.5, 0.25, 0.125, 0.0625, 0.03125):
        ops = make_ops("sch2", g, 6.0, basis, eps)
        diff = ops.g_eps(X) - ref
        dists.append(np.sqrt(sobolev_norm(g, diff[0], 4.0) ** 2
                             + sobolev_norm(g, diff[1], 3.0) ** 2))
    print("g_eps -> g distances:", dists)
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-6


def test_sch2_h_eps_hilbert_schmidt_convergence():
    # sum_k ||h_eps^k(X) - h^k(X)||^2 in the weaker norm drops monotonically
    g = Grid(256)
    rng = np.random.default_rng(12)
    c = np.zeros(256, dtype=np.complex128)
    k = np.arange(1, 64)
    c[k] = (rng.standard_normal(63) + 1j * rng.standard_normal(63)) \
        * np.exp(-1.0 * k)
    u = from_values(g, np.real(np.fft.ifft(c * 256)))
    eta = from_values(g, np.roll(np.real(np.fft.ifft(c * 256)), 3))
    X = state("sch2", g, (u, eta))
    basis = build_basis_1d(g, 4, 8.0)
    s = 6.0
    dists = []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        ops = make_ops("sch2", g, s, basis, eps)
        hs = 0.0
        for k_idx in range(4):
            diff = ops.h_eps_k(X, k_idx) - ops.h_k(X, k_idx)
            hs += sobolev_norm(g, diff[0], s - 2.0) ** 2 \
                + sobolev_norm(g, diff[1], s - 3.0) ** 2
        dists.append(np.sqrt(hs))
    print("h_eps -> h HS distances:", dists)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_sch2_h_eps_self_consistency():
    # h_eps(X) = J applied to h(J X) componentwise
    g, ops = sch2_setup(K=3, eps=0.07)
    rng = np.random.default_rng(5)
    X = state("sch2", g, (band_field(g, rng, 30), band_field(g, rng, 30)))
    JX = state("sch2", g, (mollify_j(g, X[0], ops.eps),
                           mollify_j(g, X[1], ops.eps)))
    for k in range(3):
        direct = ops.h_eps_k(X, k)
        rebuilt = ops.h_k(JX, k)
        rebuilt = state("sch2", g, (mollify_j(g, rebuilt[0], ops.eps),
                                    mollify_j(g, rebuilt[1], ops.eps)))
        assert np.max(np.abs(direct[0] - rebuilt[0])) < 1e-12
        assert np.max(np.abs(direct[1] - rebuilt[1])) < 1e-12


def test_ccf_g_examples():
    g = Grid(128)
    ops = make_ops("ccf", g, 4.0, build_basis_1d(g, 0, 6.0), 0.1)
    # constant theta, empty basis: g = 0 exactly
    X = state("ccf", g, (from_values(g, np.full(128, 0.4)),))
    out = ops.g(X)
    assert sup_norm(g, out[0]) < 1e-15

    # theta = cos x, no noise: g = sin^2 x = 1/2 - cos(2x)/2
    X = state("ccf", g, (from_values(g, np.cos(g.x)),))
    out = ops.g(X)
    target = 0.5 - 0.5 * np.cos(2 * g.x)
    assert np.max(np.abs(to_grid(g, out[0]) - target)) < 1e-13


def test_ccf_mollified_matches_on_band():
    # J = 1 on |k| <= 32; band-10 states and every dealiased term stay
    # inside it (the 2/3 band of the 64^2 grid ends below |k| = 30)
    eps = 1.0 / 32.0
    g = Grid(256)
    ccf = make_ops("ccf", g, 4.0, build_basis_1d(g, 3, 6.0), eps)
    g2 = Grid(64, dim=2)
    sqg = make_ops("sqg", g2, 4.5, build_basis_sqg(g2, 3, 6.5), eps)
    rng = np.random.default_rng(6)
    for ops in (ccf, sqg):
        X = state(ops.kind, ops.grid, (band_field(ops.grid, rng, 10),))
        a, b = ops.g_eps(X), ops.g(X)
        assert np.max(np.abs(a[0] - b[0])) < 1e-13
        ha, hb = ops.h_eps_k(X, 1), ops.h_k(X, 1)
        assert np.max(np.abs(ha[0] - hb[0])) < 1e-13


def test_ccf_v_norm_and_velocity():
    g = Grid(128)
    ops = make_ops("ccf", g, 4.0, build_basis_1d(g, 0, 6.0), 0.1)
    X = state("ccf", g, (from_values(g, np.cos(g.x)),))
    # theta_x = -sin, H theta_x = cos: sup of each is 1
    assert abs(ops.v_norm(X) - 2.0) < 1e-12
    assert abs(ops.max_velocity(X) - 1.0) < 1e-12


@pytest.mark.parametrize("model, dim, s", [("sch2", 1, 6.0), ("ccf", 1, 4.0),
                                          ("sqg", 2, 4.5)])
def test_max_velocity_answers_with_its_bound_below_a_limit(model, dim, s,
                                                           fft_calls):
    # given a limit that B = lipschitz_bound(X) keeps below with its 1e-9
    # margin, max_velocity returns B, an upper bound of the exact sup, with
    # no transform; given one that B exceeds, the exact sup, bit for bit
    from saltpde.estimates import corpus_banks, corpus_state
    from saltpde.noise import build_basis
    from saltpde.spectral import lipschitz_bound
    g = Grid(32, dim=dim)
    ops = make_ops(model, g, s, build_basis(g, 2, s + 2.0), 0.25)
    X = corpus_state(model, g, s,
                     corpus_banks(dim, 1, 5, per_state=2, kmax=8)[0])
    exact, bound = ops.max_velocity(X), lipschitz_bound(g, X)
    assert 0.0 < exact < bound
    fft_calls.clear()
    assert ops.max_velocity(X, bound * (1.0 + 2e-9)) == bound
    assert len(fft_calls) == 0
    for limit in (bound, exact, 0.5 * exact):
        assert ops.max_velocity(X, limit) == exact
    assert len(fft_calls) == 3 * (2 if dim == 2 else 1)


def test_sqg_single_mode_orthogonality():
    g = Grid(32, dim=2)
    x1, _ = g.nodes()
    ops = make_ops("sqg", g, 4.5, build_basis_sqg(g, 0, 6.5), 0.1)
    X = state("sqg", g, (from_values(g, np.cos(x1)),))
    out = ops.g_transport(X)
    assert sup_norm(g, out[0]) < 1e-13   # u perpendicular to grad(theta)


def test_sqg_mean_and_skewness():
    g = Grid(64, dim=2)
    basis = build_basis_sqg(g, 3, 6.5)
    ops = make_ops("sqg", g, 4.5, basis, 0.1)
    rng = np.random.default_rng(7)
    X = state("sqg", g, (band_field(g, rng, 10),))
    for inc in (ops.g_transport(X), ops.ito_correction(X), ops.h_k(X, 1)):
        assert abs(inc[0, 0, 0].real) < 1e-13
    # divergence-free transport is L2-skew: (u . grad theta, theta) = 0
    adv = ops.g_transport(X)
    assert abs(l2_inner(g, adv[0], X[0])) < 1e-10


def test_sqg_requires_divergence_free_basis():
    g = Grid(32, dim=2)
    x1, _ = g.nodes()
    bad_xi = VectorFieldXi(g, [full_spectrum(g, from_values(g, np.cos(x1))),
                               full_spectrum(g, from_values(g, 0 * x1))])
    bad = NoiseBasis([bad_xi])
    with pytest.raises(ValueError, match="divergence-free"):
        make_ops("sqg", g, 4.5, bad, 0.1)


def test_linear_ops():
    g = Grid(8)
    ops = make_ops("linear", g, 0.0, None, 0.5, linear_a=2.0)
    X = make_initial_state("linear", g, "smooth", 1.5).coeffs
    assert abs(ops.value(X) - 1.5) < 1e-15
    corr = ops.ito_correction(X)
    assert abs(ops.value(corr) - 0.5 * 4.0 * 1.5) < 1e-14
    h = ops.h_k(X, 0)
    assert abs(ops.value(h) - 3.0) < 1e-14
    assert ops.max_velocity(X) == ops.max_velocity(X, 1e-3) == 0.0
    assert abs(ops.exact_solution(1.5, 0.3) - 1.5 * np.exp(0.6)) < 1e-14


def test_initial_states():
    g = Grid(64)
    X = make_initial_state("sch2", g, "smooth", 0.2)
    assert abs(sup_norm(g, X.coeffs[0]) - 0.2) < 1e-12
    Z = make_initial_state("ccf", g, "zero", 0.2)
    assert sup_norm(g, Z.coeffs[0]) == 0.0
    R1 = make_initial_state("ccf", g, "random", 0.3, seed=5)
    R2 = make_initial_state("ccf", g, "random", 0.3, seed=5)
    assert np.array_equal(R1.coeffs[0], R2.coeffs[0])
    assert abs(sup_norm(g, R1.coeffs[0]) - 0.3) < 1e-12
    g2 = Grid(32, dim=2)
    S = make_initial_state("sqg", g2, "random", 0.3, seed=5)
    assert abs(S.coeffs[0, 0, 0].real) < 1e-15
    with pytest.raises(ValueError, match="initial condition"):
        make_initial_state("ccf", g, "bogus", 0.1)


def test_sch2_lipschitz_locality_of_b():
    # ||b(X)-b(Y)|| <= C (||X|| + ||Y||) ||X-Y|| with C stable in resolution,
    # measured on critical-roughness pairs in the unit X-norm ball
    from saltpde.estimates import corpus_banks, corpus_state
    s = 6.0
    banks = corpus_banks(1, 4, seed=8, per_state=2)
    ratios = []
    for n in (64, 128, 256, 512):
        g = Grid(n)
        ops = make_ops("sch2", g, s, build_basis_1d(g, 0, s + 2.0), 0.1)
        worst = 0.0
        for i in range(2):
            X = corpus_state("sch2", g, s, banks[2 * i])
            Y = corpus_state("sch2", g, s, banks[2 * i + 1])
            num = ops.x_norm(ops.b(X) - ops.b(Y))
            den = (ops.x_norm(X) + ops.x_norm(Y)) * ops.x_norm(X - Y)
            worst = max(worst, num / den)
        ratios.append(worst)
    print("b Lipschitz ratios:", ratios)
    assert max(ratios) < 4.0 * min(ratios)
