import numpy as np
import pytest

from saltpde.lie import VectorFieldXi, ds_commutator, ito_correction, lie_derivative, lie_second
from saltpde.noise import (_SQG_WAVES, NoiseBasis, build_basis_1d,
                           build_basis_sqg, constant_basis_1d)
from saltpde.spectral import (Grid, dealiased_product, derivative, from_values,
                              sobolev_norm, sup_norm, to_grid)
from spectral_helpers import l2_inner
from xi_helpers import built_from, divergence, fft_lie


def band_field(grid, rng, kmax):
    c = np.zeros(grid.shape, dtype=np.complex128)
    k = np.arange(1, kmax + 1)
    c[k] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    return from_values(grid, np.real(np.fft.ifftn(c * grid.n_total)))


def test_constant_xi_is_advection():
    g = Grid(64)
    xi = VectorFieldXi(g, [from_values(g, np.full(64, 1.7))])
    rng = np.random.default_rng(0)
    f = band_field(g, rng, 10)
    out = lie_derivative(xi, f)
    target = 1.7 * derivative(g, f)
    assert np.max(np.abs(out - target)) < 1e-13 * sup_norm(g, f)


def test_sin_cos_example():
    g = Grid(64)
    xi = VectorFieldXi(g, [from_values(g, np.sin(g.x))])
    f = from_values(g, np.cos(g.x))
    out = to_grid(g, lie_derivative(xi, f))
    assert np.max(np.abs(out - np.cos(2 * g.x))) < 1e-13


def test_divergence_form_identity_1d():
    # L_xi f = (xi f)_x in 1D
    g = Grid(128)
    rng = np.random.default_rng(1)
    for _ in range(5):
        xi_f = band_field(g, rng, 8)
        f = band_field(g, rng, 20)
        xi = VectorFieldXi(g, [xi_f])
        lhs = lie_derivative(xi, f)
        rhs = derivative(g, dealiased_product(g, xi_f, f))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_grid_mismatch():
    xi = VectorFieldXi(Grid(64), [from_values(Grid(64), np.zeros(64))])
    f = from_values(Grid(128), np.zeros(128))
    with pytest.raises(ValueError, match="grid"):
        lie_derivative(xi, f)


def test_lie_second_constant_and_hand_example():
    g = Grid(64)
    c = 0.8
    xi = VectorFieldXi(g, [from_values(g, np.full(64, c))])
    f = from_values(g, np.cos(3 * g.x))
    out = lie_second(xi, f)
    target = (c * c) * derivative(g, derivative(g, f))
    assert np.max(np.abs(out - target)) < 1e-12

    xi_sin = VectorFieldXi(g, [from_values(g, np.sin(g.x))])
    one = from_values(g, np.ones(64))
    out2 = to_grid(g, lie_second(xi_sin, one))
    assert np.max(np.abs(out2 - np.cos(2 * g.x))) < 1e-13


def closed_form_second(xi_vals, f, grid):
    # xi^2 f_xx + 3 xi xi_x f_x + (xi xi_xx + xi_x^2) f
    g = grid
    xi = from_values(g, xi_vals)
    xix = derivative(g, xi)
    xixx = derivative(g, xix)
    fx = derivative(g, f)
    fxx = derivative(g, fx)
    t1 = dealiased_product(g, dealiased_product(g, xi, xi), fxx)
    t2 = 3.0 * dealiased_product(g, dealiased_product(g, xi, xix), fx)
    t3 = dealiased_product(g, dealiased_product(g, xi, xixx)
                           + dealiased_product(g, xix, xix), f)
    return t1 + t2 + t3


def test_lie_second_matches_closed_form():
    g = Grid(256)
    rng = np.random.default_rng(2)
    for _ in range(4):
        xi_vals = to_grid(g, band_field(g, rng, 6))
        f = band_field(g, rng, 20)
        composed = lie_second(VectorFieldXi(g, [from_values(g, xi_vals)]), f)
        closed = closed_form_second(xi_vals, f, g)
        assert np.max(np.abs(composed - closed)) < 1e-10


def test_ito_correction():
    g = Grid(64)
    c = 1.3
    basis = constant_basis_1d(g, c)
    f = from_values(g, np.cos(2 * g.x))
    out = ito_correction(basis, f)
    target = (0.5 * c * c) * derivative(g, derivative(g, f))
    assert np.max(np.abs(out - target)) < 1e-12

    empty = build_basis_1d(g, 0, 6.0)
    out0 = ito_correction(empty, f)
    assert np.max(np.abs(out0)) == 0.0

    # K-term accumulation against a naive per-term oracle
    basis_k = build_basis_1d(g, 5, 6.0)
    rng = np.random.default_rng(3)
    h = band_field(g, rng, 12)
    acc = 0.5 * sum((lie_second(xi, h) for xi in basis_k.xis),
                    start=from_values(g, np.zeros(64)))
    out_k = ito_correction(basis_k, h)
    assert np.max(np.abs(out_k - acc)) < 1e-12


def test_ds_commutator_trivial_cases():
    g = Grid(64)
    rng = np.random.default_rng(4)
    f_const = from_values(g, np.full(64, 0.9))
    h = band_field(g, rng, 15)
    out = ds_commutator(g, 2.3, f_const, h)
    assert np.max(np.abs(out)) < 1e-13 * sup_norm(g, h)

    f = band_field(g, rng, 10)
    out0 = ds_commutator(g, 0.0, f, h)
    assert np.max(np.abs(out0)) == 0.0

    # a stack of rows in either argument gives each row's commutator
    rows = np.stack([f, f_const])
    for i, row in enumerate(rows):
        assert np.array_equal(ds_commutator(g, 2.3, rows, h)[i],
                              ds_commutator(g, 2.3, row, h))
        assert np.array_equal(ds_commutator(g, 2.3, h, rows)[i],
                              ds_commutator(g, 2.3, h, row))


def test_ds_commutator_kato_ponce_ratio_bounded():
    s = 3.0
    ratios = []
    for n in (64, 128, 256, 512, 1024):
        g = Grid(n)
        rng = np.random.default_rng(5)
        f = band_field(g, rng, n // 4)
        h = band_field(g, rng, n // 4)
        lhs = sobolev_norm(g, ds_commutator(g, s, f, h), 0.0)
        rhs = (sup_norm(g, derivative(g, f)) * sobolev_norm(g, h, s - 1.0)
               + sobolev_norm(g, f, s) * sup_norm(g, h))
        ratios.append(lhs / rhs)
    print("kato-ponce ratios over N:", ratios)
    slope = np.polyfit(np.log2([64, 128, 256, 512, 1024]), np.log2(ratios), 1)[0]
    assert slope < 0.1


def test_mean_conservation_1d():
    g = Grid(128)
    rng = np.random.default_rng(6)
    for _ in range(5):
        xi_vals = to_grid(g, band_field(g, rng, 8))
        xi = VectorFieldXi(g, [from_values(g, xi_vals / np.max(np.abs(xi_vals)))])
        f = band_field(g, rng, 30)
        f = (1.0 / sup_norm(g, f)) * f
        assert abs(lie_derivative(xi, f)[0].real) < 1e-13
        assert abs(lie_second(xi, f)[0].real) < 1e-13


def test_skew_symmetry_up_to_zeroth_order():
    # (L_xi f, f) = ((div xi) f, f) / 2
    g = Grid(128)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xi_field = band_field(g, rng, 8)
        xi = VectorFieldXi(g, [xi_field.copy()])
        f = band_field(g, rng, 30)
        lhs = l2_inner(g, lie_derivative(xi, f), f)
        rhs = 0.5 * l2_inner(g, dealiased_product(g, derivative(g, xi_field), f), f)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_cancellation_headline_bounded():
    # (D^s sum L^2 f, D^s f) + sum ||D^s L f||^2 stays bounded over refinement
    # while the first term alone diverges
    s = 4.0
    qs, firsts = [], []
    for n in (64, 128, 256, 512):
        g = Grid(n)
        basis = build_basis_1d(g, 4, s_max=s + 2.0)
        rng = np.random.default_rng(8)
        kmax = n // 3 - 8
        c = np.zeros(n, dtype=np.complex128)
        k = np.arange(1, kmax + 1)
        c[k] = (rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)) \
            * k.astype(float) ** (-(s + 0.6))
        f = from_values(g, np.real(np.fft.ifftn(c * n)))
        f = (1.0 / sobolev_norm(g, f, s)) * f
        acc = from_values(g, np.zeros(n))
        term2 = 0.0
        for xi in basis.xis:
            lf = lie_derivative(xi, f)
            acc = acc + lie_derivative(xi, lf)
            term2 += sobolev_norm(g, lf, s) ** 2
        first = sum((1.0 + g.ksq) ** s * (acc * np.conj(f))).real
        qs.append(abs(first + term2))
        firsts.append(abs(first))
    print("cancelled:", qs)
    print("uncancelled:", firsts)
    assert max(qs) < 10.0 * max(qs[0], 1e-6)
    assert firsts[-1] > 4.0 * firsts[0]


# ---------------------------------------------------------------------------
# the coefficient-space (2D) and band-sample (1D) routes against the FFT route

def test_lie_derivative_1d_is_the_fft_route():
    # 1D keeps the band-sample factors: L_xi is the FFT route bit for bit
    rng = np.random.default_rng(9)
    for n in (64, 256):
        g = Grid(n)
        with built_from() as arrays:
            xis = build_basis_1d(g, 8, 6.0).xis + constant_basis_1d(g, 0.7).xis
        fields = [band_field(g, rng, n // 3),
                  from_values(g, rng.standard_normal(g.shape))]
        for xi, comps in zip(xis, arrays, strict=True):
            for f in fields:
                got = lie_derivative(xi, f)
                want = fft_lie(g, comps, f)
                assert np.array_equal(got, want)


def max_relative_difference(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# the stencil sum is the FFT route's two products summed in another order;
# the measured difference is <= 2.1e-15 at 64^2 and <= 1.4e-14 at 512^2
TOL_2D = 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_lie_derivative_2d_matches_fft_route(n):
    # the FFT route runs on the arrays each xi_k was built from
    from saltpde.estimates import corpus_banks, corpus_field
    g = Grid(n, dim=2)
    rng = np.random.default_rng(10)
    fields = [corpus_field(g, 4.5, "critical", bank)
              for bank, in corpus_banks(2, 2, seed=31)]
    fields.append(from_values(g, rng.standard_normal(g.shape)))
    with built_from() as arrays:
        basis = build_basis_sqg(g, 8, 6.5)
    for xi, comps in zip(basis.xis, arrays):
        for f in fields:
            got = lie_derivative(xi, f)
            assert max_relative_difference(
                got, fft_lie(g, comps, f)) <= TOL_2D
            got2 = lie_derivative(xi, got)
            assert max_relative_difference(
                got2, fft_lie(g, comps, got)) <= TOL_2D


def test_lie_derivative_2d_dense_xi_matches_fft_route():
    # positive control for long stencils: a white-noise xi, not divergence
    # free, so every in-band mode enters the sum, and the output-side symbol
    # must carry the div(xi)*f term that the FFT route forms as a product
    g = Grid(32, dim=2)
    rng = np.random.default_rng(11)
    comps = [from_values(g, rng.standard_normal(g.shape)) for _ in range(2)]
    xi = VectorFieldXi(g, comps)
    in_band = {(int(k1), int(k2)) for k1, k2 in zip(g.k_axes[0][g.dealias_keep],
                                                   g.k_axes[1][g.dealias_keep])}
    shifts = [shift for shift, _ in xi._stencil]
    assert len(shifts) == len(in_band) and set(shifts) == in_band
    assert xi.max_divergence > 0.1
    for _ in range(3):
        f = from_values(g, rng.standard_normal(g.shape))
        want = fft_lie(g, comps, f)
        assert max_relative_difference(lie_derivative(xi, f), want) <= TOL_2D
        # the div(xi)*f term is far above the tolerance: dropping it fails
        div_term = dealiased_product(g, divergence(g, comps), f)
        assert max_relative_difference(want - div_term, want) > 1e6 * TOL_2D


def test_sqg_xi_stencil_holds_the_shifts_of_its_wave():
    # xi_k = a (-d2 psi, d1 psi) with psi one plane wave m.x: the stencil
    # holds the wavenumbers +-m, one entry each, with xi's coefficients
    # there (read from the arrays it was built from); component i is zero
    # exactly when m_(3-i) is
    for n in (64, 128):
        g = Grid(n, dim=2)
        with built_from() as arrays:
            basis = build_basis_sqg(g, 8, 6.5)
        for k, (xi, comps) in enumerate(zip(basis.xis, arrays), start=1):
            w1, w2 = _SQG_WAVES[(k - 1) % len(_SQG_WAVES)]
            scale = 1 + (k - 1) // len(_SQG_WAVES)
            m1, m2 = scale * w1, scale * w2
            shifts = [shift for shift, _ in xi._stencil]
            assert len(shifts) == 2 and set(shifts) == {(m1, m2), (-m1, -m2)}
            for (s1, s2), coeffs in xi._stencil:
                assert coeffs == tuple(complex(c[s1, s2]) for c in comps)
                assert [a != 0 for a in coeffs] == [m2 != 0, m1 != 0]


def _held_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)


def test_noise_field_holds_only_its_lie_data():
    # what L_xi reads (the band samples in 1D, the stencil in 2D), the
    # bound on div(xi) and K; a stack holds no divergence bound
    g1, g2 = Grid(32), Grid(16, dim=2)
    basis = build_basis_1d(g1, 3, 6.0)
    assert set(vars(basis.xis[0])) == {"grid", "K", "max_divergence", "_factors"}
    assert set(vars(basis.stack)) == {"grid", "K", "_factors"}
    xi = build_basis_sqg(g2, 2, 6.5).xis[0]
    assert set(vars(xi)) == {"grid", "K", "max_divergence", "_stencil"}


def test_2d_xi_holds_no_grid_array():
    # the stencil is all a 2D field keeps of xi: at 512^2 each grid-sized
    # array is 4 MiB, per field of the basis
    g = Grid(32, dim=2)
    rng = np.random.default_rng(13)
    basis = build_basis_sqg(g, 8, 6.5)
    dense = VectorFieldXi(g, [from_values(g, rng.standard_normal(g.shape))
                              for _ in range(2)])
    for xi in basis.xis + [dense]:
        assert not [a for value in vars(xi).values() for a in _held_arrays(value)]
        assert not list(_held_arrays(xi._stencil))


@pytest.mark.parametrize("n", [64, 256])
def test_2d_ito_correction_is_the_per_field_sum(n):
    # one band block for the whole Ito sum gives the per-field lie_second
    # sum bit for bit: the per-field route's scatter and gather between the
    # two L_k copy the block unchanged
    from saltpde.estimates import corpus_banks, corpus_state
    g = Grid(n, dim=2)
    basis = build_basis_sqg(g, 8, 6.5)
    for banks in corpus_banks(2, 3, seed=43, per_state=2):
        X = corpus_state("sqg", g, 4.5, banks)
        want = 0.5 * sum(lie_second(xi, X) for xi in basis.xis)
        assert np.array_equal(ito_correction(basis, X), want)
        assert np.array_equal(ito_correction(basis, X[0]), want[0])


def test_lie_derivative_2d_makes_no_transforms(monkeypatch):
    # counter as in test_ccf_em_step_fft_budget
    g = Grid(32, dim=2)
    basis = build_basis_sqg(g, 8, 6.5)
    f = from_values(g, np.random.default_rng(14).standard_normal(g.shape))
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft",
                 "irfft", "fft2", "ifft2"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    for xi in basis.xis:
        lie_derivative(xi, f)
        lie_second(xi, np.stack([f, f]))
    ito_correction(basis, f)
    assert calls == []
    to_grid(g, f)       # the counter counts
    assert calls == [1]
