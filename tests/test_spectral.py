import numpy as np
import pytest

from saltpde.spectral import (Grid, band_values, bessel_multiplier,
                              dealiased_product, derivative, from_values,
                              full_spectrum, hilbert_transform, lipschitz_norm,
                              mollify_helmholtz, riesz_perp, sobolev_norm,
                              sup_norm, to_grid, zero_field)
from spectral_helpers import (grid_inner, hermitian_defect,
                              homogeneous_multiplier, l2_inner, mollify_j)


def random_field(grid, rng, kmax=None):
    kmax = grid.kmax_dealias if kmax is None else kmax
    c = zero_field(grid)
    absk = np.sqrt(grid.ksq)
    band = (absk > 0) & (absk <= kmax)
    c[band] = rng.standard_normal(int(band.sum())) \
        + 1j * rng.standard_normal(int(band.sum()))
    return from_values(grid, to_grid(grid, c))


def direct_dft(values):
    # O(N^2) oracle for the 1D transform under the coeff(k)=c convention
    n = len(values)
    k = np.fft.fftfreq(n, 1.0 / n)
    x = 2.0 * np.pi * np.arange(n) / n
    return np.array([np.sum(values * np.exp(-1j * kk * x)) / n for kk in k])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100)            # not a power of two
    with pytest.raises(ValueError):
        Grid(64, dim=3)
    with pytest.raises(ValueError, match="n must be a power of two"):
        Grid(16.5)           # not truncated to 16
    g = Grid(64)
    assert g.n == 64 and g.dim == 1
    assert np.allclose(g.x[1], 2.0 * np.pi / 64)


def test_constant_and_cosine_coefficients():
    g = Grid(64)
    one = from_values(g, np.ones(64))
    assert abs(one[0] - 1.0) < 1e-14
    assert np.max(np.abs(one[1:])) < 1e-14

    f = from_values(g, np.cos(g.x))
    assert abs(f[1] - 0.5) < 1e-14
    assert abs(f[-1] - 0.5) < 1e-14
    mask = np.ones(64, dtype=bool)
    mask[[1, -1]] = False
    assert np.max(np.abs(f[mask])) < 1e-14


def test_round_trip_against_direct_dft():
    g = Grid(128)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(128)
    F = from_values(g, vals)
    oracle = direct_dft(vals)
    assert np.max(np.abs(F - oracle)) < 1e-12
    back = to_grid(g, F)
    assert np.max(np.abs(back - vals)) < 1e-12 * max(1.0, np.max(np.abs(vals)))
    assert hermitian_defect(g, F) < 1e-12


def test_non_finite_rejected():
    g = Grid(64)
    vals = np.zeros(64)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        from_values(g, vals)


def test_from_values_rejects_wrong_shape():
    with pytest.raises(ValueError, match="does not match grid"):
        from_values(Grid(64), np.zeros(32))
    with pytest.raises(ValueError, match="does not match grid"):
        from_values(Grid(16, dim=2), np.zeros(16))
    # complex samples are not cast to their real parts
    with pytest.raises(ValueError, match="must be real, got dtype complex128"):
        from_values(Grid(8), (1 + 1j) * np.ones(8))


def test_bessel_multiplier_basics():
    g = Grid(64)
    rng = np.random.default_rng(1)
    one = from_values(g, np.ones(64))
    for s in (-2.0, 0.5, 3.0):
        out = bessel_multiplier(g, one, s)
        assert np.max(np.abs(out - one)) < 1e-14

    f = from_values(g, np.cos(g.x))
    d2 = bessel_multiplier(g, f, 2.0)
    assert np.max(np.abs(to_grid(g, d2) - 2.0 * np.cos(g.x))) < 1e-12

    h = random_field(g, rng)
    back = bessel_multiplier(g, bessel_multiplier(g, h, 2.0), -2.0)
    assert np.max(np.abs(back - h)) < 1e-12 * sup_norm(g, h)


def test_bessel_composition():
    g = Grid(64)
    rng = np.random.default_rng(2)
    f = random_field(g, rng)
    a = bessel_multiplier(g, bessel_multiplier(g, f, 1.3), 0.9)
    b = bessel_multiplier(g, f, 2.2)
    assert np.max(np.abs(a - b)) < 1e-12 * sup_norm(g, f)


def test_homogeneous_multiplier():
    g = Grid(64)
    f = from_values(g, np.cos(g.x))
    assert np.max(np.abs(to_grid(g, homogeneous_multiplier(g, f, 1.0))
                         - np.cos(g.x))) < 1e-12
    f2 = from_values(g, np.cos(2 * g.x))
    assert np.max(np.abs(to_grid(g, homogeneous_multiplier(g, f2, 2.0))
                         - 4.0 * np.cos(2 * g.x))) < 1e-12
    f3 = from_values(g, np.sin(3 * g.x))
    assert np.max(np.abs(to_grid(g, homogeneous_multiplier(g, f3, -1.0))
                         - np.sin(3 * g.x) / 3.0)) < 1e-12
    nonzero_mean = from_values(g, 1.0 + np.cos(g.x))
    with pytest.raises(ValueError, match="zero-mean"):
        homogeneous_multiplier(g, nonzero_mean, -1.0)


def hilbert_quadrature_oracle(values, grid):
    """p.v. quadrature of the periodic cotangent kernel on a shifted grid.

    Sampling symmetrically offset from the singularity realises the
    principal value; validates the multiplier's sign convention.
    """
    n = grid.n
    out = np.zeros(n)
    m = 16 * n
    t = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    fine = to_grid(grid, from_values(grid, values))
    # evaluate the trig interpolant on the fine offset grid
    coeffs = from_values(grid, values)
    k = np.fft.fftfreq(n, 1.0 / n)
    ft = np.real(np.sum(coeffs[None, :] * np.exp(1j * t[:, None] * k[None, :]),
                        axis=1))
    for j, x in enumerate(grid.x):
        kern = 1.0 / np.tan((x - t) / 2.0)
        out[j] = np.sum(ft * kern) * (2.0 * np.pi / m) / (2.0 * np.pi)
    return out


def test_hilbert_sign_convention_against_quadrature():
    g = Grid(32)
    for vals, target in ((np.cos(g.x), np.sin(g.x)),
                         (np.sin(g.x), -np.cos(g.x))):
        spec = to_grid(g, hilbert_transform(g, from_values(g, vals)))
        oracle = hilbert_quadrature_oracle(vals, g)
        assert np.max(np.abs(spec - target)) < 1e-12
        assert np.max(np.abs(oracle - target)) < 1e-6


def test_hilbert_properties():
    g = Grid(64)
    rng = np.random.default_rng(3)
    const = from_values(g, np.full(64, 2.5))
    assert sup_norm(g, hilbert_transform(g, const)) < 1e-14

    f = random_field(g, rng)
    # remove the mean, then H H = -identity and the H^s norm is preserved
    f = f * (np.abs(np.arange(64)) != 0)
    f[0] = 0.0
    hh = hilbert_transform(g, hilbert_transform(g, f))
    assert np.max(np.abs(hh + f)) < 1e-13 * sup_norm(g, f)
    for s in (0.0, 1.5):
        assert sobolev_norm(g, hilbert_transform(g, f), s) \
            <= sobolev_norm(g, f, s) + 1e-12

    g2 = Grid(16, dim=2)
    with pytest.raises(ValueError, match="1D"):
        hilbert_transform(g2, from_values(g2, np.zeros((16, 16))))


def test_riesz_perp():
    g = Grid(32, dim=2)
    x1, _ = g.nodes()
    th = from_values(g, np.cos(x1))
    u1, u2 = riesz_perp(g, th)
    assert sup_norm(g, u1) < 1e-13
    assert np.max(np.abs(to_grid(g, u2) - np.sin(x1))) < 1e-12

    rng = np.random.default_rng(4)
    f = random_field(g, rng)
    u1, u2 = riesz_perp(g, f)
    div = derivative(g, u1, 0) + derivative(g, u2, 1)
    assert np.max(np.abs(div)) < 1e-12 * max(1.0, sup_norm(g, f))

    with pytest.raises(ValueError, match="zero-mean"):
        riesz_perp(g, from_values(g, 1.0 + np.cos(x1)))


def test_mollifier_bandlimited_identity():
    g = Grid(128)
    c = np.zeros(128, dtype=np.complex128)
    c[3] = c[-3] = 0.5
    c[7] = -0.25j
    c[-7] = 0.25j
    f = c                      # exactly bandlimited, modes 3 and 7
    eps = 0.125                # identity band |k| <= 8 covers both
    out = mollify_j(g, f, eps)
    assert np.max(np.abs(out - f)) == 0.0
    with pytest.raises(ValueError):
        mollify_j(g, f, 1.5)
    with pytest.raises(ValueError):
        mollify_j(g, f, 0.0)


def test_mollifier_contraction_and_commutation():
    g = Grid(128)
    rng = np.random.default_rng(5)
    f = random_field(g, rng)
    for eps in (0.5, 0.1, 0.03):
        for s in (0.0, 2.0):
            assert sobolev_norm(g, mollify_j(g, f, eps), s) \
                <= sobolev_norm(g, f, s) + 1e-13
        comm = bessel_multiplier(g, mollify_j(g, f, eps), 1.7) \
            - mollify_j(g, bessel_multiplier(g, f, 1.7), eps)
        assert np.max(np.abs(comm)) < 1e-13 * max(1.0, sup_norm(g, f))


def test_helmholtz_mollifier():
    g = Grid(64)
    f = from_values(g, np.cos(g.x))
    out = mollify_helmholtz(g, f, 1.0)
    assert np.max(np.abs(to_grid(g, out) - 0.5 * np.cos(g.x))) < 1e-13

    rng = np.random.default_rng(6)
    a, b = random_field(g, rng), random_field(g, rng)
    for eps in (0.7, 0.2):
        lhs = l2_inner(g, mollify_helmholtz(g, a, eps), b)
        rhs = l2_inner(g, a, mollify_helmholtz(g, b, eps))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        for s in (0.0, 2.0):
            assert sobolev_norm(g, mollify_helmholtz(g, a, eps), s) \
                <= sobolev_norm(g, a, s) + 1e-13

    # convergence to the identity in H^s as eps -> 0 on a smooth field
    smooth = from_values(g, np.cos(g.x) + 0.3 * np.sin(2 * g.x))
    errs = [sobolev_norm(g, smooth - mollify_helmholtz(g, smooth, e), 2.0)
            for e in (0.5, 0.25, 0.125, 0.0625)]
    assert all(x > y for x, y in zip(errs, errs[1:]))
    # second-order symbol: error shrinks roughly like eps^2
    assert errs[-1] < 0.05 * errs[0]


def test_sobolev_norm_against_direct_sum():
    g = Grid(128)
    rng = np.random.default_rng(7)
    f = random_field(g, rng)
    s = 1.5
    k = np.fft.fftfreq(128, 1.0 / 128)
    oracle = np.sqrt(np.sum((1.0 + k * k) ** s * np.abs(direct_dft(
        to_grid(g, f))) ** 2))
    assert abs(sobolev_norm(g, f, s) - oracle) < 1e-12 * oracle

    zero = from_values(g, np.zeros(128))
    assert sobolev_norm(g, zero, 3.0) == 0.0

    c = from_values(g, np.cos(g.x))
    assert abs(sobolev_norm(g, c, 1.0) / sobolev_norm(g, c, 0.0)
               - np.sqrt(2.0)) < 1e-12

    # monotone in s
    assert sobolev_norm(g, f, 2.0) >= sobolev_norm(g, f, 1.0) \
        >= sobolev_norm(g, f, 0.0)


def test_parseval():
    g = Grid(128)
    rng = np.random.default_rng(8)
    f, h = random_field(g, rng), random_field(g, rng)
    gi = grid_inner(to_grid(g, f), to_grid(g, h))
    si = l2_inner(g, f, h)
    assert abs(gi - si) < 1e-12 * max(1.0, abs(gi))


def test_lipschitz_norm():
    g = Grid(64)
    f = from_values(g, np.cos(g.x))
    assert abs(lipschitz_norm(g, f) - 2.0) < 1e-10
    const = from_values(g, np.full(64, -0.7))
    assert abs(lipschitz_norm(g, const) - 0.7) < 1e-14
    with pytest.raises(ValueError, match="1D only"):
        lipschitz_norm(Grid(16, dim=2), np.zeros((16, 16), dtype=complex))


def test_lipschitz_norm_against_oversampled_oracle():
    n = 512
    g = Grid(n)
    rng = np.random.default_rng(9)
    f = random_field(g, rng, kmax=4)
    # evaluate at 64x resolution by zero-padding the spectrum
    fine = Grid(64 * n)
    cfine = np.zeros(fine.shape, dtype=np.complex128)
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    cfine[k] = f
    dense = to_grid(fine, cfine)
    dense_d = to_grid(fine, derivative(fine, cfine))
    oracle = np.max(np.abs(dense)) + np.max(np.abs(dense_d))
    assert abs(lipschitz_norm(g, f) - oracle) < 1e-3 * oracle


def test_dealiased_product_exact_on_band():
    g = Grid(64)
    f = from_values(g, np.cos(3 * g.x))
    h = from_values(g, np.sin(5 * g.x))
    prod = dealiased_product(g, f, h)
    # cos(3x) sin(5x) = (sin 8x + sin 2x)/2, both inside the band
    target = from_values(g, 0.5 * (np.sin(8 * g.x) + np.sin(2 * g.x)))
    assert np.max(np.abs(prod - target)) < 1e-14


def test_band_values_projection():
    g = Grid(64)
    rng = np.random.default_rng(10)
    f = random_field(g, rng, kmax=31)
    v = band_values(g, f)
    spec = from_values(g, v)
    absk = np.abs(np.fft.fftfreq(64, 1.0 / 64))
    assert np.max(np.abs(spec[absk > g.kmax_dealias])) < 1e-14


@pytest.mark.parametrize("n, dim", [(64, 1), (32, 2)])
def test_stacked_rows_share_one_transform(n, dim, fft_calls):
    # the rows of a stack take one transform, each row's samples bit for
    # bit those of a one-row call; a dot product of two stacks of vector
    # components takes one inverse transform per pair of components and one
    # forward transform of the summed products, and agrees with the sum of
    # the one-field products to round-off
    g = Grid(n, dim=dim)
    rng = np.random.default_rng(13)
    a, b, f, h = (random_field(g, rng) for _ in range(4))
    fft_calls.clear()
    va, vb = to_grid(g, np.stack([a, b]))
    bands = band_values(g, np.stack([a, b]))
    assert len(fft_calls) == 2
    assert len(fft_calls.real_passes) == (2 if dim == 2 else 0)
    assert np.array_equal(va, to_grid(g, a)) and np.array_equal(vb, to_grid(g, b))
    for got, c in zip(bands, (a, b)):
        assert np.array_equal(got, band_values(g, c))
    fft_calls.clear()
    dot = dealiased_product(g, np.stack([a, b]), np.stack([f, h]), dot=True)
    assert len(fft_calls) == 3 and dot.shape == a.shape
    want = dealiased_product(g, a, f) + dealiased_product(g, b, h)
    assert np.max(np.abs(dot - want)) < 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="non-finite"):
        to_grid(g, np.stack([a, np.full_like(b, np.nan)]))


def test_half_spectrum_is_the_whole_one():
    # a 2D field holds the columns k2 >= 0 of its whole spectrum: from_values
    # gives them, full_spectrum fills in k2 < 0 by conjugate symmetry, and
    # every norm, inner product and the coefficient bound counts the
    # columns 0 < k2 < n/2 twice (the whole spectrum's sums to round-off)
    from saltpde.spectral import (homogeneous_inner, homogeneous_norm,
                                  hs_inner, lipschitz_bound, real_part)
    g = Grid(32, dim=2)
    rng = np.random.default_rng(21)
    vals = rng.standard_normal((2,) + g.shape)
    c = from_values(g, vals)
    whole = np.fft.fftn(vals, axes=(-2, -1)) / g.n_total
    assert c.shape == (2, 32, 17) and g.spec_shape == (32, 17)
    assert np.max(np.abs(full_spectrum(g, c) - whole)) < 1e-16
    assert hermitian_defect(g, c) < 1e-16
    assert np.array_equal(full_spectrum(g, c)[..., :17], c)
    assert np.max(np.abs(to_grid(g, c) - vals)) < 1e-14
    full = g.full
    w = (1.0 + full.ksq) ** 1.5
    hw = np.zeros(g.shape)
    hw[full.ksq > 0] = full.ksq[full.ksq > 0] ** 1.5
    for got, want in (
            (sobolev_norm(g, c, 1.5), np.sqrt((w * np.abs(whole) ** 2).sum((-2, -1)))),
            (homogeneous_norm(g, c, 1.5),
             np.sqrt((hw * np.abs(whole) ** 2).sum((-2, -1)))),
            (hs_inner(g, c[0], c[1], 1.5), (w * whole[0] * np.conj(whole[1])).sum().real),
            (homogeneous_inner(g, c[0], c[1], 1.5),
             (hw * whole[0] * np.conj(whole[1])).sum().real),
            (lipschitz_bound(g, c), np.sum((1.0 + np.sqrt(full.ksq)) * np.abs(whole)))):
        assert np.allclose(got, want, rtol=1e-13, atol=0.0), (got, want)
    # real_part: the half spectrum of the real part of the field of c
    one_sided = zero_field(g)
    one_sided[3, 0], one_sided[-2, 5], one_sided[0, 0] = 1 + 2j, 0.5j, 0.3 + 0.1j
    x1, x2 = g.nodes()
    field = ((1 + 2j) * np.exp(3j * x1) + 0.5j * np.exp(1j * (-2 * x1 + 5 * x2))
             + (0.3 + 0.1j))
    assert np.max(np.abs(to_grid(g, real_part(g, one_sided)) - field.real)) < 1e-14
    with pytest.raises(ValueError, match="2D only"):
        real_part(Grid(16), zero_field(Grid(16)))


def test_multipliers_commute_pairwise():
    g = Grid(64)
    rng = np.random.default_rng(11)
    f = random_field(g, rng)
    f[0] = 0.0
    ops = [lambda F: bessel_multiplier(g, F, 1.3),
           lambda F: mollify_j(g, F, 0.2),
           lambda F: mollify_helmholtz(g, F, 0.3),
           lambda F: hilbert_transform(g, F),
           lambda F: derivative(g, F)]
    scale = sup_norm(g, f)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            ab = ops[i](ops[j](f))
            ba = ops[j](ops[i](f))
            assert np.max(np.abs(ab - ba)) < 1e-13 * scale


# ---------------------------------------------------------------------------
# leading axes: a stack of m rows gives, row by row, the single-row results

def _rows(grid, rng, m):
    """m real zero-mean fields with no Nyquist mode, stacked."""
    c = from_values(grid, rng.standard_normal((m,) + grid.shape))
    return c * (grid.not_nyquist & (grid.ksq > 0))


def _assert_rowwise(fn, stack):
    out = fn(stack)
    for i, row in enumerate(stack):
        one = fn(row)
        if isinstance(one, tuple):
            assert len(out) == len(one)
            for a, b in zip(out, one):
                assert np.array_equal(a[i], b)
        else:
            assert np.array_equal(out[i], one)


@pytest.mark.parametrize("n, dim", [(64, 1), (32, 2)])
def test_leading_axes_are_free(n, dim):
    from saltpde.lie import VectorFieldXi, ito_correction, lie_derivative
    from saltpde.noise import build_basis_1d, build_basis_sqg
    from saltpde.spectral import (gradient, has_mean,
                                  homogeneous_inner, homogeneous_norm, hs_inner,
                                  product_with_values, riesz_component)
    g = Grid(n, dim=dim)
    rng = np.random.default_rng(12)
    other = _rows(g, rng, 1)[0]
    factor = _rows(g, rng, 1)[0]
    basis = build_basis_1d(g, 3, 6.0) if dim == 1 else build_basis_sqg(g, 3, 6.5)
    ops = [
        lambda c: from_values(g, to_grid(g, c)),
        lambda c: to_grid(g, c),
        lambda c: bessel_multiplier(g, c, 1.5),
        lambda c: derivative(g, c, dim - 1),
        lambda c: gradient(g, c),
        lambda c: mollify_helmholtz(g, c, 0.3),
        lambda c: band_values(g, c),
        lambda c: dealiased_product(g, c, other),
        lambda c: dealiased_product(g, c, c),
        lambda c: sobolev_norm(g, c, 2.5),
        lambda c: homogeneous_norm(g, c, 2.5),
        lambda c: hs_inner(g, c, other, 1.5),
        lambda c: homogeneous_inner(g, c, c, 1.5),
        lambda c: sup_norm(g, c),
        lambda c: lie_derivative(basis.xis[0], c),
        lambda c: ito_correction(basis, c),
    ]
    if dim == 1:
        ops += [lambda c: hilbert_transform(g, c),
                lambda c: lipschitz_norm(g, c),
                lambda c: product_with_values(g, band_values(g, factor), c)]
    else:
        stencil = VectorFieldXi(g, [full_spectrum(g, factor),
                                    full_spectrum(g, other)])._stencil
        ops += [lambda c: riesz_perp(g, c),
                lambda c: riesz_component(g, c, 0),
                lambda c: product_with_values(g, stencil, c)]
    # the lie_derivative forms: band samples in 1D, a stencil in 2D
    assert hasattr(basis.xis[0], "_stencil") == (dim == 2)
    for m in (1, 2, 3):
        stack = _rows(g, rng, m)
        for fn in ops:
            _assert_rowwise(fn, stack)
        # and two leading axes
        for fn in ops[:3]:
            deep = stack[None]
            assert np.array_equal(fn(deep)[0], fn(stack))
        # has_mean answers for the whole stack: any row with a mean
        assert not has_mean(g, stack)
        stack[-1][(0,) * dim] = 1.0
        assert has_mean(g, stack) and not has_mean(g, stack[:-1])


def test_symbol_cache_stays_small_on_real_runs(monkeypatch):
    # a grid keeps every symbol and weight it builds, nothing is evicted:
    # shortened shipped runs and two-rung estimate checks read fewer than
    # eight weight exponents on any one grid
    import os
    from dataclasses import replace
    import saltpde.spectral as sp
    from saltpde.cli import parse_config
    from saltpde.estimates import check_difference, check_growth
    from saltpde.solver import run_path
    grids = {}     # holding each grid keeps its id from being reused

    def recording(grid, key, build, _symbol=sp._symbol):
        grids[id(grid)] = grid
        return _symbol(grid, key, build)
    monkeypatch.setattr(sp, "_symbol", recording)
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in ("simulate_ccf", "simulate_sqg"):
        sim = parse_config(os.path.join(configs, name + ".cfg")).sim
        run_path(replace(sim, t_end=5 * sim.dt))
    for model in ("sch2", "sqg"):
        check_growth(model, resolutions=(64, 128))
        check_difference(model, resolutions=(64, 128))
    exponents = [sum(key[0] == "weight" for key in grid._symbols)
                 for grid in grids.values()]
    assert max(exponents) >= 2
    assert max(exponents) < 8, exponents
