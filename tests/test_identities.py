"""Property tests of the exact identities of the spectral layer.

The 2/3 rule makes a product of fields whose bands add up to at most n//3
per axis exact (Orszag 1971), so the product rule and the skew-symmetry of
L_xi hold to round-off on such fields, as do the multiplier identities of
the Hilbert and Riesz transforms on zero-mean fields with no Nyquist mode.
Examples are drawn deterministically, so every run checks the same cases.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from saltpde.lie import VectorFieldXi, lie_derivative  # noqa: E402
from saltpde.spectral import (Grid, dealiased_product, derivative,  # noqa: E402
                              from_values, full_spectrum, hilbert_transform,
                              hs_inner, riesz_component, riesz_perp)

EXAMPLES = settings(derandomize=True, max_examples=30, deadline=None,
                    database=None)

SEEDS = st.integers(0, 2 ** 32 - 1)
GRIDS = st.sampled_from([(64, 1), (32, 2)])


def band_field(grid, seed, kmax, zero_mean=False):
    """Random real field with |k_i| <= kmax on every axis, no Nyquist mode."""
    rng = np.random.default_rng(seed)
    c = from_values(grid, rng.standard_normal(grid.shape))
    keep = grid.not_nyquist.copy()
    for ka in grid.k_axes:
        keep &= np.abs(ka) <= kmax
    if zero_mean:
        keep &= grid.ksq > 0
    return c * keep


def scale(*fields):
    return max(1.0, *(float(np.max(np.abs(f))) for f in fields))


@EXAMPLES
@given(grid=GRIDS, seed=SEEDS, kf=st.integers(1, 10), kg=st.integers(1, 10))
def test_product_rule_on_band(grid, seed, kf, kg):
    g = Grid(*grid)
    k = g.kmax_dealias // 2
    f = band_field(g, seed, min(kf, k))
    h = band_field(g, seed + 1, min(kg, k))
    for axis in range(g.dim):
        lhs = derivative(g, dealiased_product(g, f, h), axis)
        rhs = dealiased_product(g, derivative(g, f, axis), h) \
            + dealiased_product(g, f, derivative(g, h, axis))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * g.n * scale(f, h) ** 2


@EXAMPLES
@given(grid=GRIDS, seed=SEEDS, kxi=st.integers(1, 5), kf=st.integers(1, 8))
def test_lie_skew_symmetry(grid, seed, kxi, kf):
    # (L_xi f, f) = ((div xi) f, f) / 2 for any xi, divergence-free or not
    g = Grid(*grid)
    # div(xi) is taken from the arrays xi is built from (a noise field
    # takes them on the whole spectrum)
    comps = [band_field(g, seed + i, kxi) for i in range(g.dim)]
    xi = VectorFieldXi(g, [full_spectrum(g, c) for c in comps])
    f = band_field(g, seed + 7, kf)
    div = sum(derivative(g, c, axis) for axis, c in enumerate(comps))
    lhs = hs_inner(g, lie_derivative(xi, f), f, 0.0)
    rhs = 0.5 * hs_inner(g, dealiased_product(g, div, f), f, 0.0)
    tol = 1e-12 * g.n * scale(*comps) * scale(f) ** 2
    assert abs(lhs - rhs) <= tol


@EXAMPLES
@given(seed=SEEDS, kmax=st.integers(1, 32))
def test_hilbert_squares_to_minus_one(seed, kmax):
    g = Grid(64)
    f = band_field(g, seed, kmax, zero_mean=True)
    hh = hilbert_transform(g, hilbert_transform(g, f))
    assert np.max(np.abs(hh + f)) <= 1e-15 * scale(f)


@EXAMPLES
@given(seed=SEEDS, kmax=st.integers(1, 16))
def test_riesz_identities(seed, kmax):
    g = Grid(32, dim=2)
    th = band_field(g, seed, kmax, zero_mean=True)
    u1, u2 = riesz_perp(g, th)
    div = derivative(g, u1, 0) + derivative(g, u2, 1)
    assert np.max(np.abs(div)) <= 1e-13 * g.n * scale(th)
    rr = riesz_component(g, riesz_component(g, th, 0), 0) \
        + riesz_component(g, riesz_component(g, th, 1), 1)
    assert np.max(np.abs(rr + th)) <= 1e-14 * scale(th)
