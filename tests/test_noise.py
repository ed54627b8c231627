import math

import numpy as np
import pytest

from saltpde.noise import (BrownianPath, build_basis_1d, build_basis_sqg,
                           components_norm, sample_path)
from saltpde.spectral import Grid
from xi_helpers import built_from, divergence


def test_empty_basis():
    basis = build_basis_1d(Grid(64), 0, 6.0)
    assert basis.K == 0


def test_geometric_partial_sums_exact():
    g = Grid(64)
    K = 6
    with built_from() as arrays:
        basis = build_basis_1d(g, K, s_max=5.0)
    assert basis.K == K == len(arrays)
    for k, comps in enumerate(arrays, start=1):
        assert abs(components_norm(g, comps, 5.0) - 2.0 ** -k) < 1e-10


def test_divergent_polynomial_config_rejected():
    with pytest.raises(ValueError, match="diverg"):
        build_basis_1d(Grid(64), 4, 6.0, decay_kind="polynomial",
                       decay_param=0.9)


def stencil_norm(xi, s):
    """||xi||_{H^s} summed over the stencil's entries, the modes L_xi uses."""
    return math.sqrt(sum((1.0 + s1 * s1 + s2 * s2) ** s * (abs(a1) ** 2 + abs(a2) ** 2)
                         for (s1, s2), (a1, a2) in xi._stencil))


def test_sqg_basis_divergence_free():
    # divergence and norm read on the arrays each xi_k was built from, and
    # the norm also on the stencil the field keeps
    g = Grid(32, dim=2)
    with built_from() as arrays:
        basis = build_basis_sqg(g, 5, s_max=5.0)
    for k, (xi, comps) in enumerate(zip(basis.xis, arrays), start=1):
        assert np.max(np.abs(divergence(g, comps))) < 1e-12
        assert xi.max_divergence < 1e-12
        assert abs(components_norm(g, comps, 5.0) - 2.0 ** -k) < 1e-10
        # at 32^2 the round-off off the stencil is far below the tolerance
        assert abs(stencil_norm(xi, 5.0) - 2.0 ** -k) < 1e-10
    # psi = cos(x1) gives xi = (0, -sin x1): first basis member is that shape
    assert np.max(np.abs(arrays[0][0])) < 1e-13
    assert all(abs(a1) < 1e-13 for _, (a1, _) in basis.xis[0]._stencil)


# sha256 of the stencils of build_basis_sqg(Grid(n, dim=2), 8, 6.5): every
# shift and the float.hex of every coefficient, as formed on the whole
# spectrum (revision 1eed7ca, before 2D states held their half spectrum)
FROZEN_SQG_STENCILS = {
    64: "0a542a3fe8a7cda4186e20af40a321a6e973098b3f32297016a41223714d723d",
    256: "ec50573c8f897828484e8e3f5b2d8567f043e38794d2743a97e213f88c71df72",
}


@pytest.mark.parametrize("n", sorted(FROZEN_SQG_STENCILS))
def test_sqg_stencils_are_frozen(n):
    # the basis is built on the whole spectrum and hands L_xi only its
    # stencil: at fine grids its normalisation is dominated by transform
    # round-off (the xfail below), so any change to how psi is transformed
    # moves growth_sqg and difference_sqg by O(1).  16 entries, both
    # shifts +-m of each of the 8 fields
    import hashlib
    basis = build_basis_sqg(Grid(n, dim=2), 8, s_max=6.5)
    entries = [(shift, [(a.real.hex(), a.imag.hex()) for a in coeffs])
               for xi in basis.xis for shift, coeffs in xi._stencil]
    assert len(entries) == 16
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == FROZEN_SQG_STENCILS[n]


@pytest.mark.parametrize("n", [64, pytest.param(512, marks=pytest.mark.xfail(
    strict=True, reason="build_basis_sqg normalises xi_k by components_norm "
    "at s_max = 6.5, which also sums the from_values round-off of every mode "
    "weighted by (1+|k|^2)^6.5: at 512^2 xi_1..xi_4 get 0.07-0.11 of their "
    "target amplitude"))])
def test_sqg_xi_norm_on_its_stencil_is_the_target(n):
    # the geometric decay law ||xi_k||_{H^s_max} = 2^-k, read on the two
    # modes +-m that each xi_k's stencil holds
    basis = build_basis_sqg(Grid(n, dim=2), 8, s_max=6.5)
    for k, xi in enumerate(basis.xis, start=1):
        assert abs(stencil_norm(xi, 6.5) / 2.0 ** -k - 1.0) <= 1e-9, k


def test_path_determinism_and_shape():
    p1 = sample_path(9, 1e-3, 50, 4)
    p2 = sample_path(9, 1e-3, 50, 4)
    assert np.array_equal(p1.increments, p2.increments)
    assert p1.increments.shape == (50, 4)
    p0 = sample_path(9, 1e-3, 50, 0)
    assert p0.increments.shape == (50, 0)


def test_path_dyadic_refinement_consistency():
    for dt, n in ((1e-3, 37), (0.02, 16), (2.5e-4, 100)):
        coarse = sample_path(123, dt, n, 3)
        fine = sample_path(123, dt / 2, 2 * n, 3)
        agg = fine.increments.reshape(n, 2, 3).sum(axis=1)
        assert np.max(np.abs(agg - coarse.increments)) < 1e-12 * np.sqrt(dt)
        # two levels down as well
        finer = sample_path(123, dt / 4, 4 * n, 3)
        agg2 = finer.increments.reshape(n, 4, 3).sum(axis=1)
        assert np.max(np.abs(agg2 - coarse.increments)) < 1e-12 * np.sqrt(dt)


def test_path_statistics():
    dt = 1e-3
    p = sample_path(2, dt, 100000, 3)
    flat = p.increments.ravel()          # 3e5 samples
    var = flat.var()
    assert 0.99 * dt < var < 1.01 * dt
    assert abs(flat.mean()) < 3.0 * np.sqrt(dt / flat.size)

    # independence proxy between distinct component streams, 1e5 steps
    for a in range(3):
        for b in range(a + 1, 3):
            corr = np.corrcoef(p.increments[:, a], p.increments[:, b])[0, 1]
            assert abs(corr) < 0.01


def test_path_seed_sensitivity():
    a = sample_path(1, 1e-3, 100, 2)
    b = sample_path(2, 1e-3, 100, 2)
    assert np.max(np.abs(a.increments - b.increments)) > 1e-4


def test_path_validation():
    with pytest.raises(ValueError):
        sample_path(0, -1.0, 10, 1)
    with pytest.raises(ValueError):
        BrownianPath(0, 1e-3, 10, 2, np.zeros((5, 2)))


@pytest.mark.parametrize("dt, n, K", [
    (1.0 / 256, 256, 1),      # the finest rung of the shipped linear ladder
    (1.0 / 256, 37, 2),       # odd n: the coarser levels end in a half pair
    (1e-3, 37, 3)])
def test_coarsened_paths_are_sample_path(dt, n, K):
    fine = sample_path(100, dt, n, K)
    for j in range(6):
        for m in {-(-n // 2 ** j), max(1, -(-n // 2 ** j) - 1)}:
            got = fine.coarsened(dt * 2 ** j, m)
            want = sample_path(100, dt * 2 ** j, m, K)
            assert (got.seed, got.dt, got.n_steps, got.K) == \
                (want.seed, want.dt, want.n_steps, want.K)
            assert np.array_equal(got.increments, want.increments), (j, m)


def test_coarsened_off_the_tree_is_drawn(monkeypatch):
    # a dt with another odd mantissa, a finer dt, or more steps than the
    # tree holds at that level: drawn by sample_path, with the same bits
    import saltpde.noise as noise
    fine = sample_path(7, 1.0 / 64, 37, 2)
    draws = []

    def counted(*args, _fn=noise.sample_path):
        draws.append(args)
        return _fn(*args)
    monkeypatch.setattr(noise, "sample_path", counted)
    for dt, m in ((3.0 / 64, 12), (1.0 / 128, 74), (1.0 / 32, 20)):
        got = fine.coarsened(dt, m)
        assert draws.pop() == (7, dt, m, 2)
        assert np.array_equal(got.increments,
                              sample_path(7, dt, m, 2).increments)
    with pytest.raises(ValueError, match="dt too large"):
        fine.coarsened(4096.0, 1)
    draws.clear()
    fine.coarsened(1.0 / 32, 19)        # on the tree: nothing drawn
    assert draws == []
