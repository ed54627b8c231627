"""Spectral helpers that only the tests call.

They act on coefficient arrays as the functions of saltpde.spectral do:
grid first, the trailing grid.dim axes are the grid.
"""

import numpy as np

from saltpde.spectral import full_spectrum, has_mean, hs_inner, mollifier_symbol


def hermitian_defect(grid, c):
    """Max |coeff(-k) - conj(coeff(k))| over the whole spectrum; ~1e-16 for
    transforms of real data.  A 2D half spectrum holds both k and -k only
    on its columns k2 = 0 and -n/2 (full_spectrum fills in the rest from
    conjugate symmetry), so there it reads those columns."""
    c = full_spectrum(grid, c)
    flipped = np.conj(c[(Ellipsis,) + (np.s_[::-1],) * grid.dim])
    flipped = np.roll(flipped, 1, axis=grid.axes)
    return float(np.max(np.abs(c - flipped)))


def homogeneous_multiplier(grid, c, s):
    """Lambda^s: coeff(k) scaled by |k|^s; undefined on the mean for s < 0."""
    if s == 0:
        return c.copy()
    if s < 0 and has_mean(grid, c):
        raise ValueError("Lambda^s with s < 0 needs a zero-mean field")
    absk = np.sqrt(grid.ksq)
    mult = np.zeros(grid.spec_shape)
    nz = absk > 0
    mult[nz] = absk[nz] ** s
    return c * mult


def mollify_j(grid, c, eps):
    """Bump mollifier J_eps: coeff(k) scaled by jhat(eps*|k|)."""
    return c * mollifier_symbol(grid, eps)


def l2_inner(grid, f, g):
    return hs_inner(grid, f, g, 0.0)


def grid_inner(f, g):
    """Discrete L2 inner product of grid samples: mean of the pointwise product."""
    if f.shape != g.shape:
        raise ValueError("grid samples of shape %r vs %r" % (f.shape, g.shape))
    return float(np.mean(f * g))
