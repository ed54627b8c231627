"""Noise fields together with the arrays they were built from.

A 2D VectorFieldXi keeps only its stencil, and its components and
divergence are rebuilt from that stencil on access.  A test that checks
the stencil (its shifts, its coefficients, L_xi against the FFT route)
takes its reference from the arrays the field was built from instead, so
a wrong mode, sign or tolerance cut in the stencil shows on one side only.
"""

import types

import numpy as np
import pytest

from saltpde import noise
from saltpde.lie import VectorFieldXi
from saltpde.spectral import derivative


def sqg_basis_with_arrays(grid, K, s_max):
    """build_basis_sqg(grid, K, s_max) and, for each xi_k, the tuple of
    component arrays it was built from."""
    made = []

    def recording(grid, components, **kwargs):
        made.append(tuple(np.asarray(c) for c in components))
        return VectorFieldXi(grid, components, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "VectorFieldXi", recording)
        basis = noise.build_basis_sqg(grid, K, s_max)
    assert len(made) == len(basis.xis)
    return basis, made


def divergence(grid, comps):
    """div(xi) of the component arrays comps."""
    return sum(derivative(grid, c, axis) for axis, c in enumerate(comps))


def fft_lie(grid, comps, f):
    """Coefficients of the frozen FFT-route L_xi f for the xi with
    component arrays comps."""
    import oracle_ops
    xi = types.SimpleNamespace(
        components=[oracle_ops.SpectralField(grid, c) for c in comps],
        divergence=oracle_ops.SpectralField(grid, divergence(grid, comps)))
    return oracle_ops.fft_lie_derivative(
        xi, oracle_ops.SpectralField(grid, f)).coeffs
