"""Noise fields together with the arrays they were built from.

A VectorFieldXi keeps only what L_xi reads: the 2/3-band samples of xi and
div(xi) in 1D, the stencil of xi's in-band modes in 2D.  It is built from
component arrays on the whole spectrum (Grid.full), in 2D too.  A test that
checks those (a norm, the stencil's shifts and coefficients, L_xi against
the FFT route) takes its reference from the arrays the field was built
from, so a wrong mode, sign or tolerance cut shows on one side only.
"""

import contextlib
import types

import numpy as np
import pytest

from saltpde import noise
from saltpde.lie import VectorFieldXi
from saltpde.spectral import derivative, full_spectrum


@contextlib.contextmanager
def built_from():
    """Within the block, every field a saltpde.noise builder makes is
    recorded: yields the list of the tuples of component arrays each field
    was built from, in build order."""
    made = []

    def recording(grid, components, modes=None):
        made.append(tuple(np.asarray(c) for c in components))
        return VectorFieldXi(grid, components, modes)
    recording.stack = VectorFieldXi.stack      # NoiseBasis stacks a 1D basis

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "VectorFieldXi", recording)
        yield made


def divergence(grid, comps):
    """div(xi) of the component arrays comps, on the whole spectrum (the
    layout a noise field takes its components in)."""
    return sum(derivative(grid.full, c, axis) for axis, c in enumerate(comps))


def fft_lie(grid, comps, f):
    """Coefficients of the frozen FFT-route L_xi f for the xi with
    component arrays comps, in f's layout: the route runs on the whole
    spectrum, and of a 2D result the half spectrum is returned."""
    import oracle_ops
    pg = oracle_ops.parent_grid(grid)
    xi = types.SimpleNamespace(
        components=[oracle_ops.SpectralField(pg, c) for c in comps],
        divergence=oracle_ops.SpectralField(pg, divergence(grid, comps)))
    out = oracle_ops.fft_lie_derivative(
        xi, oracle_ops.SpectralField(pg, full_spectrum(grid, f))).coeffs
    return out[..., :grid.spec_shape[-1]]
