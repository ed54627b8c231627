"""First- and second-order Lie-type operators and commutators.

The basic operator is L_xi f = xi.grad(f) + div(xi)*f, which in 1D is the
divergence form (xi*f)_x.  Its square L_xi^2 (composition, the runtime
path) is the drift correction appearing when transport noise is rewritten
from Stratonovich to Ito form.  Derivatives are spectral, products are
dealiased, so the discrete mean of L_xi f vanishes to round-off in 1D and
the skew-symmetry identity (L_xi f, f) = ((div xi) f, f)/2 holds at the
level of the truncated dynamics.
"""

import numpy as np

from .spectral import (band_values, bessel_multiplier, dealiased_product,
                       derivative, product_with_values, zero_field)


class VectorFieldXi:
    """Smooth correlation vector field, one component per dimension.

    Caches the 2/3-band grid samples of the components and of div(xi);
    all downstream products use those cached factors.
    """

    def __init__(self, components, require_divergence_free=False):
        comps = list(components)
        self.grid = comps[0].grid
        for c in comps[1:]:
            if not c.grid.compatible(self.grid):
                raise ValueError("xi components live on different grids")
        if len(comps) != self.grid.dim:
            raise ValueError("expected %d components, got %d"
                             % (self.grid.dim, len(comps)))
        self.components = tuple(comps)
        div = zero_field(self.grid)
        for axis, c in enumerate(comps):
            div = div + derivative(c, axis)
        self.divergence = div
        self.max_divergence = float(np.max(np.abs(div.coeffs)))
        if require_divergence_free and self.max_divergence > 1e-12:
            raise ValueError("xi is not divergence-free (max spectral residual %.3e)"
                             % self.max_divergence)
        self._comp_band = tuple(band_values(c) for c in comps)
        self._div_band = band_values(div)

    def sobolev_norm(self, s):
        from .spectral import sobolev_norm
        return float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in self.components)))


def lie_derivative(xi, F):
    """L_xi F = xi.grad(F) + div(xi)*F with dealiased products."""
    if not xi.grid.compatible(F.grid):
        raise ValueError("grid mismatch between xi and field")
    out = product_with_values(xi._comp_band[0], derivative(F, 0))
    for axis in range(1, F.grid.dim):
        out = out + product_with_values(xi._comp_band[axis], derivative(F, axis))
    return out + product_with_values(xi._div_band, F)


def lie_second(xi, F):
    """L_xi^2 F by composing lie_derivative twice."""
    return lie_derivative(xi, lie_derivative(xi, F))


def ito_correction(basis, F):
    """(1/2) * sum_{k <= K} L_{xi_k}^2 F over a truncated noise basis."""
    out = zero_field(F.grid)
    for xi in basis.xis:
        out = out + lie_second(xi, F)
    return 0.5 * out


def ds_commutator(s, f, g):
    """[D^s, f] g = D^s(f*g) - f*D^s(g), products dealiased."""
    return bessel_multiplier(dealiased_product(f, g), s) \
        - dealiased_product(f, bessel_multiplier(g, s))
