"""First- and second-order Lie-type operators and commutators.

The basic operator is L_xi f = xi.grad(f) + div(xi)*f, which in 1D is the
divergence form (xi*f)_x.  Its square L_xi^2 (composition, the runtime
path) is the drift correction appearing when transport noise is rewritten
from Stratonovich to Ito form.  Derivatives are spectral, products are
dealiased, so the discrete mean of L_xi f vanishes to round-off in 1D and
the skew-symmetry identity (L_xi f, f) = ((div xi) f, f)/2 holds at the
level of the truncated dynamics.

How the products xi_i * d_i f and div(xi) * f are computed depends on the
grid dimension.  In 2D each factor is cached as its in-band Fourier support
and the product is a circular convolution in coefficient space, with no
FFTs: a shipped xi_k is one trigonometric mode, so each factor has at most
two coefficients (none for the divergence of the divergence-free sqg
basis), and the result agrees with the FFT route to round-off.  In 1D the
factors stay cached as band samples and the product goes through the FFTs,
because the Lie cancellation check conditions Q = term1 + term2 only to
about 1e-9 at N = 1024, and any reordering of the 1D arithmetic, even the
dense convolution, moves its ratio by more than that.
"""

from functools import partial

import numpy as np

from .spectral import (band_support, band_values, bessel_multiplier,
                       dealiased_product, derivative, product_with_values,
                       sobolev_norm, zero_field)

# a 2D support keeps the coefficients above this fraction of xi's largest;
# below it they are transform round-off (the whole sqg divergence is)
SUPPORT_RTOL = 1e-13


def components_norm(components, s):
    """sqrt(sum_i ||xi_i||_{H^s}^2) over the components of a vector field."""
    return float(np.sqrt(sum(sobolev_norm(c, s) ** 2 for c in components)))


class VectorFieldXi:
    """Smooth correlation vector field, one component per dimension.

    Caches each factor of L_xi once, the components and div(xi), in the
    form product_with_values takes: the in-band support on a 2D grid, the
    2/3-band grid samples on a 1D grid.
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
        if self.grid.dim == 1:
            factor = band_values
        else:
            scale = max(float(np.max(np.abs(c.coeffs))) for c in comps)
            factor = partial(band_support, tol=SUPPORT_RTOL * scale)
        self._comp_factor = tuple(factor(c) for c in comps)
        self._div_factor = factor(div)

    def sobolev_norm(self, s):
        return components_norm(self.components, s)


def lie_derivative(xi, F):
    """L_xi F = xi.grad(F) + div(xi)*F with dealiased products."""
    if not xi.grid.compatible(F.grid):
        raise ValueError("grid mismatch between xi and field")
    out = product_with_values(xi._comp_factor[0], derivative(F, 0))
    for axis in range(1, F.grid.dim):
        out = out + product_with_values(xi._comp_factor[axis], derivative(F, axis))
    return out + product_with_values(xi._div_factor, F)


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
