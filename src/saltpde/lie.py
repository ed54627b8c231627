"""First- and second-order Lie-type operators and commutators.

The basic operator is L_xi f = xi.grad(f) + div(xi)*f, which in 1D is the
divergence form (xi*f)_x.  Its square L_xi^2 (composition, the runtime
path) is the drift correction appearing when transport noise is rewritten
from Stratonovich to Ito form.  Derivatives are spectral, products are
dealiased, so the discrete mean of L_xi f vanishes to round-off in 1D and
the skew-symmetry identity (L_xi f, f) = ((div xi) f, f)/2 holds at the
level of the truncated dynamics.  The operators act on coefficient
arrays whose trailing axes are xi's grid; leading axes pass through, so
one call transports every row of a state (sch2's u and eta together).

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
                       sobolev_norm)

# a 2D support keeps the coefficients above this fraction of xi's largest;
# below it they are transform round-off (the whole sqg divergence is)
SUPPORT_RTOL = 1e-13


def components_norm(grid, components, s):
    """sqrt(sum_i ||xi_i||_{H^s}^2) over the components of a vector field."""
    return float(np.sqrt(sum(sobolev_norm(grid, c, s) ** 2 for c in components)))


class VectorFieldXi:
    """Smooth correlation vector field, one component per dimension.

    The components are the coefficient arrays xi_1, ..., xi_dim on grid.
    Caches each factor of L_xi once, the components and div(xi), in the
    form product_with_values takes: the in-band support on a 2D grid, the
    2/3-band grid samples on a 1D grid.
    """

    def __init__(self, grid, components, require_divergence_free=False):
        comps = [np.asarray(c, dtype=np.complex128) for c in components]
        if len(comps) != grid.dim or any(c.shape != grid.shape for c in comps):
            raise ValueError("expected %d components of shape %r"
                             % (grid.dim, grid.shape))
        self.grid = grid
        self.components = tuple(comps)
        self.divergence = sum(derivative(grid, c, axis)
                              for axis, c in enumerate(comps))
        self.max_divergence = float(np.max(np.abs(self.divergence)))
        if require_divergence_free and self.max_divergence > 1e-12:
            raise ValueError("xi is not divergence-free (max spectral residual %.3e)"
                             % self.max_divergence)
        if grid.dim == 1:
            factor = partial(band_values, grid)
        else:
            scale = max(float(np.max(np.abs(c))) for c in comps)
            factor = partial(band_support, grid, tol=SUPPORT_RTOL * scale)
        self._comp_factor = tuple(factor(c) for c in comps)
        self._div_factor = factor(self.divergence)

    def sobolev_norm(self, s):
        return components_norm(self.grid, self.components, s)


def lie_derivative(xi, c):
    """L_xi c = xi.grad(c) + div(xi)*c with dealiased products; c may carry
    leading axes (one call for every row)."""
    grid = xi.grid
    if c.shape[c.ndim - grid.dim:] != grid.shape:
        raise ValueError("grid mismatch between xi (%r) and field of shape %r"
                         % (grid, c.shape))
    out = product_with_values(grid, xi._comp_factor[0], derivative(grid, c, 0))
    for axis in range(1, grid.dim):
        out = out + product_with_values(grid, xi._comp_factor[axis],
                                        derivative(grid, c, axis))
    return out + product_with_values(grid, xi._div_factor, c)


def lie_second(xi, c):
    """L_xi^2 c by composing lie_derivative twice."""
    return lie_derivative(xi, lie_derivative(xi, c))


def ito_correction(basis, c):
    """(1/2) * sum_{k <= K} L_{xi_k}^2 c over a truncated noise basis."""
    out = np.zeros(c.shape, dtype=np.complex128)
    for xi in basis.xis:
        out = out + lie_second(xi, c)
    return 0.5 * out


def ds_commutator(grid, s, f, g):
    """[D^s, f] g = D^s(f*g) - f*D^s(g), products dealiased."""
    return bessel_multiplier(grid, dealiased_product(grid, f, g), s) \
        - dealiased_product(grid, f, bessel_multiplier(grid, g, s))
