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

The K fields of a 1D noise basis also come as one stacked field
(VectorFieldXi.stack), whose cached band samples have shape (K, n).
lie_derivative applies field k of a stack to index k of its input's first
axis, which has length K or 1, so one call forms every L_k c, and the Ito
sum (1/2) sum_k L_k^2 c and the h^k share their transforms.  numpy's
batched transforms give each row bit for bit what a one-row call gives, so
the stacked route changes no result.  On a 2D grid the per-field loop
stays: support products make no transforms to share.
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
        self.K = None       # a single field, not a stack

    @classmethod
    def stack(cls, xis):
        """The 1D fields xis as one stacked field of K = len(xis) fields,
        for lie_derivative only.

        Each cached factor gains a leading axis of length K whose row k is
        xis[k]'s own band samples, so a stacked product reads the same
        samples as the single-field one.
        """
        grid = xis[0].grid
        if grid.dim != 1:
            raise ValueError("only 1D fields stack, got %r" % (grid,))
        out = cls.__new__(cls)
        out.grid = grid
        out._comp_factor = (np.stack([xi._comp_factor[0] for xi in xis]),)
        out._div_factor = np.stack([xi._div_factor for xi in xis])
        out.K = len(xis)
        return out

    def sobolev_norm(self, s):
        return components_norm(self.grid, self.components, s)


def lie_derivative(xi, c):
    """L_xi c = xi.grad(c) + div(xi)*c with dealiased products; c may carry
    leading axes (one call for every row).

    For a stack of K fields, field k acts on index k of c's first axis,
    which has length K or 1 (then every field acts on the same input); the
    result has K rows on that axis.
    """
    grid = xi.grid
    if c.shape[c.ndim - grid.dim:] != grid.shape:
        raise ValueError("grid mismatch between xi (%r) and field of shape %r"
                         % (grid, c.shape))
    comp, div = xi._comp_factor, xi._div_factor
    if xi.K is not None:
        if c.ndim == grid.dim or c.shape[0] not in (1, xi.K):
            raise ValueError("a stack of %d fields needs a first axis of length "
                             "%d or 1, got shape %r" % (xi.K, xi.K, c.shape))
        # unit axes between the stack and the grid: broadcasting alone would
        # pair the fields with c's last leading axis (sch2's u and eta)
        lead = (xi.K,) + (1,) * (c.ndim - 1 - grid.dim) + grid.shape
        comp = tuple(f.reshape(lead) for f in comp)
        div = div.reshape(lead)
    out = product_with_values(grid, comp[0], derivative(grid, c, 0))
    for axis in range(1, grid.dim):
        out = out + product_with_values(grid, comp[axis],
                                        derivative(grid, c, axis))
    return out + product_with_values(grid, div, c)


def lie_second(xi, c):
    """L_xi^2 c by composing lie_derivative twice."""
    return lie_derivative(xi, lie_derivative(xi, c))


def ito_correction(basis, c):
    """(1/2) * sum_{k <= K} L_{xi_k}^2 c over a truncated noise basis.

    A 1D basis forms every L_k^2 c in one stacked call; the terms are summed
    from zero in k order on both routes.
    """
    if basis.stack is None:
        terms = (lie_second(xi, c) for xi in basis.xis)
    else:
        terms = lie_second(basis.stack, c[None])
    out = np.zeros(c.shape, dtype=np.complex128)
    for term in terms:
        out = out + term
    return 0.5 * out


def ds_commutator(grid, s, f, g):
    """[D^s, f] g = D^s(f*g) - f*D^s(g), products dealiased."""
    return bessel_multiplier(grid, dealiased_product(grid, f, g), s) \
        - dealiased_product(grid, f, bessel_multiplier(grid, g, s))
