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

How L_xi is computed depends on the grid dimension.  In 2D it is taken in
divergence form, div(xi*f), in coefficient space with no FFTs: the field
holds one stencil, each in-band mode s of xi's whole spectrum with its
coefficients (xi_1(s), xi_2(s)), and spectral.product_with_values sums,
over the stencil, the band-cut f shifted by s times the symbol
i*(xi_1(s)*k1 + xi_2(s)*k2) of the output mode k.  That symbol is where
the derivative of f (i*(k - s)) and the divergence of xi (i*s) meet, so
neither is formed and div(xi)*f needs no product of its own.  f is a half
spectrum (the columns k2 >= 0, see spectral), so the sum runs over the
output modes with k2 >= 0, and a shift that reaches a mode k - s with
k2 - s2 < 0 reads the conjugate of the held mode s - k.  A shipped xi_k
is one trigonometric mode, so its stencil holds the two shifts +-m, and
the result agrees with the FFT route to round-off.  The Ito sum on a
2D basis gathers the band of its input once, applies both L_k of every
xi_k inside that block (spectral.stencil_sum), sums there and scatters
once; the sum is bit for bit the per-field one, whose scatter and gather
between two L_k copy the block unchanged.  In 1D the factors xi and
div(xi) stay cached as band samples and the products go through the FFTs,
because the Lie cancellation check conditions Q = term1 + term2 only to
about 1e-9 at N = 1024, and any reordering of the 1D arithmetic, even the
dense convolution, moves its ratio by more than that.  Both products of
L_xi c = xi*c_x + div(xi)*c are one product_with_values call on the pair
(xi, div xi) x (c_x, c): one inverse and one forward transform, whose two
rows are then added.

The K fields of a 1D noise basis also come as one stacked field
(VectorFieldXi.stack), whose cached band samples have shape (2, K, n).
lie_derivative applies field k of a stack to index k of its input's first
axis, which has length K or 1, so one call forms every L_k c.  The Ito sum
(1/2) sum_k L_k^2 c and the h^k = -L_k c (up to the models' J and
conjugation) start from these same first-order terms: a caller that holds
them passes them to lie_second and ito_correction as first, and the 1D
fluid models form them once per state and share them.  numpy's batched
transforms give each row bit for bit what a one-row call gives, so the
stacked and paired routes change no result.  A 2D basis is not stacked:
its L_k are stencil sums with no transform to share, and K h-blocks held
at once would raise the peak memory of the 512^2 estimate checks.  Nor
does a 2D field keep anything of the whole spectrum it is given on: its
divergence and stencil are read on a layout the grid does not keep
(spectral.Grid.full_modes(), one per basis build), so the derivative
symbols and masks built there die with the build.
"""

import numpy as np

from .spectral import (band_values, bessel_multiplier, dealiased_product,
                       derivative, gather_band,
                       product_with_values, scatter_band, stencil_sum)

# a 2D stencil keeps the modes where a component exceeds this fraction of
# xi's largest coefficient; below it they are transform round-off
SUPPORT_RTOL = 1e-13


class VectorFieldXi:
    """Smooth correlation vector field, one component per dimension.

    Built from the coefficient arrays xi_1, ..., xi_dim on grid, given on
    the whole spectrum (Grid.full's layout; in 2D not the half spectrum of
    a state, since the stencil holds both modes s and -s with the
    coefficients given there).  modes is the whole-spectrum layout the
    divergence and stencil are read on: by default grid.full_modes(), or
    one that a basis build shares over its fields, so that its tables and
    symbols are built once and die with the build.  Keeps only
    max |div xi| and L_xi in the form product_with_values takes: on a 2D
    grid the stencil of xi's in-band modes (no grid-sized array), on a 1D
    grid the 2/3-band samples of xi and div(xi).
    """

    def __init__(self, grid, components, modes=None):
        comps = [np.asarray(c, dtype=np.complex128) for c in components]
        if len(comps) != grid.dim or any(c.shape != grid.shape for c in comps):
            raise ValueError("expected %d components of shape %r"
                             % (grid.dim, grid.shape))
        self.grid = grid
        if modes is None:
            modes = grid.full_modes()
        if grid.dim == 1:
            # div(xi) summed on zeros, whose signs band_values reads: band
            # samples of xi and div(xi), paired with (c_x, c) in one
            # product (lie_derivative)
            div = np.zeros(grid.shape, dtype=np.complex128)
            div += derivative(modes, comps[0], 0)
            self.max_divergence = float(np.max(np.abs(div)))
            self._factors = np.stack([band_values(grid, comps[0]),
                                      band_values(grid, div)])
        else:
            # div(xi) summed in place on the first derivative and dropped
            # before the stencil is read: it differs from a sum on zeros
            # only in the signs of zeros, which no modulus reads
            div = derivative(modes, comps[0], 0)
            div += derivative(modes, comps[1], 1)
            self.max_divergence = float(np.max(np.abs(div)))
            del div
            self._stencil = _stencil(modes, comps)
        self.K = None       # a single field, not a stack

    @classmethod
    def stack(cls, xis):
        """The 1D fields xis as one stacked field of K = len(xis) fields,
        for lie_derivative only.

        The cached factors gain an axis of length K after the (xi, div xi)
        axis, whose row k is xis[k]'s own band samples, so a stacked product
        reads the same samples as the single-field one.
        """
        grid = xis[0].grid
        if grid.dim != 1:
            raise ValueError("only 1D fields stack, got %r" % (grid,))
        out = cls.__new__(cls)
        out.grid = grid
        out._factors = np.stack([xi._factors for xi in xis], axis=1)
        out.K = len(xis)
        return out


def _stencil(modes, comps):
    """The in-band modes s of a 2D xi above SUPPORT_RTOL, as a tuple of
    (s, (xi_1(s), xi_2(s))) in fft index order; s is the wavenumber pair
    and modes the whole-spectrum layout of the components."""
    mags = [np.abs(c) for c in comps]
    tol = SUPPORT_RTOL * max(float(np.max(m)) for m in mags)
    idx = np.nonzero(modes.dealias_keep & ((mags[0] > tol) | (mags[1] > tol)))
    return tuple((tuple(int(k[mode]) for k in modes.k_axes),
                  tuple(complex(c[mode]) for c in comps))
                 for mode in zip(*idx))


def _check_grid(grid, c):
    if c.shape[c.ndim - grid.dim:] != grid.spec_shape:
        raise ValueError("grid mismatch between xi (%r) and field of shape %r"
                         % (grid, c.shape))


def lie_derivative(xi, c):
    """L_xi c = xi.grad(c) + div(xi)*c with dealiased products (on a 2D grid
    in divergence form, div(xi*c)); c may carry leading axes (one call for
    every row).

    For a stack of K fields, field k acts on index k of c's first axis,
    which has length K or 1 (then every field acts on the same input); the
    result has K rows on that axis.

    In 1D both products are one product_with_values call on the pair
    (xi, div xi) x (c_x, c), one inverse and one forward transform; the
    pair's two rows are then added, as the two products' results were.
    """
    grid = xi.grid
    _check_grid(grid, c)
    if grid.dim == 2:
        return product_with_values(grid, xi._stencil, c)
    if xi.K is not None and (c.ndim == grid.dim or c.shape[0] not in (1, xi.K)):
        raise ValueError("a stack of %d fields needs a first axis of length "
                         "%d or 1, got shape %r" % (xi.K, xi.K, c.shape))
    # the factors' own axes, then unit axes up to the grid: broadcasting
    # alone would pair the pair axis or the stack with c's rows (sch2's u
    # and eta)
    own = xi._factors.shape[:-grid.dim]
    factors = xi._factors.reshape(
        own + (1,) * (c.ndim + 1 - len(own) - grid.dim) + grid.shape)
    pair = np.empty((2,) + c.shape, dtype=np.complex128)
    pair[0] = derivative(grid, c)
    pair[1] = c
    out = product_with_values(grid, factors, pair)
    return out[0] + out[1]


def lie_second(xi, c, first=None):
    """L_xi^2 c by composing lie_derivative twice; first is L_xi c if the
    caller already holds it."""
    return lie_derivative(xi, lie_derivative(xi, c) if first is None else first)


def ito_correction(basis, c, first=None):
    """(1/2) * sum_{k <= K} L_{xi_k}^2 c over a truncated noise basis.

    A 1D basis forms every L_k^2 c in one stacked call; first is the
    stacked L_k c, shape (K,) + c.shape, if the caller already holds it.
    A 2D basis works in one band block of c: both L_k of every xi_k are
    stencil sums there, and the block is scattered once.  The terms are
    summed from zero in k order on every route.
    """
    if basis.stack is not None:
        terms = lie_second(basis.stack, c[None], first)
    elif basis.xis:
        grid = basis.xis[0].grid
        _check_grid(grid, c)
        block = gather_band(grid, c)
        acc = np.zeros(block.shape, dtype=np.complex128)
        for xi in basis.xis:
            acc = acc + stencil_sum(grid, xi._stencil,
                                    stencil_sum(grid, xi._stencil, block))
        return 0.5 * scatter_band(grid, acc)
    else:
        terms = ()
    out = np.zeros(c.shape, dtype=np.complex128)
    for term in terms:
        out = out + term
    return 0.5 * out


def ds_commutator(grid, s, f, g):
    """[D^s, f] g = D^s(f*g) - f*D^s(g), products dealiased (in one call)."""
    f, g = np.broadcast_arrays(f, g)        # so the stack pairs f with g and D^s g
    fg, f_dsg = dealiased_product(grid, f,
                                  np.stack([g, bessel_multiplier(grid, g, s)]))
    return bessel_multiplier(grid, fg, s) - f_dsg
