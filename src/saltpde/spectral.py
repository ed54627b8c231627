"""FFT-backed Fourier-multiplier operators on the periodic torus.

All fields live on a uniform grid over [0, 2*pi)^dim with nodes
x_j = 2*pi*j/n.  A field is a plain complex ndarray of Fourier
coefficients in numpy fft layout, normalised so that the field
c*exp(i*k.x) has coeff(k) = c; with that convention the discrete L2 inner
product (mean of the pointwise product over the grid) equals the spectral
inner product sum_k f(k)*conj(g(k)), and the H^s norm is

    ||f||_{H^s}^2 = sum_k (1+|k|^2)^s |coeff(k)|^2.

The trailing grid.dim axes of an array are the grid; any leading axes (the
rows of a model state, say) pass through every function unchanged, and
every transform runs over the trailing axes only, so one call covers every
row.  Norms and inner products reduce over the grid axes: a float for one
field, an array over the leading axes otherwise.  grid is the first
argument of every function.

Multiplier operators provided here: the Bessel potential D^s with symbol
(1+|k|^2)^(s/2), the periodic Hilbert transform (1D), the perpendicular
Riesz transform (2D), the symbol of the bump mollifier J_eps and the
Helmholtz mollifier (1-eps^2*Lap)^(-1).  Pointwise products of fields are
always dealiased with the 2/3 rule.  to_grid, band_values and
dealiased_product also take a pair (a, b) of real fields, which goes
through one complex transform of a + i*b.

Everything here is a pure function over arrays it never mutates; the grid
object carries the precomputed wavenumber meshes and masks.
"""

import itertools

import numpy as np

TWO_PI = 2.0 * np.pi


class Grid:
    """Uniform periodic grid, n points per axis, domain length 2*pi per axis.

    n must be an even power of two (dyadic refinement studies rely on it).
    axes are the trailing array axes the grid occupies.
    """

    def __init__(self, n, dim=1):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        n = self.check_n(n)
        self.n = n
        self.dim = dim
        self.shape = (n,) * dim
        self.axes = tuple(range(-dim, 0))
        self.n_total = n ** dim
        self.x = TWO_PI * np.arange(n) / n
        self.dx = TWO_PI / n

        k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, Nyquist at -n/2
        if dim == 1:
            self.k_axes = (k,)
            self.ksq = k * k
        else:
            k1 = k[:, None]
            k2 = k[None, :]
            self.k_axes = (np.broadcast_to(k1, self.shape),
                           np.broadcast_to(k2, self.shape))
            self.ksq = k1 * k1 + k2 * k2
        absk = np.sqrt(self.ksq)
        self.inv_absk = np.zeros(self.shape)   # 1/|k|, 0 on the mean mode
        np.divide(1.0, absk, out=self.inv_absk, where=absk > 0)

        # 2/3-rule band: keep |k_i| <= n//3 on every axis
        self.kmax_dealias = n // 3
        keep = np.ones(self.shape, dtype=bool)
        for ka in self.k_axes:
            keep &= np.abs(ka) <= self.kmax_dealias
        self.dealias_keep = keep

        # odd multipliers are ill-defined at the Nyquist mode; zero it there
        nyq = np.zeros(self.shape, dtype=bool)
        for ka in self.k_axes:
            nyq |= ka == -(n // 2)
        self.not_nyquist = ~nyq

        # multipliers (derivative, Hilbert, Riesz) and norm weights, each
        # built on first use; see _symbol
        self._symbols = {}

    @staticmethod
    def check_n(n):
        """n as an int; rejects anything but an integer power of two >= 8
        (a float 16.0 too: a manifest would write it back as 16.0)."""
        m = n if isinstance(n, (int, np.integer)) else 0
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError("n must be a power of two >= 8, got %r" % (n,))
        return int(m)

    def compatible(self, other):
        return self.n == other.n and self.dim == other.dim

    def nodes(self):
        """Coordinate arrays of the grid nodes (meshgrid in 2D)."""
        if self.dim == 1:
            return (self.x,)
        return np.meshgrid(self.x, self.x, indexing="ij")

    def __repr__(self):
        return "Grid(n=%d, dim=%d)" % (self.n, self.dim)


def _scalar(x):
    # a reduction over the grid axes: a float for one field
    return float(x) if x.ndim == 0 else x


def zero_field(grid, *lead):
    """Zero coefficients of shape lead + grid.shape."""
    return np.zeros(lead + grid.shape, dtype=np.complex128)


def from_values(grid, values):
    """Forward transform of real grid samples; rejects complex samples, a
    wrong shape and non-finite input with a diagnostic."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("grid samples must be real, got dtype %s" % values.dtype)
    values = values.astype(np.float64, copy=False)
    if values.shape[values.ndim - grid.dim:] != grid.shape:
        raise ValueError("values shape %r does not match grid %r"
                         % (values.shape, grid))
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError("field has %d non-finite values" % bad)
    return np.fft.fftn(values, s=grid.shape, axes=grid.axes) / grid.n_total


def _packed(c, mult):
    # c * mult as a fresh array; a pair (a, b) of real fields as the one
    # complex field (a + i*b) * mult
    if not isinstance(c, tuple):
        return c * mult
    a, b = c
    z = b * 1j
    z += a
    z *= mult
    return z


def _samples(grid, z, c):
    # the real samples of c from its packed coefficients z (a fresh array,
    # transformed in place): a pair's are the real and imaginary parts
    z = np.fft.ifftn(z, s=grid.shape, axes=grid.axes, out=z)
    return (z.real, z.imag) if isinstance(c, tuple) else np.real(z)


def to_grid(grid, c):
    """Real grid samples of the coefficients c, as a float ndarray.

    c may also be a pair (a, b) of real fields (Hermitian coefficients,
    such as the two components of a gradient): the pair of samples comes
    from one complex transform of a + i*b, whose real and imaginary parts
    are the samples of a and b.  Round-off in a's anti-Hermitian part lands
    in b's samples, so project the fields onto their Hermitian part first
    (hermitian_part) where the last bits matter.
    """
    z = _packed(c, grid.n_total)
    if not np.all(np.isfinite(z)):
        bad = int(np.count_nonzero(~np.isfinite(z)))
        raise ValueError("spectrum has %d non-finite coefficients" % bad)
    return _samples(grid, z, c)


def hermitian_part(grid, c):
    """(c(k) + conj(c(-k)))/2: the coefficients of the real part of the
    field c, Hermitian exactly (the derivative and Riesz multipliers keep
    them so), which is what pairing two fields in one transform needs."""
    flipped = np.empty_like(c)
    # index -k mod n along each grid axis: 0 stays, 1..n-1 reverse
    axis_parts = ((0, 0), (slice(1, None), slice(None, 0, -1)))
    for parts in itertools.product(axis_parts, repeat=grid.dim):
        out, src = zip(*parts)
        flipped[(Ellipsis,) + out] = c[(Ellipsis,) + src]
    np.conjugate(flipped, out=flipped)
    flipped += c
    flipped *= 0.5
    return flipped


def has_mean(grid, c):
    """True if some field's k = 0 coefficient exceeds round-off."""
    zero = (Ellipsis,) + (0,) * grid.dim
    return bool(np.any(np.abs(c[zero]) > 1e-12 * (
        1.0 + np.max(np.abs(c), axis=grid.axes))))


# ---------------------------------------------------------------------------
# per-grid symbols: each multiplier and norm weight is built once per grid
# (and per exponent s), from the expression a call used to evaluate, so a
# cached symbol gives the bits the uncached call gave.  A model's norms use
# up to four exponents, so a grid holds a handful of weights.


def _symbol(grid, key, build):
    """The multiplier key of grid, build() on first use."""
    sym = grid._symbols.get(key)
    if sym is None:
        sym = grid._symbols[key] = build()
        sym.flags.writeable = False
    return sym


def _weight(grid, s, homogeneous=False):
    """(1+|k|^2)^s, or |k|^(2s) with 0 on the mean mode if homogeneous."""
    key = ("weight", s, homogeneous)
    w = grid._symbols.get(key)
    if w is not None:
        return w

    def build():
        if not homogeneous:
            return (1.0 + grid.ksq) ** s
        w = np.zeros(grid.shape)
        nz = grid.ksq > 0
        w[nz] = grid.ksq[nz] ** s
        return w
    return _symbol(grid, key, build)


# ---------------------------------------------------------------------------
# multiplier operators

def bessel_multiplier(grid, c, s):
    """D^s: coeff(k) scaled by (1+|k|^2)^(s/2)."""
    return c * _weight(grid, 0.5 * s)


def derivative(grid, c, axis=0):
    """Spectral partial derivative along grid axis axis; the Nyquist mode is
    zeroed."""
    return c * _symbol(grid, ("derivative", axis),
                       lambda: 1j * grid.k_axes[axis] * grid.not_nyquist)


def gradient(grid, c):
    return tuple(derivative(grid, c, axis) for axis in range(grid.dim))


def hilbert_transform(grid, c):
    """Periodic Hilbert transform, multiplier -i*sgn(k).  1D only."""
    if grid.dim != 1:
        raise ValueError("Hilbert transform is 1D only")
    return c * _symbol(grid, ("hilbert", 0),
                       lambda: -1j * np.sign(grid.k_axes[0]) * grid.not_nyquist)


def riesz_perp(grid, c):
    """u = R^perp(theta) = (R_2 theta, -R_1 theta) in 2D.

    The sign convention gives real, divergence-free output and maps
    theta = cos(x1) to u = (0, sin(x1)).  Requires a zero-mean input.
    """
    if grid.dim != 2:
        raise ValueError("Riesz transform is 2D only")
    if has_mean(grid, c):
        raise ValueError("riesz_perp needs a zero-mean field")
    return riesz_component(grid, c, 1), -riesz_component(grid, c, 0)


def riesz_component(grid, c, axis):
    """R_j theta with multiplier i*k_j/|k| (2D, zero mean in = zero mean out)."""
    return c * _symbol(grid, ("riesz", axis),
                       lambda: 1j * grid.k_axes[axis] * grid.inv_absk
                       * grid.not_nyquist)


def _bump(r):
    # smooth compactly supported profile: 1 on [0,1], 0 outside [0,2)
    out = np.ones_like(r)
    mid = (r > 1.0) & (r < 2.0)
    rm = r[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - rm * rm))
    out[r >= 2.0] = 0.0
    return out


def mollifier_symbol(grid, eps):
    """Symbol jhat(eps*|k|) of the bump mollifier J_eps.

    jhat equals 1 on |xi| <= 1, so J_eps is the identity on fields
    bandlimited below 1/eps, and 0 <= jhat <= 1 everywhere.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("mollifier parameter eps must lie in (0,1), got %r" % (eps,))
    return _bump(eps * np.sqrt(grid.ksq))


def mollify_helmholtz(grid, c, eps):
    """Helmholtz mollifier (1 - eps^2*Lap)^(-1); self-adjoint in L2.

    eps in (0, 1]: the family parameter is (0,1) but the operator itself is
    well defined at eps = 1, which the closed-form checks use.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("helmholtz mollifier needs eps in (0,1], got %r" % (eps,))
    return c * (1.0 / (1.0 + (eps * eps) * grid.ksq))


# ---------------------------------------------------------------------------
# dealiased products

def band_values(grid, c):
    """Grid samples of the 2/3-band projection of c; of a pair (a, b), the
    pair of samples from one transform, as in to_grid."""
    z = _packed(c, grid.dealias_keep)
    z *= grid.n_total
    return _samples(grid, z, c)


def _band_product(grid, values):
    # coefficients of band-sample products, cut back to the band; the
    # transform runs in place on the one complex copy of values
    z = values.astype(np.complex128)
    z = np.fft.fftn(z, s=grid.shape, axes=grid.axes, out=z)
    z /= grid.n_total
    z *= grid.dealias_keep
    return z


def dealiased_product(grid, f, g):
    """Pointwise product with the 2/3 rule applied to inputs and output.

    f and g may also be two pairs (f1, f2), (g1, g2) of real fields: the
    product is then the dot product f1*g1 + f2*g2, summed on the grid
    before the one forward transform, and each pair takes one inverse
    transform (band_values), so u.grad(theta) costs three transforms.
    Two fields take their samples from one transform of their rows
    concatenated (their leading axes may differ), so a product costs two.
    """
    if isinstance(f, tuple) != isinstance(g, tuple):
        raise ValueError("dealiased_product takes two fields or two pairs")
    if isinstance(f, tuple):
        (f1, f2), (g1, g2) = band_values(grid, f), band_values(grid, g)
        return _band_product(grid, f1 * g1 + f2 * g2)
    rows = (-1,) + grid.shape
    fg = np.concatenate([f.reshape(rows), g.reshape(rows)])
    v = band_values(grid, fg)
    split = f.size // grid.n_total
    fv = v[:split].reshape(f.shape)
    gv = v[split:].reshape(g.shape)
    return _band_product(grid, fv * gv)


def _overlap(s, w):
    """(output, input) slices of the rows i and i - s that both lie in
    range(w): a shift by s with nothing wrapped around."""
    return slice(max(0, s), w + min(0, s)), slice(max(0, -s), w - max(0, s))


def product_with_values(grid, factor, c):
    """Dealiased product of a vector field's cached factor with c.

    1D: factor is band samples (an ndarray from band_values); multiply on
    the grid and transform back, as dealiased_product does.

    2D: factor is a stencil, a tuple of (s, (a1, a2)) with s = (s1, s2)
    the wavenumber of one in-band mode of xi and a_i = xi_i(s), and the
    product is taken in divergence form, div(xi * c) with the 2/3 rule:

        keep(k) * sum_s i*(a1*k1 + a2*k2) * (keep * c)(k - s),

    which is L_xi c.  The FFT route's xi.grad(c) + div(xi)*c pairs a_i(s)
    with i*(k - s)_i (the derivative of c) and i*s_i (the divergence of xi);
    the two add up to i*k_i, a symbol of the output mode alone.  So each
    shift costs one shifted copy of the band-cut input times that symbol
    (an outer sum of two wavenumber vectors), no derivative of c or of xi
    is formed, and div(xi) is carried exactly, whether or not xi is
    divergence-free.  No transform runs.  The product is three steps:
    gather_band, stencil_sum and scatter_band, so a caller that applies
    several stencils in turn (the Ito sum) gathers and scatters once.  The
    sum reads c's coefficients directly, so c must be Hermitian (the FFT
    route projects onto real fields); it agrees with the FFT route to
    round-off, not bit for bit.
    """
    if grid.dim == 1:
        return _band_product(grid, factor * band_values(grid, c))
    return scatter_band(grid, stencil_sum(grid, factor, gather_band(grid, c)))


def _band_parts(grid):
    # (block, fft index) slices along one axis of the band's wavenumbers
    # -K..-1 and 0..K, K = n//3
    n, K = grid.n, grid.kmax_dealias
    return ((slice(0, K), slice(n - K, n)),
            (slice(K, 2 * K + 1), slice(0, K + 1)))


def gather_band(grid, c):
    """The 2/3 band of the 2D coefficients c as one (2K+1, 2K+1) block in
    wavenumber order, K = n//3: block row i holds wavenumber i - K.
    Leading axes pass through."""
    w = 2 * grid.kmax_dealias + 1
    block = np.empty(c.shape[:-2] + (w, w), dtype=np.complex128)
    for (b1, f1), (b2, f2) in itertools.product(_band_parts(grid), repeat=2):
        block[..., b1, b2] = c[..., f1, f2]
    return block


def stencil_sum(grid, stencil, block):
    """L_xi on a band block (see product_with_values): a fresh block,
    sum_s i*(a1*k1 + a2*k2) * block(k - s) over the stencil's entries.

    k and s in the band put k - s within 2K < n - K of the origin, so the
    FFT route's circular convolution wraps nothing into the band and each
    shift is a plain slice of the block."""
    K = grid.kmax_dealias
    w = 2 * K + 1
    kb = np.arange(-K, K + 1.0)
    acc = np.zeros(block.shape, dtype=np.complex128)
    for (s1, s2), (a1, a2) in stencil:
        (o1, i1), (o2, i2) = _overlap(s1, w), _overlap(s2, w)
        sym = (1j * a1) * kb[o1, None] + (1j * a2) * kb[o2]
        acc[..., o1, o2] += sym * block[..., i1, i2]
    return acc


def scatter_band(grid, block):
    """The coefficients whose 2/3 band is block (gather_band's layout),
    zero outside the band."""
    out = np.zeros(block.shape[:-2] + grid.shape, dtype=np.complex128)
    for (b1, f1), (b2, f2) in itertools.product(_band_parts(grid), repeat=2):
        out[..., f1, f2] = block[..., b1, b2]
    return out


# ---------------------------------------------------------------------------
# norms and inner products, reduced over the grid axes

def sobolev_norm(grid, c, s):
    """||c||_{H^s} = sqrt(sum_k (1+|k|^2)^s |coeff(k)|^2)."""
    w = _weight(grid, s)
    return _scalar(np.sqrt((w * np.abs(c) ** 2).sum(axis=grid.axes)))


def homogeneous_norm(grid, c, s):
    """||Lambda^s c||_{L2} for mean-zero c (the k = 0 term is dropped)."""
    w = _weight(grid, s, homogeneous=True)
    return _scalar(np.sqrt((w * np.abs(c) ** 2).sum(axis=grid.axes)))


def hs_inner(grid, f, g, s):
    w = _weight(grid, s)
    return _scalar((w * f * np.conj(g)).sum(axis=grid.axes).real)


def homogeneous_inner(grid, f, g, s):
    w = _weight(grid, s, homogeneous=True)
    return _scalar((w * f * np.conj(g)).sum(axis=grid.axes).real)


def sup_norm(grid, c):
    return _scalar(np.max(np.abs(to_grid(grid, c)), axis=grid.axes))


def lipschitz_norm(grid, c):
    """Discrete W^{1,inf} surrogate: sup|f| + sup|f_x| on the nodes.  1D only."""
    if grid.dim != 1:
        raise ValueError("lipschitz_norm is 1D only")
    # f and f_x in one stacked transform
    v, dv = to_grid(grid, np.stack([c, derivative(grid, c, 0)]))
    return _scalar(np.max(np.abs(v), axis=grid.axes)
                   + np.max(np.abs(dv), axis=grid.axes))
