"""FFT-backed Fourier-multiplier operators on the periodic torus.

All fields live on a uniform grid over [0, 2*pi)^dim with nodes
x_j = 2*pi*j/n.  A field is a plain complex ndarray of Fourier
coefficients in numpy fft layout, normalised so that the field
c*exp(i*k.x) has coeff(k) = c; with that convention the discrete L2 inner
product (mean of the pointwise product over the grid) equals the spectral
inner product sum_k f(k)*conj(g(k)), and the H^s norm is

    ||f||_{H^s}^2 = sum_k (1+|k|^2)^s |coeff(k)|^2.

Every field is real.  A 1D field holds all n coefficients.  A 2D field
holds its half spectrum, as rfft gives it: the columns k2 = 0..n/2 of the
n x n spectrum, an array of shape grid.spec_shape = (n, n//2+1) whose last
column is labelled k2 = -n/2 (numpy's fft order).  The modes with
k2 < 0 are the conjugates coeff(-k) = conj(coeff(k)) of those held.  So
every sum over modes (a norm, an inner product, the coefficient bound)
counts each column 0 < k2 < n/2 twice, for k and -k, and the columns
k2 = 0 and n/2, which hold their own conjugates, once.  A stencil shift
that reaches a mode k - s with k2 - s2 < 0 reads the conjugate of the
held mode s - k.  Transforms are real: a 2D forward transform is rfft
along the last axis and a complex fftn along the first, the inverse
ifftn along the first and irfft along the last, as numpy's rfftn/irfftn
make them.  Grid.full_modes() is a layout of the whole n x n spectrum, and
every function here takes it as its grid too (a complex transform there):
a noise field's components (lie.VectorFieldXi) are given on it.

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
always dealiased with the 2/3 rule.

No function here writes into an array it was handed, except an out that
the caller passes for the result (derivative, riesz_component and
riesz_perp's one component take one); dealiased_product forms its factors
in a buffer of its own.  A layout carries the wavenumber meshes and builds
its tables (|k|^2, 1/|k|, the masks) and multipliers when they are first
read, then keeps them; the basis build reads its whole-spectrum tables on a
layout of its own (Grid.full_modes()), which dies with the build.
"""

import functools
import math

import numpy as np

TWO_PI = 2.0 * np.pi

# the most bytes that one stacked intermediate may take: a noise basis's
# stencil plan (stencil_plan), the samples of the pairs of a dot product
# and of a V-norm's fields taken in one transform.  Above it that work runs
# one field at a time, so the peaks at 256^2 and beyond (where one
# half-spectrum row is 528 KB) are those of one row.  Every use reads it
# from this module, so a test may set it to force either route
STACK_BYTES = 256 * 1024


class _Modes:
    """One layout of the modes of an n^dim grid, built from one wavenumber
    array per axis (broadcasting to the layout's shape, spec_shape).  Every
    function here takes a layout as its grid: a Grid (a 2D field's half
    spectrum) or Grid.full_modes() (the whole spectrum).
    half is True on the half spectrum.  The geometry (shape, axes, n_total,
    the meshes k_axes) is set at construction; each table is built when it
    is first read and then kept: ksq = |k|^2, inv_absk = 1/|k| (0 on the
    mean mode), dealias_keep (the 2/3-rule band |k_i| <= n//3 on every
    axis) and not_nyquist (False where some k_i = -n/2: odd multipliers
    are ill-defined there and zeroed), as are the multipliers and norm
    weights of _symbol."""

    def __init__(self, n, axes, spec_shape):
        self.n = n
        self.dim = len(axes)
        self.shape = (n,) * self.dim
        self.axes = tuple(range(-self.dim, 0))
        self.n_total = n ** self.dim
        # the axes broadcast: (n,) in 1D, (n, 1) against (1, m) in 2D
        self.spec_shape = shape = spec_shape
        self.half = shape != self.shape
        self._k = axes
        self.k_axes = axes if len(axes) == 1 else tuple(
            np.broadcast_to(a, shape) for a in axes)
        self._symbols = {}

    @functools.cached_property
    def ksq(self):
        ksq = self._k[0] * self._k[0]
        for a in self._k[1:]:
            ksq = ksq + a * a
        return ksq

    @functools.cached_property
    def inv_absk(self):
        absk = np.sqrt(self.ksq)
        inv = np.zeros(self.spec_shape)
        np.divide(1.0, absk, out=inv, where=absk > 0)
        return inv

    @functools.cached_property
    def dealias_keep(self):
        keep = np.ones(self.spec_shape, dtype=bool)
        for ka in self.k_axes:
            keep &= np.abs(ka) <= self.n // 3
        return keep

    @functools.cached_property
    def not_nyquist(self):
        nyq = np.zeros(self.spec_shape, dtype=bool)
        for ka in self.k_axes:
            nyq |= ka == -(self.n // 2)
        return ~nyq


class Grid(_Modes):
    """Uniform periodic grid, n points per axis, domain length 2*pi per axis.

    n must be an even power of two (dyadic refinement studies rely on it).
    axes are the trailing array axes the grid occupies; shape is that of
    the grid samples and spec_shape that of a field's coefficients (the
    half spectrum in 2D), the layout whose tables the grid holds.
    """

    def __init__(self, n, dim=1):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        n = self.check_n(n)
        self.x = TWO_PI * np.arange(n) / n
        self.dx = TWO_PI / n
        self.kmax_dealias = n // 3
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, Nyquist at -n/2
        if dim == 1:
            super().__init__(n, (k,), (n,))
        else:
            super().__init__(n, (k[:, None], k[None, :n // 2 + 1]), (n, n // 2 + 1))

    def full_modes(self):
        """A new layout of the whole spectrum, which the grid does not keep:
        the layout a 2D noise field's components are given on, whose tables
        and symbols are built on it and die with it.  In 1D, the grid
        itself."""
        if not self.half:
            return self
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return _Modes(self.n, (k[:, None], k[None, :]), self.shape)

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
    """Zero coefficients of shape lead + grid.spec_shape."""
    return np.zeros(lead + grid.spec_shape, dtype=np.complex128)


def _forward(grid, values):
    # unnormalised coefficients of real samples, a fresh complex array; in
    # 2D rfftn's two passes, the real one along the last axis, then the
    # complex one along the first (in place); on a whole spectrum fftn
    if not grid.half:
        z = values.astype(np.complex128)
        return np.fft.fftn(z, s=grid.shape, axes=grid.axes, out=z)
    z = np.fft.rfft(values, axis=-1)
    return np.fft.fftn(z, axes=(-2,), out=z)


def _inverse(grid, z):
    # real samples of the unnormalised coefficients z, a fresh array that is
    # transformed in place; in 2D irfftn's two passes, the complex one along
    # the first axis, then the real one along the last; on a whole spectrum
    # ifftn
    if not grid.half:
        return np.real(np.fft.ifftn(z, s=grid.shape, axes=grid.axes, out=z))
    z = np.fft.ifftn(z, axes=(-2,), out=z)
    return np.fft.irfft(z, n=grid.n, axis=-1)


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
    z = _forward(grid, values)
    z /= grid.n_total
    return z


def to_grid(grid, c):
    """Real grid samples of the coefficients c, as a float ndarray."""
    z = np.multiply(c, grid.n_total)
    if not np.all(np.isfinite(z)):
        bad = int(np.count_nonzero(~np.isfinite(z)))
        raise ValueError("spectrum has %d non-finite coefficients" % bad)
    return _inverse(grid, z)


def _self_conjugate_columns(grid):
    # the half-spectrum columns k2 = 0 and -n/2, each of which holds the
    # conjugate -k of its every mode k: row k1 pairs with row -k1 mod n
    n = grid.n
    return (0, n // 2), -np.arange(n) % n


def full_spectrum(grid, c):
    """The coefficients c on the whole spectrum (Grid.full_modes()): a 2D
    field's columns k2 < 0 taken from conjugate symmetry, a 1D field as it
    is."""
    if not grid.half:
        return c
    n, h = grid.n, grid.n // 2 + 1
    out = np.empty(c.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = c
    # column j > n/2 holds k2 = j - n: the conjugate of column n - j at row
    # -k1 mod n (row 0 stays, rows 1..n-1 reverse)
    np.conjugate(c[..., :1, h - 2:0:-1], out=out[..., :1, h:])
    np.conjugate(c[..., :0:-1, h - 2:0:-1], out=out[..., 1:, h:])
    return out


def real_part(grid, c):
    """The half spectrum of the real part of the field sum_k c(k)exp(i*k.x),
    2D, with c given on the half spectrum's modes (the modes k2 < 0 absent):
    c/2, with the conjugate of c(-k)/2 added on the columns that hold their
    own conjugates.  So it is formed in coefficient space, exactly, with no
    transform."""
    if not grid.half:
        raise ValueError("real_part is 2D only")
    out = 0.5 * c
    columns, mirror = _self_conjugate_columns(grid)
    for j in columns:
        col = out[..., :, j]
        out[..., :, j] = col + np.conj(col[..., mirror])
    return out


def has_mean(grid, c):
    """True if some field's k = 0 coefficient exceeds round-off."""
    mean = np.abs(c[(Ellipsis,) + (0,) * grid.dim])
    # the tolerance is at least 1e-12, so a mean below that needs no pass
    # over the whole field
    return bool(np.any(mean > 1e-12) and np.any(mean > 1e-12 * (
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


def _counts(grid):
    """2D: how many modes of the whole spectrum each half-spectrum mode
    stands for, 2 (k and -k) off the columns k2 = 0 and -n/2 and 1 on
    them; a sum over the half spectrum weighs its terms by these."""
    def build():
        counts = 2.0 * np.ones(grid.spec_shape)
        counts[..., _self_conjugate_columns(grid)[0]] = 1.0
        return counts
    return _symbol(grid, ("counts",), build)


def _weight(grid, s, homogeneous=False, counted=False):
    """(1+|k|^2)^s, or |k|^(2s) with 0 on the mean mode if homogeneous;
    counted multiplies in _counts on a half spectrum (a norm's weight)."""
    counted = counted and grid.half
    key = ("weight", s, homogeneous, counted)
    w = grid._symbols.get(key)
    if w is not None:
        return w

    def build():
        if not homogeneous:
            w = (1.0 + grid.ksq) ** s
        else:
            w = np.zeros(grid.spec_shape)
            nz = grid.ksq > 0
            w[nz] = grid.ksq[nz] ** s
        return w * _counts(grid) if counted else w
    return _symbol(grid, key, build)


# ---------------------------------------------------------------------------
# multiplier operators

def bessel_multiplier(grid, c, s):
    """D^s: coeff(k) scaled by (1+|k|^2)^(s/2)."""
    return c * _weight(grid, 0.5 * s)


def derivative(grid, c, axis=0, out=None):
    """Spectral partial derivative along grid axis axis; the Nyquist mode is
    zeroed.  Written into out, if given, and returned."""
    sym = _symbol(grid, ("derivative", axis),
                  lambda: 1j * grid.k_axes[axis] * grid.not_nyquist)
    return np.multiply(c, sym, out=out)


def gradient(grid, c):
    """The derivatives along every grid axis, as a tuple."""
    return tuple(derivative(grid, c, axis) for axis in range(grid.dim))


def hilbert_transform(grid, c):
    """Periodic Hilbert transform, multiplier -i*sgn(k).  1D only."""
    if grid.dim != 1:
        raise ValueError("Hilbert transform is 1D only")
    return c * _symbol(grid, ("hilbert", 0),
                       lambda: -1j * np.sign(grid.k_axes[0]) * grid.not_nyquist)


def riesz_perp(grid, c, component=None, out=None):
    """u = R^perp(theta) = (R_2 theta, -R_1 theta) in 2D, as a tuple; with
    component = i, u_i alone, written into out if given and returned.

    The sign convention gives real, divergence-free output and maps
    theta = cos(x1) to u = (0, sin(x1)).  Requires a zero-mean input.
    """
    if grid.dim != 2:
        raise ValueError("Riesz transform is 2D only")
    if has_mean(grid, c):
        raise ValueError("riesz_perp needs a zero-mean field")
    if component is None:
        return riesz_component(grid, c, 1), -riesz_component(grid, c, 0)
    u = riesz_component(grid, c, 1 - component, out=out)
    return u if component == 0 else np.negative(u, out=u)


def riesz_component(grid, c, axis, out=None):
    """R_j theta with multiplier i*k_j/|k| (2D, zero mean in = zero mean
    out).  Written into out, if given, and returned."""
    sym = _symbol(grid, ("riesz", axis),
                  lambda: 1j * grid.k_axes[axis] * grid.inv_absk
                  * grid.not_nyquist)
    return np.multiply(c, sym, out=out)


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
    """Grid samples of the 2/3-band projection of c."""
    z = c * grid.dealias_keep
    z *= grid.n_total
    return _inverse(grid, z)


def _band_product(grid, values):
    # coefficients of band-sample products, cut back to the band
    z = _forward(grid, values)
    z /= grid.n_total
    z *= grid.dealias_keep
    return z


def dealiased_product(grid, f, g, dot=False):
    """Pointwise product with the 2/3 rule applied to inputs and output.

    The two factors take their samples from one inverse transform of their
    rows in one buffer (their leading axes may differ), so a product costs
    two transforms.  The buffer is the product's own: it is band-cut and
    transformed in place and freed before the samples are multiplied, in
    place; no array of the caller's is written.

    With dot=True, f and g hold the components of two vector fields along
    their first axis (f's shape), and the product is their dot product
    f_1*g_1 + f_2*g_2 + ..., summed on the grid before the one forward
    transform.  The pairs (f_i, g_i) are sampled together in one buffer
    where their rows fit STACK_BYTES (one inverse transform: u.grad(theta)
    takes two transforms at 64^2), and one at a time in a two-row buffer
    otherwise (d inverse transforms, and one pair's samples and the sum
    are all the samples held at once); each pair's product is added into
    one sum in component order, so both give the same bits.  A factor of a
    dot product is an array
    or a pair (shape, write) standing for an array of that shape whose
    component i write(i, out) writes into out, a row of the buffer (so
    sqg's transport term forms u_i and d_i theta in place there).
    """
    if dot:
        return _band_product(grid, _dot_values(grid, f, g))
    flead, glead = f.shape[:-grid.dim], g.shape[:-grid.dim]
    split = math.prod(flead)
    buf = np.empty((split + math.prod(glead),) + grid.spec_shape,
                   dtype=np.complex128)
    buf[:split].reshape(f.shape)[...] = f
    buf[split:].reshape(g.shape)[...] = g
    # band_values on the buffer, in place
    buf *= grid.dealias_keep
    buf *= grid.n_total
    v = _inverse(grid, buf)
    del buf     # in 2D the samples are a new array, and the buffer dies here
    fv = v[:split].reshape(flead + grid.shape)
    gv = v[split:].reshape(glead + grid.shape)
    del v
    prod = np.multiply(fv, gv, out=fv if fv.shape == gv.shape else None)
    del fv, gv
    return _band_product(grid, prod)


def _dot_values(grid, f, g):
    # the grid samples of sum_i f_i*g_i from the band-cut components: the
    # first pair's product is a fresh array, and each later one is formed
    # in its samples and added to it, as prod.sum(axis=0) adds the rows of
    # the products of all pairs.  Every pair is sampled in one transform
    # where their rows fit STACK_BYTES, one pair at a time otherwise
    shape = f[0] if isinstance(f, tuple) else f.shape
    pair = (2,) + shape[1:-grid.dim] + grid.spec_shape
    batch = shape[0] if shape[0] * 16 * math.prod(pair) <= STACK_BYTES else 1
    buf = np.empty((batch,) + pair, dtype=np.complex128)
    total = None
    for start in range(0, shape[0], batch):
        for i, rows in enumerate(buf, start):
            for factor, row in ((f, rows[0]), (g, rows[1])):
                if isinstance(factor, tuple):
                    factor[1](i, row)
                else:
                    row[...] = factor[i]
        buf *= grid.dealias_keep
        buf *= grid.n_total
        v = _inverse(grid, buf)
        for j in range(batch):
            if total is None:
                total = v[j, 0] * v[j, 1]
            else:
                total += np.multiply(v[j, 0], v[j, 1], out=v[j, 0])
        del v
    return total


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
    sum runs over the output modes of the half spectrum, reading a mode
    k - s with k2 - s2 < 0 as the conjugate of the held mode s - k; it
    agrees with the FFT route to round-off, not bit for bit.  factor may
    also be the StencilPlan of K stencils: then stacked_stencil_sum forms
    every field's product at once, field k on index k of c's first axis.
    """
    if grid.dim == 1:
        return _band_product(grid, factor * band_values(grid, c))
    kernel = stacked_stencil_sum if isinstance(factor, StencilPlan) \
        else stencil_sum
    return scatter_band(grid, kernel(grid, factor, gather_band(grid, c)))


def _band_parts(grid):
    # (block, coefficient index) slices along k1 of the band's wavenumbers
    # -K..-1 and 0..K, K = n//3
    n, K = grid.n, grid.kmax_dealias
    return ((slice(0, K), slice(n - K, n)),
            (slice(K, 2 * K + 1), slice(0, K + 1)))


def gather_band(grid, c):
    """The 2/3 band of the 2D half-spectrum coefficients c as one
    (2K+1, K+1) block, K = n//3: block row i holds k1 = i - K, column j
    holds k2 = j.  Leading axes pass through."""
    K = grid.kmax_dealias
    block = np.empty(c.shape[:-2] + (2 * K + 1, K + 1), dtype=np.complex128)
    for b1, f1 in _band_parts(grid):
        block[..., b1, :] = c[..., f1, :K + 1]
    return block


def stencil_sum(grid, stencil, block):
    """L_xi on a band block (see product_with_values): a fresh block,
    sum_s i*(a1*k1 + a2*k2) * block(k - s) over the stencil's entries.

    k and s in the band put k - s within 2K < n - K of the origin, so the
    FFT route's circular convolution wraps nothing into the band and each
    shift is a plain slice of the block.  Where k2 < s2, the mode k - s has
    k2 - s2 < 0 and is read as the conjugate of s - k, whose rows are
    those of the direct read mirrored (k1 -> s1 - k1) and whose columns are
    s2 - k2 = s2..1."""
    K = grid.kmax_dealias
    kb = np.arange(-K, K + 1.0)
    kh = kb[K:]
    acc = np.zeros(block.shape, dtype=np.complex128)
    for (s1, s2), (a1, a2) in stencil:
        (o1, i1), (o2, i2) = _overlap(s1, 2 * K + 1), _overlap(s2, K + 1)
        row = (1j * a1) * kb[o1, None]
        acc[..., o1, o2] += (row + (1j * a2) * kh[o2]) * block[..., i1, i2]
        if s2 > 0:
            acc[..., o1, :s2] += (row + (1j * a2) * kh[:s2]) * np.conj(
                block[..., o1, s2:0:-1][..., ::-1, :])
    return acc


class StencilPlan:
    """The stencils of K fields as one gather, for stacked_stencil_sum.

    Three arrays of shape (K, E, P), E the length of the longest stencil
    and P = (2B+1)(B+1) the size of a band block (gather_band, B = n//3),
    for each field k, entry e and output mode p of the block: index, where
    in the block with one zero slot appended (index P) entry e reads for p;
    conj, whether that read is the conjugate of a held mode (k2 < s2); and
    symbol, i*(a1*k1 + a2*k2) of p, formed as stencil_sum forms it.  A read
    outside the band and an entry past the end of a shorter stencil read
    the zero slot (the latter with a zero symbol)."""

    __slots__ = ("index", "conj", "symbol")

    @staticmethod
    def nbytes(grid, stencils):
        """The bytes of the plan of stencils on grid."""
        B = grid.kmax_dealias
        entries = len(stencils) * max(map(len, stencils), default=0)
        return entries * (2 * B + 1) * (B + 1) * (
            np.dtype(np.intp).itemsize + 1 + 16)


def stencil_plan(grid, stencils):
    """The StencilPlan of the stencils of K fields (each a tuple of
    (s, (a1, a2)), see product_with_values) on a 2D grid."""
    B = grid.kmax_dealias
    w1, w2 = 2 * B + 1, B + 1
    kb = np.arange(-B, B + 1.0)
    kh = kb[B:]
    r, j = np.arange(w1)[:, None], np.arange(w2)
    shape = (len(stencils), max(map(len, stencils), default=0), w1, w2)
    plan = StencilPlan()
    plan.index = np.full(shape, w1 * w2, dtype=np.intp)
    plan.conj = np.zeros(shape, dtype=bool)
    plan.symbol = np.zeros(shape, dtype=np.complex128)
    for k, stencil in enumerate(stencils):
        for e, ((s1, s2), (a1, a2)) in enumerate(stencil):
            # the rows that stencil_sum's overlap of s1 keeps, and in them
            # the direct reads of k - s and the mirrored reads of s - k
            rows = (r >= s1) & (r < w1 + s1)
            direct = rows & (j >= s2) & (j < w2 + s2)
            mirrored = rows & (j < s2)
            index = plan.index[k, e]
            index[direct] = ((r - s1) * w2 + (j - s2))[direct]
            index[mirrored] = ((2 * B + s1 - r) * w2 + (s2 - j))[mirrored]
            plan.conj[k, e] = mirrored
            row = (1j * a1) * kb[:, None]
            plan.symbol[k, e] = row + (1j * a2) * kh
    for name in StencilPlan.__slots__:
        table = getattr(plan, name).reshape(shape[:2] + (w1 * w2,))
        table.flags.writeable = False
        setattr(plan, name, table)
    return plan


def stacked_stencil_sum(grid, plan, block):
    """stencil_sum of every field of a StencilPlan in one pass: field k acts
    on index k of block's first axis, which has length K or 1 (then every
    field acts on the same block); the result has K rows on that axis.

    Each entry's terms are gathered for every output mode at once, read as
    conjugates where the plan says, multiplied as symbol * value and added
    into a block of zeros in entry order, so each row is stencil_sum's
    bit for bit: the terms of the zero slot are zeros, and a sum that
    starts from +0 never holds -0, so adding a zero leaves it unchanged."""
    K, E, P = plan.index.shape
    lead = block.shape[:-2]
    rows = math.prod(lead[1:])
    src = np.zeros((lead[0] * rows, P + 1), dtype=np.complex128)
    src[:, :P] = block.reshape(-1, P)
    index = plan.index[:, :, None, :]
    if len(src) > 1:
        # where in src the row that field k reads for input row r (a row
        # of the axes after the first) starts
        field = np.arange(K) if lead[0] == K else np.zeros(K, dtype=np.intp)
        start = (field[:, None] * rows + np.arange(rows)) * (P + 1)
        index = index + start[:, None, :, None]
    terms = src.ravel().take(index)
    np.conjugate(terms, out=terms, where=plan.conj[:, :, None, :])
    np.multiply(plan.symbol[:, :, None, :], terms, out=terms)
    acc = np.zeros((K, rows, P), dtype=np.complex128)
    for e in range(E):
        acc += terms[:, e]
    return acc.reshape((K,) + block.shape[1:])


def scatter_band(grid, block):
    """The half-spectrum coefficients whose 2/3 band is block
    (gather_band's layout), zero outside the band."""
    K = grid.kmax_dealias
    out = zero_field(grid, *block.shape[:-2])
    for b1, f1 in _band_parts(grid):
        out[..., f1, :K + 1] = block[..., b1, :]
    return out


# ---------------------------------------------------------------------------
# norms and inner products, reduced over the grid axes

def sobolev_norm(grid, c, s):
    """||c||_{H^s} = sqrt(sum_k (1+|k|^2)^s |coeff(k)|^2)."""
    w = _weight(grid, s, counted=True)
    return _scalar(np.sqrt((w * np.abs(c) ** 2).sum(axis=grid.axes)))


def homogeneous_norm(grid, c, s):
    """||Lambda^s c||_{L2} for mean-zero c (the k = 0 term is dropped)."""
    w = _weight(grid, s, homogeneous=True, counted=True)
    return _scalar(np.sqrt((w * np.abs(c) ** 2).sum(axis=grid.axes)))


def _inner(grid, f, g, s, homogeneous):
    # sum over the grid axes of w * Re(f * conj(g)); in 2D a real sum over
    # the interleaved real and imaginary parts, whose products fr*gr + fi*gi
    # are the real part, against w repeated per pair (no complex product)
    w = _weight(grid, s, homogeneous, counted=True)
    if grid.dim == 1:
        return _scalar((w * f * np.conj(g)).sum(axis=grid.axes).real)
    w2 = _symbol(grid, ("interleaved weight", s, homogeneous),
                 lambda: np.repeat(w, 2, axis=-1))
    prod = np.ascontiguousarray(f).view(np.float64) \
        * np.ascontiguousarray(g).view(np.float64)
    prod *= w2
    return _scalar(prod.sum(axis=grid.axes))


def hs_inner(grid, f, g, s):
    return _inner(grid, f, g, s, False)


def homogeneous_inner(grid, f, g, s):
    return _inner(grid, f, g, s, True)


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


def within_bound(bound, limit):
    """bound(1 + 1e-9) <= limit: a coefficient bound (lipschitz_bound)
    decides value <= limit, with a margin for the value's round-off."""
    return bound * (1.0 + 1e-9) <= limit


def lipschitz_bound(grid, c):
    """sum over every row and mode of (1+|k|)|coeff(k)|, as a float, with
    no transform: it bounds sup|f| + sup|grad f| of each row f, summed over
    the rows, since |f(x)| <= sum_k |coeff(k)| and grad has the symbol i*k."""
    def build():
        w = 1.0 + np.sqrt(grid.ksq)
        return w * _counts(grid) if grid.half else w
    w = _symbol(grid, ("lipschitz_bound",), build)
    return float(np.sum(np.abs(c) * w))
