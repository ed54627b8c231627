"""FFT-backed fields and Fourier-multiplier operators on the periodic torus.

All fields live on a uniform grid over [0, 2*pi)^dim with nodes
x_j = 2*pi*j/n.  Spectral coefficients are normalised so that the field
c*exp(i*k.x) has coeff(k) = c; with that convention the discrete L2 inner
product (mean of the pointwise product over the grid) equals the spectral
inner product sum_k f(k)*conj(g(k)), and the H^s norm is

    ||f||_{H^s}^2 = sum_k (1+|k|^2)^s |coeff(k)|^2.

Multiplier operators provided here: the Bessel potential D^s with symbol
(1+|k|^2)^(s/2), the homogeneous power Lambda^s with symbol |k|^s, the
periodic Hilbert transform (1D), the perpendicular Riesz transform (2D),
the bump mollifier J_eps and the Helmholtz mollifier (1-eps^2*Lap)^(-1).
Pointwise products of fields are always dealiased with the 2/3 rule.

Everything here is a pure function over immutable field values; the grid
object carries the precomputed wavenumber meshes and masks.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


class Grid:
    """Uniform periodic grid, n points per axis, domain length 2*pi per axis.

    n must be an even power of two (dyadic refinement studies rely on it).
    """

    def __init__(self, n, dim=1):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2, got %r" % (dim,))
        n = self.check_n(n)
        self.n = n
        self.dim = dim
        self.shape = (n,) * dim
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

    @staticmethod
    def check_n(n):
        """n as an int; rejects anything but a power of two >= 8."""
        n = int(n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 8, got %r" % (n,))
        return n

    def compatible(self, other):
        return self.n == other.n and self.dim == other.dim

    def nodes(self):
        """Coordinate arrays of the grid nodes (meshgrid in 2D)."""
        if self.dim == 1:
            return (self.x,)
        return np.meshgrid(self.x, self.x, indexing="ij")

    def __repr__(self):
        return "Grid(n=%d, dim=%d)" % (self.n, self.dim)


def _require_same_grid(a, b):
    if not a.grid.compatible(b.grid):
        raise ValueError("grid mismatch: %r vs %r" % (a.grid, b.grid))


class SpectralField:
    """Complex Fourier coefficients of a real field, numpy fft layout.

    coeff(k) = c for the field c*exp(i*k.x); Hermitian symmetry
    coeff(-k) = conj(coeff(k)) holds because the field is real.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.shape:
            raise ValueError("coeffs shape %r does not match grid %r"
                             % (coeffs.shape, grid))
        self.grid = grid
        self.coeffs = coeffs

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def mean(self):
        idx = (0,) * self.grid.dim
        return float(self.coeffs[idx].real)

    # value-like arithmetic; fields are never mutated in place
    def __add__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a):
        return SpectralField(self.grid, self.coeffs * a)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def from_values(grid, values):
    """Forward transform of real grid samples; rejects a wrong shape and
    non-finite input with a diagnostic."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ValueError("values shape %r does not match grid %r"
                         % (values.shape, grid))
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError("field has %d non-finite values" % bad)
    return SpectralField(grid, np.fft.fftn(values) / grid.n_total)


def to_grid(F):
    """Real grid samples of F, as an ndarray of shape grid.shape."""
    if not np.all(np.isfinite(F.coeffs)):
        bad = int(np.count_nonzero(~np.isfinite(F.coeffs)))
        raise ValueError("spectrum has %d non-finite coefficients" % bad)
    return np.real(np.fft.ifftn(F.coeffs * F.grid.n_total))


def hermitian_defect(F):
    """Max |coeff(-k) - conj(coeff(k))|; ~1e-16 for transforms of real data."""
    c = F.coeffs
    flipped = np.conj(c[tuple(np.s_[::-1] for _ in range(F.grid.dim))])
    flipped = np.roll(flipped, 1, axis=tuple(range(F.grid.dim)))
    return float(np.max(np.abs(c - flipped)))


# ---------------------------------------------------------------------------
# multiplier operators

def apply_multiplier(F, mult):
    return SpectralField(F.grid, F.coeffs * mult)


def bessel_multiplier(F, s):
    """D^s: coeff(k) scaled by (1+|k|^2)^(s/2)."""
    return apply_multiplier(F, (1.0 + F.grid.ksq) ** (0.5 * s))


def homogeneous_multiplier(F, s):
    """Lambda^s: coeff(k) scaled by |k|^s; undefined on the mean for s < 0."""
    g = F.grid
    if s == 0:
        return F.copy()
    zero = (0,) * g.dim
    if s < 0 and abs(F.coeffs[zero]) > 1e-12 * (1.0 + np.max(np.abs(F.coeffs))):
        raise ValueError("Lambda^s with s < 0 needs a zero-mean field")
    absk = np.sqrt(g.ksq)
    mult = np.zeros(g.shape)
    nz = absk > 0
    mult[nz] = absk[nz] ** s
    return apply_multiplier(F, mult)


def derivative(F, axis=0):
    """Spectral partial derivative; the Nyquist mode is zeroed."""
    g = F.grid
    return apply_multiplier(F, 1j * g.k_axes[axis] * g.not_nyquist)


def gradient(F):
    return tuple(derivative(F, axis) for axis in range(F.grid.dim))


def hilbert_transform(F):
    """Periodic Hilbert transform, multiplier -i*sgn(k).  1D only."""
    g = F.grid
    if g.dim != 1:
        raise ValueError("Hilbert transform is 1D only")
    return apply_multiplier(F, -1j * np.sign(g.k_axes[0]) * g.not_nyquist)


def riesz_perp(F):
    """u = R^perp(theta) = (R_2 theta, -R_1 theta) in 2D.

    The sign convention gives real, divergence-free output and maps
    theta = cos(x1) to u = (0, sin(x1)).  Requires a zero-mean input.
    """
    g = F.grid
    if g.dim != 2:
        raise ValueError("Riesz transform is 2D only")
    if abs(F.coeffs[0, 0]) > 1e-12 * (1.0 + np.max(np.abs(F.coeffs))):
        raise ValueError("riesz_perp needs a zero-mean field")
    return riesz_component(F, 1), -riesz_component(F, 0)


def riesz_component(F, axis):
    """R_j theta with multiplier i*k_j/|k| (2D, zero mean in = zero mean out)."""
    g = F.grid
    return apply_multiplier(F, 1j * g.k_axes[axis] * g.inv_absk * g.not_nyquist)


def _bump(r):
    # smooth compactly supported profile: 1 on [0,1], 0 outside [0,2)
    out = np.ones_like(r)
    mid = (r > 1.0) & (r < 2.0)
    rm = r[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - rm * rm))
    out[r >= 2.0] = 0.0
    return out


def mollifier_symbol(grid, eps):
    if not 0.0 < eps < 1.0:
        raise ValueError("mollifier parameter eps must lie in (0,1), got %r" % (eps,))
    return _bump(eps * np.sqrt(grid.ksq))


def mollify_j(F, eps):
    """Bump mollifier J_eps: coeff(k) scaled by jhat(eps*|k|).

    jhat equals 1 on |xi| <= 1, so J_eps is the identity on fields
    bandlimited below 1/eps, and 0 <= jhat <= 1 everywhere.
    """
    return apply_multiplier(F, mollifier_symbol(F.grid, eps))


def mollify_helmholtz(F, eps):
    """Helmholtz mollifier (1 - eps^2*Lap)^(-1); self-adjoint in L2.

    eps in (0, 1]: the family parameter is (0,1) but the operator itself is
    well defined at eps = 1, which the closed-form checks use.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("helmholtz mollifier needs eps in (0,1], got %r" % (eps,))
    return apply_multiplier(F, 1.0 / (1.0 + (eps * eps) * F.grid.ksq))


# ---------------------------------------------------------------------------
# dealiased products

def band_values(F):
    """Grid samples of the 2/3-band projection of F."""
    g = F.grid
    return np.real(np.fft.ifftn(F.coeffs * g.dealias_keep * g.n_total))


def band_support(F, tol):
    """In-band Fourier support of F: a tuple of (shift, coeff) pairs.

    shift is the index tuple of a 2/3-band mode with |coeff| > tol; the
    pairs are what product_with_values convolves with.
    """
    c = F.coeffs
    idx = np.nonzero(F.grid.dealias_keep & (np.abs(c) > tol))
    return tuple((tuple(int(i) for i in mode), complex(c[mode]))
                 for mode in zip(*idx))


def dealiased_product(F, G):
    """Pointwise product with the 2/3 rule applied to inputs and output."""
    _require_same_grid(F, G)
    g = F.grid
    prod = band_values(F) * band_values(G)
    return SpectralField(g, (np.fft.fftn(prod) / g.n_total) * g.dealias_keep)


def product_with_values(factor, G):
    """Dealiased product of a cached factor with G; factor is either form.

    Band samples (an ndarray from band_values): multiply on the grid and
    transform back, as dealiased_product does.  A support (the tuple from
    band_support): the exact circular convolution
    keep * sum_j c_j * roll(keep * G, shift_j), which is what the FFT route
    computes, with no transform.  Its cost is one roll per support entry,
    so it pays for the few-mode noise fields; it reads G's coefficients
    directly, so G must be Hermitian (the FFT route projects onto real
    fields).  Both forms agree to round-off, but not bit for bit.
    """
    g = G.grid
    if isinstance(factor, np.ndarray):
        prod = factor * band_values(G)
        return SpectralField(g, (np.fft.fftn(prod) / g.n_total) * g.dealias_keep)
    if not factor:
        return zero_field(g)
    band = G.coeffs * g.dealias_keep
    axes = tuple(range(g.dim))
    out = np.zeros(g.shape, dtype=np.complex128)
    for shift, c in factor:
        out += c * np.roll(band, shift, axis=axes)
    out *= g.dealias_keep
    return SpectralField(g, out)


# ---------------------------------------------------------------------------
# norms and inner products

def sobolev_norm(F, s):
    """||F||_{H^s} = sqrt(sum_k (1+|k|^2)^s |coeff(k)|^2)."""
    w = (1.0 + F.grid.ksq) ** s
    return float(np.sqrt(np.sum(w * np.abs(F.coeffs) ** 2)))


def homogeneous_norm(F, s):
    """||Lambda^s F||_{L2} for mean-zero F (the k = 0 term is dropped)."""
    g = F.grid
    absk2 = g.ksq
    w = np.zeros(g.shape)
    nz = absk2 > 0
    w[nz] = absk2[nz] ** s
    return float(np.sqrt(np.sum(w * np.abs(F.coeffs) ** 2)))


def hs_inner(F, G, s):
    _require_same_grid(F, G)
    w = (1.0 + F.grid.ksq) ** s
    return float(np.real(np.sum(w * F.coeffs * np.conj(G.coeffs))))


def homogeneous_inner(F, G, s):
    _require_same_grid(F, G)
    g = F.grid
    w = np.zeros(g.shape)
    nz = g.ksq > 0
    w[nz] = g.ksq[nz] ** s
    return float(np.real(np.sum(w * F.coeffs * np.conj(G.coeffs))))


def l2_inner(F, G):
    return hs_inner(F, G, 0.0)


def l2_norm(F):
    return sobolev_norm(F, 0.0)


def grid_inner(f, g):
    """Discrete L2 inner product of grid samples: mean of the pointwise product."""
    if f.shape != g.shape:
        raise ValueError("grid samples of shape %r vs %r" % (f.shape, g.shape))
    return float(np.mean(f * g))


def sup_norm(F):
    return float(np.max(np.abs(to_grid(F))))


def lipschitz_norm(F):
    """Discrete W^{1,inf} surrogate: sup|f| + sup|grad f| on the grid nodes."""
    vals = to_grid(F)
    if F.grid.dim == 1:
        dv = to_grid(derivative(F, 0))
        return float(np.max(np.abs(vals)) + np.max(np.abs(dv)))
    d1 = to_grid(derivative(F, 0))
    d2 = to_grid(derivative(F, 1))
    return float(np.max(np.abs(vals)) + np.max(np.sqrt(d1 * d1 + d2 * d2)))
