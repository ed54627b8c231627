"""Frozen reference copy of the model operators before they shared one core.

The operator methods of Sch2Ops, CcfOps and SqgOps are kept here verbatim
(norms left out) so that tests can check the shared-core implementation in
saltpde.models against them bit for bit.  step_strat_heun is the Heun step
as it was when it evaluated h_eps_k(X, k) twice per noise index, and
step_ito_em the Euler-Maruyama step as it was when it evaluated one
h_eps_k(X, k) per noise index.
fft_lie_derivative is L_xi as it was when every product went through the
FFTs against 2/3-band grid samples of xi's factors (band_values and
product_with_values below are that route's helpers, verbatim).  Do not
edit: this file is the oracle, not a second implementation to maintain.

The bodies work on SpectralField values, the field wrapper the package had
before its fields became plain coefficient arrays; that class and the
spectral helpers the bodies call are kept below verbatim as well.  Only
the boundary adapts: package states go in (operator()), checked states
that add (as the parent's did) and coefficient arrays come out, and the
package's lie_derivative is called through a wrapper.  xi_helpers.fft_lie
hands fft_lie_derivative the arrays a field was built from.

The bodies work on the whole spectrum, as the package did before a 2D
field became its half spectrum.  So on a 2D grid the boundary also hands
the bodies parent_grid(grid), the parent's Grid (the wavenumber tables of
the whole n x n spectrum), and package states on their whole spectrum
(full_spectrum); and the lie_derivative wrapper runs the parent's 2D L_xi,
its stencil sum on the whole spectrum (kept below verbatim), on the
stencil of the package's field.

concat_dealiased_product and concat_sqg_transport are the package's
dealiased_product and SqgOps._transport (on half spectra) as they were
when the product concatenated its two factors' rows into a third array
and the sqg transport term stacked u and grad(theta) first; the transform
helpers they call are kept with them, verbatim.
"""

import itertools
import math
import types

import numpy as np

from saltpde import lie as _lie
from saltpde import models as _models
from saltpde.solver import chi_cutoff
from saltpde.spectral import full_spectrum


# ---------------------------------------------------------------------------
# the parent's spectral layer, verbatim

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


def apply_multiplier(F, mult):
    return SpectralField(F.grid, F.coeffs * mult)


def derivative(F, axis=0):
    """Spectral partial derivative; the Nyquist mode is zeroed."""
    g = F.grid
    return apply_multiplier(F, 1j * g.k_axes[axis] * g.not_nyquist)


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


def band_values(F):
    """Grid samples of the 2/3-band projection of F."""
    g = F.grid
    return np.real(np.fft.ifftn(F.coeffs * g.dealias_keep * g.n_total))


def dealiased_product(F, G):
    """Pointwise product with the 2/3 rule applied to inputs and output."""
    _require_same_grid(F, G)
    g = F.grid
    prod = band_values(F) * band_values(G)
    return SpectralField(g, (np.fft.fftn(prod) / g.n_total) * g.dealias_keep)


def product_with_values(values_banded, G):
    """Product against precomputed band-limited grid samples (cached factor)."""
    g = G.grid
    prod = values_banded * band_values(G)
    return SpectralField(g, (np.fft.fftn(prod) / g.n_total) * g.dealias_keep)


# ---------------------------------------------------------------------------
# boundary adapters

class _ParentGrid:
    """The parent's 2D Grid: a package grid's attributes, with the
    wavenumber tables of its whole n x n spectrum (Grid.full_modes())."""

    def __init__(self, grid):
        self.grid = grid
        for name in ("n", "dim", "shape", "axes", "n_total", "x", "dx",
                     "kmax_dealias"):
            setattr(self, name, getattr(grid, name))
        full = grid.full_modes()
        self.k_axes, self.ksq, self.inv_absk = full.k_axes, full.ksq, full.inv_absk
        self.dealias_keep, self.not_nyquist = full.dealias_keep, full.not_nyquist

    def compatible(self, other):
        return self.n == other.n and self.dim == other.dim


def parent_grid(grid):
    """The grid the frozen bodies take: a 1D package grid as it is, a 2D one
    as the parent's whole-spectrum Grid."""
    return grid if grid.dim == 1 else _ParentGrid(grid)


def _package_grid(grid):
    return getattr(grid, "grid", grid)


class _StateView:
    """A package state seen through the parent's SpectralField row views."""

    def __init__(self, X):
        self.kind, self.grid = X.kind, parent_grid(X.grid)
        self.coeffs = full_spectrum(X.grid, X.coeffs)

    @property
    def fields(self):
        return tuple(SpectralField(self.grid, c) for c in self.coeffs)

    @property
    def u(self):
        return SpectralField(self.grid, self.coeffs[0])

    theta = u

    @property
    def eta(self):
        return SpectralField(self.grid, self.coeffs[1])


class _State:
    """A checked package state as the parent's ModelState held it: kind,
    grid and coeffs, and + of two states of one kind, which the bodies of
    g and g_eps use."""

    def __init__(self, kind, grid, coeffs):
        # the package checks the half spectrum; the state keeps the whole
        pkg = _package_grid(grid)
        state = _models.ModelState(kind, pkg, coeffs[..., :pkg.spec_shape[-1]])
        self.kind, self.grid = state.kind, grid
        self.coeffs = np.array(coeffs, dtype=np.complex128)

    def __add__(self, other):
        if other.kind != self.kind:
            raise _wrong_variant(self.kind, other.kind)
        return _State(self.kind, self.grid, self.coeffs + other.coeffs)


def ModelState(kind, fields):
    """The parent's ModelState(kind, fields), building a state that adds."""
    return _State(kind, fields[0].grid, np.stack([f.coeffs for f in fields]))


def lie_derivative(xi, F):
    if F.grid.dim == 2:
        return SpectralField(F.grid, _parent_lie_2d(F.grid, xi._stencil, F.coeffs))
    return SpectralField(F.grid, _lie.lie_derivative(xi, F.coeffs))


def lie_second(xi, F):
    if F.grid.dim == 2:
        return lie_derivative(xi, lie_derivative(xi, F))
    return SpectralField(F.grid, _lie.lie_second(xi, F.coeffs))


# the parent's 2D L_xi (spectral.product_with_values and its three steps on
# the whole spectrum), verbatim

def _overlap(s, w):
    """(output, input) slices of the rows i and i - s that both lie in
    range(w): a shift by s with nothing wrapped around."""
    return slice(max(0, s), w + min(0, s)), slice(max(0, -s), w - max(0, s))


def _band_parts(grid):
    # (block, fft index) slices along one axis of the band's wavenumbers
    # -K..-1 and 0..K, K = n//3
    n, K = grid.n, grid.kmax_dealias
    return ((slice(0, K), slice(n - K, n)),
            (slice(K, 2 * K + 1), slice(0, K + 1)))


def gather_band(grid, c):
    w = 2 * grid.kmax_dealias + 1
    block = np.empty(c.shape[:-2] + (w, w), dtype=np.complex128)
    for (b1, f1), (b2, f2) in itertools.product(_band_parts(grid), repeat=2):
        block[..., b1, b2] = c[..., f1, f2]
    return block


def stencil_sum(grid, stencil, block):
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
    out = np.zeros(block.shape[:-2] + grid.shape, dtype=np.complex128)
    for (b1, f1), (b2, f2) in itertools.product(_band_parts(grid), repeat=2):
        out[..., f1, f2] = block[..., b1, b2]
    return out


def _parent_lie_2d(grid, stencil, c):
    return scatter_band(grid, stencil_sum(grid, stencil, gather_band(grid, c)))


# the bodies call the multiplier as sp.apply_multiplier
sp = types.SimpleNamespace(apply_multiplier=apply_multiplier)


def operator(oracle, name, X, *args):
    """oracle.name(X, *args) for a package state X, as a package state."""
    return getattr(oracle, name)(_StateView(X), *args)


# ---------------------------------------------------------------------------
# the frozen operators

def fft_lie_derivative(xi, F):
    """L_xi F = xi.grad(F) + div(xi)*F with dealiased products."""
    comp_band = tuple(band_values(c) for c in xi.components)
    div_band = band_values(xi.divergence)
    out = product_with_values(comp_band[0], derivative(F, 0))
    for axis in range(1, F.grid.dim):
        out = out + product_with_values(comp_band[axis], derivative(F, axis))
    return out + product_with_values(div_band, F)


def _wrong_variant(expected, got):
    return ValueError("expected a %s state, got %s" % (expected, got))


class Sch2Ops:
    """Two-component CH splitting.

    b(u,eta) = (-dx D^-2(u^2 + u_x^2/2 + eta^2/2), -eta*u_x)
    g        = (-u*u_x + D^-2 sum L^2(D^2 u)/2,  -u*eta_x + sum L^2(eta)/2)
    h^k      = (-D^-2 L_k(D^2 u), -L_k(eta))
    """

    kind = "sch2"

    def __init__(self, grid, s, basis, eps):
        if grid.dim != 1:
            raise ValueError("sch2 lives on the 1D torus")
        self.grid = grid
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)
        self._d2 = 1.0 + grid.ksq          # D^2 symbol
        self._d2inv = 1.0 / self._d2

    # -- symbol helpers
    def _J(self, F):
        return sp.apply_multiplier(F, self._jhat)

    def _J3(self, F):
        return sp.apply_multiplier(F, self._jhat ** 3)

    def _D2(self, F):
        return sp.apply_multiplier(F, self._d2)

    def _D2inv(self, F):
        return sp.apply_multiplier(F, self._d2inv)

    # -- drift/diffusion splitting
    def b(self, X):
        self._check(X)
        u, eta = X.fields
        ux = derivative(u)
        q = dealiased_product(u, u) + 0.5 * dealiased_product(ux, ux) \
            + 0.5 * dealiased_product(eta, eta)
        G = derivative(self._D2inv(q))
        return ModelState("sch2", (-1.0 * G, -1.0 * dealiased_product(eta, ux)))

    def g_transport(self, X):
        self._check(X)
        u, eta = X.fields
        return ModelState("sch2", (
            -1.0 * dealiased_product(u, derivative(u)),
            -1.0 * dealiased_product(u, derivative(eta))))

    def ito_correction(self, X):
        self._check(X)
        u, eta = X.fields
        d2u = self._D2(u)
        acc_u = zero_field(self.grid)
        acc_e = zero_field(self.grid)
        for xi in self.basis.xis:
            acc_u = acc_u + lie_second(xi, d2u)
            acc_e = acc_e + lie_second(xi, eta)
        return ModelState("sch2", (0.5 * self._D2inv(acc_u), 0.5 * acc_e))

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        self._check(X)
        xi = self._xi(k)
        u, eta = X.fields
        return ModelState("sch2", (
            -1.0 * self._D2inv(lie_derivative(xi, self._D2(u))),
            -1.0 * lie_derivative(xi, eta)))

    # -- mollified family
    def g_eps_transport(self, X):
        self._check(X)
        ju = self._J(X.u)
        jeta = self._J(X.eta)
        return ModelState("sch2", (
            -1.0 * self._J(dealiased_product(ju, derivative(ju))),
            -1.0 * self._J(dealiased_product(ju, derivative(jeta)))))

    def ito_correction_eps(self, X):
        self._check(X)
        d2ju = self._D2(self._J(X.u))
        jeta = self._J(X.eta)
        acc_u = zero_field(self.grid)
        acc_e = zero_field(self.grid)
        for xi in self.basis.xis:
            acc_u = acc_u + lie_second(xi, d2ju)
            acc_e = acc_e + lie_second(xi, jeta)
        return ModelState("sch2", (0.5 * self._J3(self._D2inv(acc_u)),
                                   0.5 * self._J3(acc_e)))

    def g_eps(self, X):
        return self.g_eps_transport(X) + self.ito_correction_eps(X)

    def h_eps_k(self, X, k):
        self._check(X)
        xi = self._xi(k)
        return ModelState("sch2", (
            -1.0 * self._J(self._D2inv(lie_derivative(xi, self._D2(self._J(X.u))))),
            -1.0 * self._J(lie_derivative(xi, self._J(X.eta)))))

    def _xi(self, k):
        if not 0 <= k < self.basis.K:
            raise ValueError("noise index %d out of range (K=%d)" % (k, self.basis.K))
        return self.basis.xis[k]

    def _check(self, X):
        if X.kind != "sch2":
            raise _wrong_variant("sch2", X.kind)


class CcfOps:
    """Nonlocal transport splitting: b = 0, g = -(H theta) theta_x + noise."""

    kind = "ccf"

    def __init__(self, grid, s, basis, eps):
        if grid.dim != 1:
            raise ValueError("ccf lives on the 1D torus")
        self.grid = grid
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)

    def _J(self, F):
        return sp.apply_multiplier(F, self._jhat)

    def _J3(self, F):
        return sp.apply_multiplier(F, self._jhat ** 3)

    def b(self, X):
        self._check(X)
        return ModelState("ccf", (zero_field(self.grid),))

    def g_transport(self, X):
        self._check(X)
        th = X.theta
        return ModelState("ccf", (
            -1.0 * dealiased_product(hilbert_transform(th), derivative(th)),))

    def ito_correction(self, X):
        self._check(X)
        acc = zero_field(self.grid)
        for xi in self.basis.xis:
            acc = acc + lie_second(xi, X.theta)
        return ModelState("ccf", (0.5 * acc,))

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        self._check(X)
        return ModelState("ccf", (-1.0 * lie_derivative(self._xi(k), X.theta),))

    def g_eps_transport(self, X):
        self._check(X)
        jth = self._J(X.theta)
        return ModelState("ccf", (
            -1.0 * self._J(dealiased_product(hilbert_transform(jth),
                                             derivative(jth))),))

    def ito_correction_eps(self, X):
        self._check(X)
        jth = self._J(X.theta)
        acc = zero_field(self.grid)
        for xi in self.basis.xis:
            acc = acc + lie_second(xi, jth)
        return ModelState("ccf", (0.5 * self._J3(acc),))

    def g_eps(self, X):
        return self.g_eps_transport(X) + self.ito_correction_eps(X)

    def h_eps_k(self, X, k):
        self._check(X)
        return ModelState("ccf", (
            -1.0 * self._J(lie_derivative(self._xi(k), self._J(X.theta))),))

    def _xi(self, k):
        if not 0 <= k < self.basis.K:
            raise ValueError("noise index %d out of range (K=%d)" % (k, self.basis.K))
        return self.basis.xis[k]

    def _check(self, X):
        if X.kind != "ccf":
            raise _wrong_variant("ccf", X.kind)


class SqgOps:
    """SALT SQG splitting on the 2D torus, mean-zero theta, u = R-perp(theta).

    Norms are homogeneous (Lambda^s based), which is where the model's
    solution space lives.
    """

    kind = "sqg"

    def __init__(self, grid, s, basis, eps):
        if grid.dim != 2:
            raise ValueError("sqg lives on the 2D torus")
        self.grid = grid
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)
        for xi in basis.xis:
            if xi.max_divergence > 1e-12:
                raise ValueError("sqg needs a divergence-free noise basis")

    def _J(self, F):
        return sp.apply_multiplier(F, self._jhat)

    def _J3(self, F):
        return sp.apply_multiplier(F, self._jhat ** 3)

    def b(self, X):
        self._check(X)
        return ModelState("sqg", (zero_field(self.grid),))

    def _advection(self, th):
        u1, u2 = riesz_perp(th)
        return dealiased_product(u1, derivative(th, 0)) \
            + dealiased_product(u2, derivative(th, 1))

    def g_transport(self, X):
        self._check(X)
        return ModelState("sqg", (-1.0 * self._advection(X.theta),))

    def ito_correction(self, X):
        self._check(X)
        acc = zero_field(self.grid)
        for xi in self.basis.xis:
            acc = acc + lie_second(xi, X.theta)
        return ModelState("sqg", (0.5 * acc,))

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        self._check(X)
        return ModelState("sqg", (-1.0 * lie_derivative(self._xi(k), X.theta),))

    def g_eps_transport(self, X):
        self._check(X)
        jth = self._J(X.theta)
        return ModelState("sqg", (-1.0 * self._J(self._advection(jth)),))

    def ito_correction_eps(self, X):
        self._check(X)
        jth = self._J(X.theta)
        acc = zero_field(self.grid)
        for xi in self.basis.xis:
            acc = acc + lie_second(xi, jth)
        return ModelState("sqg", (0.5 * self._J3(acc),))

    def g_eps(self, X):
        return self.g_eps_transport(X) + self.ito_correction_eps(X)

    def h_eps_k(self, X, k):
        self._check(X)
        return ModelState("sqg", (
            -1.0 * self._J(lie_derivative(self._xi(k), self._J(X.theta))),))

    def _xi(self, k):
        if not 0 <= k < self.basis.K:
            raise ValueError("noise index %d out of range (K=%d)" % (k, self.basis.K))
        return self.basis.xis[k]

    def _check(self, X):
        if X.kind != "sqg":
            raise _wrong_variant("sqg", X.kind)


def step_strat_heun(X, ops, dw, dt, R):
    """Heun (midpoint-predictor) step of the cut-off Stratonovich form.

    Uses the transport drift only; the Ito correction is generated by the
    scheme itself, which is exactly what the cross-validation against
    step_ito_em exercises.
    """
    def drift(Y):
        chi = chi_cutoff(ops.v_norm(Y), R)
        return (chi * chi) * (ops.b(Y) + ops.g_eps_transport(Y)), chi

    f0, chi0 = drift(X)
    pred = X + dt * f0
    for k in range(len(dw)):
        if dw[k] != 0.0:
            pred = pred + (chi0 * dw[k]) * ops.h_eps_k(X, k)

    f1, chi1 = drift(pred)
    out = X + (0.5 * dt) * (f0 + f1)
    for k in range(len(dw)):
        if dw[k] != 0.0:
            out = out + (0.5 * dw[k]) * (chi0 * ops.h_eps_k(X, k)
                                         + chi1 * ops.h_eps_k(pred, k))
    return out


def step_ito_em(X, ops, dw, dt, R, v=None):
    """One Euler-Maruyama step of the cut-off Ito-form problem.

    dw holds the Brownian increments of this step (one per noise index).
    v is ops.v_norm(X) if the caller already holds it (computed if None).
    A state with chi_R = 0 (V-norm beyond 2R) is an exact fixed point.
    """
    chi = chi_cutoff(ops.v_norm(X) if v is None else v, R)
    if chi == 0.0:
        return X
    drift = ops.b(X) + ops.g_eps(X)
    out = X + (chi * chi * dt) * drift
    for k in range(len(dw)):
        if dw[k] != 0.0:
            out = out + (chi * dw[k]) * ops.h_eps_k(X, k)
    return out


# ---------------------------------------------------------------------------
# the package's dealiased product before it took its rows in one buffer
# (the concatenate route) and the sqg transport term that called it,
# verbatim; the package's own multipliers are read through its grid

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


def _band_product(grid, values):
    # coefficients of band-sample products, cut back to the band
    z = _forward(grid, values)
    z /= grid.n_total
    z *= grid.dealias_keep
    return z


def concat_dealiased_product(grid, f, g, dot=False):
    """Pointwise product with the 2/3 rule applied to inputs and output.

    The two fields take their samples from one inverse transform of their
    rows concatenated (their leading axes may differ), so a product costs
    two transforms.  With dot=True, f and g hold the components of two
    vector fields along their first axis, and the product is their dot
    product f_1*g_1 + f_2*g_2 + ..., summed on the grid before the one
    forward transform (u.grad(theta) takes two transforms).
    """
    rows = (-1,) + grid.spec_shape
    fg = np.concatenate([f.reshape(rows), g.reshape(rows)])
    # band_values on this fresh array, in place
    fg *= grid.dealias_keep
    fg *= grid.n_total
    v = _inverse(grid, fg)
    split = f.size // math.prod(grid.spec_shape)
    fv = v[:split].reshape(f.shape[:f.ndim - grid.dim] + grid.shape)
    gv = v[split:].reshape(g.shape[:g.ndim - grid.dim] + grid.shape)
    prod = fv * gv
    return _band_product(grid, prod.sum(axis=0) if dot else prod)


def concat_sqg_transport(grid, c):
    """SqgOps._transport: u.grad(theta) of the half-spectrum rows c."""
    # u.grad(theta): u and grad(theta) in one inverse transform, their
    # dot product in one forward transform
    from saltpde.spectral import gradient, riesz_perp
    g = grid
    return concat_dealiased_product(g, np.stack(riesz_perp(g, c)),
                                    np.stack(gradient(g, c)), dot=True)
