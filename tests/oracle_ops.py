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
"""

import types

import numpy as np

from saltpde import lie as _lie
from saltpde import models as _models
from saltpde.solver import chi_cutoff


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

class _StateView:
    """A package state seen through the parent's SpectralField row views."""

    def __init__(self, X):
        self.kind, self.grid, self.coeffs = X.kind, X.grid, X.coeffs

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
        state = _models.ModelState(kind, grid, coeffs)
        self.kind, self.grid, self.coeffs = state.kind, state.grid, state.coeffs

    def __add__(self, other):
        if other.kind != self.kind:
            raise _wrong_variant(self.kind, other.kind)
        return _State(self.kind, self.grid, self.coeffs + other.coeffs)


def ModelState(kind, fields):
    """The parent's ModelState(kind, fields), building a state that adds."""
    return _State(kind, fields[0].grid, np.stack([f.coeffs for f in fields]))


def lie_derivative(xi, F):
    return SpectralField(F.grid, _lie.lie_derivative(xi, F.coeffs))


def lie_second(xi, F):
    return SpectralField(F.grid, _lie.lie_second(xi, F.coeffs))


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

    b(u,eta) = (-dx D^-2(u^2/2 + u_x^2 + eta^2/2), -eta*u_x)
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
        q = 0.5 * dealiased_product(u, u) + dealiased_product(ux, ux) \
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
