"""Frozen reference copy of the model operators before they shared one core.

The operator methods of Sch2Ops, CcfOps and SqgOps are kept here verbatim
(norms left out) so that tests can check the shared-core implementation in
saltpde.models against them bit for bit.  step_strat_heun is the Heun step
as it was when it evaluated h_eps_k(X, k) twice per noise index.
fft_lie_derivative is L_xi as it was when every product went through the
FFTs against 2/3-band grid samples of xi's factors (band_values and
product_with_values below are that route's helpers, verbatim).  Do not
edit: this file is the oracle, not a second implementation to maintain.
"""

import numpy as np

from saltpde import spectral as sp
from saltpde.lie import lie_derivative, lie_second
from saltpde.models import ModelState
from saltpde.solver import chi_cutoff
from saltpde.spectral import (SpectralField, dealiased_product, derivative,
                              hilbert_transform, mollifier_symbol, riesz_perp,
                              zero_field)


def band_values(F):
    """Grid samples of the 2/3-band projection of F."""
    g = F.grid
    return np.real(np.fft.ifftn(F.coeffs * g.dealias_keep * g.n_total))


def product_with_values(values_banded, G):
    """Product against precomputed band-limited grid samples (cached factor)."""
    g = G.grid
    prod = values_banded * band_values(G)
    return SpectralField(g, (np.fft.fftn(prod) / g.n_total) * g.dealias_keep)


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
