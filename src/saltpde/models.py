"""Operator splittings of the three transport-noise fluid models.

Each model is written in Ito form as

    dX = (b(X) + g(X)) dt + sum_k h^k(X) dW_k,

with a regular drift b, a singular drift g = g_transport + ito_correction,
and transport-type diffusion h^k built from the Lie operator L_{xi_k}.
The mollified family (g_eps, h_eps^k) inserts the bump mollifier J_eps
into the compositions exactly as the regularised scheme prescribes, e.g.
-J[Ju * Ju_x] for the quadratic terms and a J^3 factor in front of the
second-order noise sum.  The unmollified family (g, h^k) is the same code
with J = 1: one private core forms the transport term, the Ito sum and h^k
for both families.  A fluid model supplies only its kind and grid dimension,
its transport term, its noise conjugation (D^-2 L D^2 on u for sch2, the
identity elsewhere), its regular drift b and its norms.

A state X is one element of the model's space, held as one complex
coefficient array of shape (fields, *grid.shape): rows (u, eta) for sch2,
the single row theta otherwise.  ModelState(kind, fields) is the one checked
entry (kind, field count, common grid, grid dimension, sqg zero mean); sums,
scalings and operator results are built from arrays without re-checking.

Models:
  sch2  -- two-component Camassa-Holm system, state (u, eta) on the 1D torus
  ccf   -- nonlocal transport equation with velocity H(theta), 1D
  sqg   -- surface quasi-geostrophic equation with u = Riesz-perp(theta), 2D
  linear -- scalar test SDE dX = a X o dW (degenerate model for scheme checks)
"""

from functools import partial

import numpy as np

from . import spectral as sp
from .lie import ito_correction, lie_derivative
from .spectral import (SpectralField, dealiased_product, derivative, gradient,
                       hilbert_transform, hs_inner, homogeneous_inner,
                       homogeneous_norm, lipschitz_norm, mollifier_symbol,
                       riesz_component, riesz_perp, sobolev_norm, sup_norm,
                       to_grid, zero_field)

FIELD_NAMES = {"sch2": ("u", "eta"), "ccf": ("theta",),
               "sqg": ("theta",), "linear": ("theta",)}

S_THRESHOLD = {"sch2": 5.5, "ccf": 3.5, "sqg": 4.0}

DEFAULT_S = {"sch2": 6.0, "ccf": 4.0, "sqg": 4.5, "linear": 1.0}

INITIAL_CONDITIONS = ("smooth", "random", "zero")


class ModelState:
    """A model's state X: one complex array of shape (fields, *grid.shape).

    ModelState(kind, fields) is the one checked entry for states built from
    outside; the results of arithmetic and of the operators come from
    ModelState._of, which checks nothing.  u, eta, theta and fields are
    SpectralField views of the rows.
    """

    __slots__ = ("kind", "grid", "coeffs")

    def __init__(self, kind, fields):
        if kind not in FIELD_NAMES:
            raise ValueError("unknown model kind %r" % (kind,))
        fields = tuple(fields)
        if len(fields) != len(FIELD_NAMES[kind]):
            raise ValueError("%s state needs %d fields" %
                             (kind, len(FIELD_NAMES[kind])))
        grid = fields[0].grid
        for f in fields[1:]:
            if not f.grid.compatible(grid):
                raise ValueError("state fields live on different grids")
        if kind == "sqg":
            if grid.dim != 2:
                raise ValueError("sqg state needs a 2D grid")
            if abs(fields[0].coeffs[0, 0]) > 1e-12 * (
                    1.0 + np.max(np.abs(fields[0].coeffs))):
                raise ValueError("sqg state must have zero mean")
        elif grid.dim != 1:
            raise ValueError("%s state needs a 1D grid" % kind)
        self.kind = kind
        self.grid = grid
        self.coeffs = np.stack([f.coeffs for f in fields])

    @classmethod
    def _of(cls, kind, grid, coeffs):
        X = cls.__new__(cls)
        X.kind, X.grid, X.coeffs = kind, grid, coeffs
        return X

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

    def copy(self):
        return ModelState._of(self.kind, self.grid, self.coeffs.copy())

    def is_finite(self):
        return bool(np.isfinite(self.coeffs).all())

    def _like(self, other):
        # other's array, if it is the same model on the same grid; O(1), and
        # without it numpy would broadcast a 1-field state against a 2-field one
        if other.kind != self.kind or not other.grid.compatible(self.grid):
            raise ValueError("cannot combine a %s state on %r with a %s state "
                             "on %r" % (self.kind, self.grid, other.kind,
                                        other.grid))
        return other.coeffs

    def __add__(self, other):
        return ModelState._of(self.kind, self.grid,
                              self.coeffs + self._like(other))

    def __sub__(self, other):
        return ModelState._of(self.kind, self.grid,
                              self.coeffs - self._like(other))

    def __mul__(self, a):
        return ModelState._of(self.kind, self.grid, self.coeffs * a)

    __rmul__ = __mul__


class _FluidOps:
    """Operator core of the fluid models; jhat = None means J = 1.

    With T the model's transport term and C its noise conjugation, the core
    forms the transport term -J T(JX), the Ito sum
    J^3 C^-1 (1/2) sum_k L_k^2 (C JX) and h^k = -J C^-1 L_k(C JX).
    """

    kind = None
    dim = None

    def __init__(self, grid, s, basis, eps):
        if grid.dim != self.dim:
            raise ValueError("%s lives on the %dD torus" % (self.kind, self.dim))
        self.grid = grid
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)

    def _fields(self, X, jhat=None):
        if X.kind != self.kind:
            raise ValueError("expected a %s state, got %s" % (self.kind, X.kind))
        c = X.coeffs if jhat is None else X.coeffs * jhat
        return [SpectralField(X.grid, row) for row in c]

    def _state(self, terms, jhat=None, scale=None):
        c = np.stack([t.coeffs for t in terms])
        if jhat is not None:
            c *= jhat
        if scale is not None:
            c *= scale
        return ModelState._of(self.kind, self.grid, c)

    def _noise(self, op, *fields):
        """op on each field, conjugated by the model where it needs it."""
        return [op(f) for f in fields]

    def _transport_op(self, X, jhat=None):
        return self._state(self._transport(*self._fields(X, jhat)), jhat, -1.0)

    def _ito_op(self, X, jhat=None):
        sums = self._noise(partial(ito_correction, self.basis),
                           *self._fields(X, jhat))
        return self._state(sums, None if jhat is None else jhat ** 3)

    def _h_op(self, X, k, jhat=None):
        fields = self._fields(X, jhat)
        if not 0 <= k < self.basis.K:
            raise ValueError("noise index %d out of range (K=%d)" % (k, self.basis.K))
        return self._state(self._noise(partial(lie_derivative, self.basis.xis[k]),
                                       *fields), jhat, -1.0)


class Sch2Ops(_FluidOps):
    """Two-component CH splitting.

    b(u,eta) = (-dx D^-2(u^2/2 + u_x^2 + eta^2/2), -eta*u_x)
    g        = (-u*u_x + D^-2 sum L^2(D^2 u)/2,  -u*eta_x + sum L^2(eta)/2)
    h^k      = (-D^-2 L_k(D^2 u), -L_k(eta))
    """

    kind = "sch2"
    dim = 1

    def __init__(self, grid, s, basis, eps):
        super().__init__(grid, s, basis, eps)
        self._d2 = 1.0 + grid.ksq          # D^2 symbol
        self._d2inv = 1.0 / self._d2

    def _transport(self, u, eta):
        return (dealiased_product(u, derivative(u)),
                dealiased_product(u, derivative(eta)))

    def _noise(self, op, u, eta):
        # the noise acts on the momentum D^2 u
        return [sp.apply_multiplier(op(sp.apply_multiplier(u, self._d2)),
                                    self._d2inv), op(eta)]

    def b(self, X):
        u, eta = self._fields(X)
        ux = derivative(u)
        q = 0.5 * dealiased_product(u, u) + dealiased_product(ux, ux) \
            + 0.5 * dealiased_product(eta, eta)
        G = derivative(sp.apply_multiplier(q, self._d2inv))
        return self._state([G, dealiased_product(eta, ux)], scale=-1.0)

    def g_transport(self, X):
        return self._transport_op(X)

    def ito_correction(self, X):
        return self._ito_op(X)

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        return self._h_op(X, k)

    def g_eps_transport(self, X):
        return self._transport_op(X, self._jhat)

    def g_eps(self, X):
        return self.g_eps_transport(X) + self._ito_op(X, self._jhat)

    def h_eps_k(self, X, k):
        return self._h_op(X, k, self._jhat)

    # -- norms
    def x_inner(self, A, B):
        return hs_inner(A.u, B.u, self.s) + hs_inner(A.eta, B.eta, self.s - 1.0)

    def z_inner(self, A, B):
        return hs_inner(A.u, B.u, self.s - 2.0) + hs_inner(A.eta, B.eta, self.s - 3.0)

    def x_norm(self, X):
        return float(np.sqrt(max(self.x_inner(X, X), 0.0)))

    def z_norm(self, X):
        return float(np.sqrt(max(self.z_inner(X, X), 0.0)))

    def v_norm(self, X):
        # W^{1,inf} x W^{1,inf} blow-up functional, grid surrogate
        return lipschitz_norm(X.u) + lipschitz_norm(X.eta)

    def energy(self, X):
        """Conserved H^1-type energy of the deterministic system."""
        return sobolev_norm(X.u, 1.0) ** 2 + sobolev_norm(X.eta, 0.0) ** 2

    def max_velocity(self, X):
        return sup_norm(X.u)


class CcfOps(_FluidOps):
    """Nonlocal transport splitting: b = 0, g = -(H theta) theta_x + noise."""

    kind = "ccf"
    dim = 1

    def _transport(self, th):
        return (dealiased_product(hilbert_transform(th), derivative(th)),)

    def b(self, X):
        return self._state([zero_field(self.grid) for _ in self._fields(X)])

    def g_transport(self, X):
        return self._transport_op(X)

    def ito_correction(self, X):
        return self._ito_op(X)

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        return self._h_op(X, k)

    def g_eps_transport(self, X):
        return self._transport_op(X, self._jhat)

    def g_eps(self, X):
        return self.g_eps_transport(X) + self._ito_op(X, self._jhat)

    def h_eps_k(self, X, k):
        return self._h_op(X, k, self._jhat)

    def x_inner(self, A, B):
        return hs_inner(A.theta, B.theta, self.s)

    def z_inner(self, A, B):
        return hs_inner(A.theta, B.theta, self.s - 2.0)

    def x_norm(self, X):
        return sobolev_norm(X.theta, self.s)

    def z_norm(self, X):
        return sobolev_norm(X.theta, self.s - 2.0)

    def v_norm(self, X):
        # blow-up functional sup|theta_x| + sup|H theta_x|
        tx = derivative(X.theta)
        return sup_norm(tx) + sup_norm(hilbert_transform(tx))

    def max_velocity(self, X):
        return sup_norm(hilbert_transform(X.theta))


class SqgOps(_FluidOps):
    """SALT SQG splitting on the 2D torus, mean-zero theta, u = R-perp(theta).

    Norms are homogeneous (Lambda^s based), which is where the model's
    solution space lives.
    """

    kind = "sqg"
    dim = 2

    def __init__(self, grid, s, basis, eps):
        super().__init__(grid, s, basis, eps)
        for xi in basis.xis:
            if xi.max_divergence > 1e-12:
                raise ValueError("sqg needs a divergence-free noise basis")

    def _transport(self, th):
        u1, u2 = riesz_perp(th)
        return (dealiased_product(u1, derivative(th, 0))
                + dealiased_product(u2, derivative(th, 1)),)

    def b(self, X):
        return self._state([zero_field(self.grid) for _ in self._fields(X)])

    def g_transport(self, X):
        return self._transport_op(X)

    def ito_correction(self, X):
        return self._ito_op(X)

    def g(self, X):
        return self.g_transport(X) + self.ito_correction(X)

    def h_k(self, X, k):
        return self._h_op(X, k)

    def g_eps_transport(self, X):
        return self._transport_op(X, self._jhat)

    def g_eps(self, X):
        return self.g_eps_transport(X) + self._ito_op(X, self._jhat)

    def h_eps_k(self, X, k):
        return self._h_op(X, k, self._jhat)

    def x_inner(self, A, B):
        return homogeneous_inner(A.theta, B.theta, self.s)

    def z_inner(self, A, B):
        return homogeneous_inner(A.theta, B.theta, self.s - 2.0)

    def x_norm(self, X):
        return homogeneous_norm(X.theta, self.s)

    def z_norm(self, X):
        return homogeneous_norm(X.theta, self.s - 2.0)

    def v_norm(self, X):
        # sup|grad theta| + sup|R grad theta| on the grid nodes
        g1, g2 = gradient(X.theta)
        v1, v2 = to_grid(g1), to_grid(g2)
        out = float(np.max(np.sqrt(v1 * v1 + v2 * v2)))
        acc = np.zeros(self.grid.shape)
        for gj in (g1, g2):
            for axis in (0, 1):
                r = to_grid(riesz_component(gj, axis))
                acc += r * r
        return out + float(np.max(np.sqrt(acc)))

    def l2_norm(self, X):
        return sobolev_norm(X.theta, 0.0)

    def max_velocity(self, X):
        u1, u2 = riesz_perp(X.theta)
        v1, v2 = to_grid(u1), to_grid(u2)
        return float(np.max(np.sqrt(v1 * v1 + v2 * v2)))


class LinearOps:
    """Scalar test SDE dX = a X o dW, i.e. dX = a^2 X/2 dt + a X dW in Ito
    form, represented as a constant field so the steppers apply unchanged;
    every operator is a multiple of X (b = 0 X, g = a^2/2 X, h = a X).
    The exact solution X_0 exp(a W_t) pins down strong convergence orders.
    """

    kind = "linear"

    def __init__(self, grid, a):
        self.grid = grid
        self.a = float(a)
        self.s = 0.0
        self.eps = 0.5

    def b(self, X):
        return self._scaled(X, 0.0)

    g_transport = b

    def ito_correction(self, X):
        return self._scaled(X, 0.5 * self.a * self.a)

    def g(self, X):
        return self.ito_correction(X)

    def h_k(self, X, k):
        return self._scaled(X, self.a)

    g_eps_transport = g_transport
    g_eps = g
    h_eps_k = h_k

    def value(self, X):
        return X.theta.mean()

    def x_inner(self, A, B):
        return hs_inner(A.theta, B.theta, 0.0)

    z_inner = x_inner

    def x_norm(self, X):
        return sobolev_norm(X.theta, 0.0)

    z_norm = x_norm
    v_norm = x_norm

    def max_velocity(self, X):
        return 0.0

    def exact_solution(self, x0, w_t):
        return x0 * np.exp(self.a * w_t)

    def _scaled(self, X, c):
        if X.kind != "linear":
            raise ValueError("expected a linear state, got %s" % X.kind)
        return ModelState._of("linear", X.grid, X.coeffs * c)


def make_ops(model, grid, s, basis, eps, linear_a=1.0):
    if model == "sch2":
        return Sch2Ops(grid, s, basis, eps)
    if model == "ccf":
        return CcfOps(grid, s, basis, eps)
    if model == "sqg":
        return SqgOps(grid, s, basis, eps)
    if model == "linear":
        return LinearOps(grid, linear_a)
    raise ValueError("unknown model %r" % (model,))


def smooth_initial_state(model, grid, amplitude):
    """Default deterministic smooth initial data per model."""
    a = float(amplitude)
    if model == "sch2":
        u = sp.from_values(grid, a * np.cos(grid.x))
        eta = sp.from_values(grid, a * np.sin(grid.x))
        return ModelState("sch2", (u, eta))
    if model == "ccf":
        return ModelState("ccf", (sp.from_values(grid, a * np.cos(grid.x)),))
    if model == "sqg":
        x1, x2 = grid.nodes()
        vals = a * (np.cos(x1) + np.sin(x2) + 0.5 * np.cos(x1 + x2))
        return ModelState("sqg", (sp.from_values(grid, vals),))
    if model == "linear":
        th = zero_field(grid)
        th.coeffs[(0,) * grid.dim] = a
        return ModelState("linear", (th,))
    raise ValueError("unknown model %r" % (model,))


def random_initial_state(model, grid, amplitude, seed, kmax=4):
    """Seeded random trigonometric initial data with mild coefficient decay."""
    rng = np.random.default_rng(seed)

    def scalar(zero_mean):
        c = np.zeros(grid.shape, dtype=np.complex128)
        if grid.dim == 1:
            for k in range(1 if zero_mean else 0, kmax + 1):
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                c[k] = amp / (1.0 + k * k)
        else:
            for k1 in range(-kmax, kmax + 1):
                for k2 in range(0, kmax + 1):
                    if k2 == 0 and k1 <= 0:
                        continue
                    amp = rng.standard_normal() + 1j * rng.standard_normal()
                    c[k1, k2] = amp / (1.0 + k1 * k1 + k2 * k2)
        # taking the real part of the inverse transform symmetrises c
        vals = to_grid(SpectralField(grid, c))
        peak = max(float(np.max(np.abs(vals))), 1e-30)
        return sp.from_values(grid, float(amplitude) * vals / peak)

    if model == "linear":
        return smooth_initial_state("linear", grid, amplitude)
    if model not in FIELD_NAMES:
        raise ValueError("unknown model %r" % (model,))
    return ModelState(model, tuple(scalar(model == "sqg")
                                   for _ in FIELD_NAMES[model]))


def zero_initial_state(model, grid):
    n_fields = len(FIELD_NAMES[model])
    return ModelState(model, tuple(zero_field(grid) for _ in range(n_fields)))


def make_initial_state(model, grid, ic, amplitude, seed=0):
    if ic == "smooth":
        return smooth_initial_state(model, grid, amplitude)
    if ic == "random":
        return random_initial_state(model, grid, amplitude, seed)
    if ic == "zero":
        return zero_initial_state(model, grid)
    raise ValueError("unknown initial condition %r (%s)"
                     % (ic, " | ".join(INITIAL_CONDITIONS)))
