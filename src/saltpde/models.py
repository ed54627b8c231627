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
the single row theta otherwise.  Operators, norms and steppers take and
return these plain arrays; each operator checks the shape it is given
against its own model and grid.  ModelState(kind, grid, rows) is the one
checked entry for states from outside (kind, grid dimension, row shape,
sqg zero mean): initial data and corpus states come through it, and its
.coeffs is the array.  Every operator takes the whole array: the spectral
layer acts on the trailing grid axes, so one call transports,
differentiates or applies L_xi to every row at once.

Models:
  sch2  -- two-component Camassa-Holm system, state (u, eta) on the 1D torus
  ccf   -- nonlocal transport equation with velocity H(theta), 1D
  sqg   -- surface quasi-geostrophic equation with u = Riesz-perp(theta), 2D
  linear -- scalar test SDE dX = a X o dW (degenerate model for scheme checks)
"""

import numpy as np

from . import spectral as sp
from .lie import ito_correction, lie_derivative
from .spectral import (dealiased_product, derivative, gradient, has_mean,
                       hermitian_part, hilbert_transform, hs_inner,
                       homogeneous_inner, homogeneous_norm, lipschitz_norm,
                       mollifier_symbol, riesz_component, riesz_perp,
                       sobolev_norm, sup_norm, to_grid, zero_field)

FIELD_NAMES = {"sch2": ("u", "eta"), "ccf": ("theta",),
               "sqg": ("theta",), "linear": ("theta",)}

S_THRESHOLD = {"sch2": 5.5, "ccf": 3.5, "sqg": 4.0}

DEFAULT_S = {"sch2": 6.0, "ccf": 4.0, "sqg": 4.5, "linear": 1.0}

INITIAL_CONDITIONS = ("smooth", "random", "zero")


class ModelState:
    """The checked entry for a state X built from outside the operators.

    ModelState(kind, grid, rows) checks the kind, the grid dimension, the
    row shape and the sqg zero mean, and copies rows into .coeffs, the
    complex array of shape (fields, *grid.shape) that the operators,
    steppers and norms take and return.
    """

    __slots__ = ("kind", "grid", "coeffs")

    def __init__(self, kind, grid, rows):
        if kind not in FIELD_NAMES:
            raise ValueError("unknown model kind %r" % (kind,))
        if grid.dim != (2 if kind == "sqg" else 1):
            raise ValueError("%s state needs a %dD grid" % (kind, 3 - grid.dim))
        rows = np.array(rows, dtype=np.complex128)
        if rows.shape != (len(FIELD_NAMES[kind]),) + grid.shape:
            raise ValueError("%s state needs %d fields of shape %r, got %r"
                             % (kind, len(FIELD_NAMES[kind]), grid.shape,
                                rows.shape))
        if kind == "sqg" and has_mean(grid, rows):
            raise ValueError("sqg state must have zero mean")
        self.kind = kind
        self.grid = grid
        self.coeffs = rows


def _checked(X, kind, shape):
    """X itself, if it has the shape of a kind state on the ops' grid."""
    if getattr(X, "shape", None) != shape:
        got = X.shape if isinstance(X, np.ndarray) else type(X).__name__
        raise ValueError("expected a %s state of shape %r, got %s"
                         % (kind, shape, got))
    return X


class _FluidOps:
    """Operator core of the fluid models; jhat = None means J = 1.

    With T the model's transport term and C its noise conjugation, the core
    forms the transport term -J T(JX), the Ito sum
    J^3 C^-1 (1/2) sum_k L_k^2 (C JX) and h^k = -J C^-1 L_k(C JX), each
    on the whole (fields, *grid) array.  Every public method takes states
    as such arrays, of shape self.shape, and checks that shape.  On a 1D
    grid the first-order terms L_k(C JX) of every k are formed once per
    state (_first): the Ito sum and the h^k of that state share them.
    """

    kind = None
    dim = None
    v_is_x_norm = False     # see LinearOps
    _conj = None            # C per row (Sch2Ops); None means C = 1

    def __init__(self, grid, s, basis, eps):
        if grid.dim != self.dim:
            raise ValueError("%s lives on the %dD torus" % (self.kind, self.dim))
        self.grid = grid
        self.shape = (len(FIELD_NAMES[self.kind]),) + grid.shape
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)
        # _first's one slot: the bytes of its last input and their terms
        self._first_key = None
        self._first_terms = None

    def _rows(self, X, jhat=None):
        X = _checked(X, self.kind, self.shape)
        return X if jhat is None else X * jhat

    def _theta(self, X):
        return self._rows(X)[0]

    def _conjugated(self, c):
        return c if self._conj is None else c * self._conj

    def _unconjugated(self, c):
        return c if self._conj is None else c * self._conj_inv

    def _first(self, cc):
        """The first-order terms L_k(cc) of a 1D basis as one (K,) + cc.shape
        array, for cc = C JX; None on a 2D grid or an empty basis.

        One slot remembers the last cc by a copy of its bytes, so the Ito
        sum and the h^k of one state form the terms once, and any state
        that differs in a bit gets its own, also when the caller mutated X
        in place (with J = 1 and C = 1, cc is the caller's X).
        """
        if self.basis.stack is None:
            return None
        key = (cc.dtype.str, cc.tobytes())
        if key != self._first_key:
            terms = lie_derivative(self.basis.stack, cc[None])
            terms.flags.writeable = False
            self._first_key, self._first_terms = key, terms
        return self._first_terms

    def _transport_op(self, X, jhat=None):
        c = self._transport(self._rows(X, jhat))
        if jhat is not None:
            c = c * jhat
        return c * -1.0

    def _ito_op(self, X, jhat=None):
        cc = self._conjugated(self._rows(X, jhat))
        sums = self._unconjugated(ito_correction(self.basis, cc,
                                                 self._first(cc)))
        return sums if jhat is None else sums * jhat ** 3

    def _h_op(self, X, k, jhat=None):
        """h^k for one index k; for a sequence of indices, an iterator over
        the h^k in that order.  Each h^k is formed when it is reached, so
        that a stepper holds no more of them at once than it uses (a step
        whose heap peak rises and falls by a few 64^2 states gets its pages
        trimmed and faulted in again); on a 1D grid from row k of the
        state's first-order terms (_first), which are taken at the call, so
        a later state cannot replace them."""
        cc = self._conjugated(self._rows(X, jhat))
        scalar = np.ndim(k) == 0
        ks = [k] if scalar else list(k)
        for j in ks:
            if not 0 <= j < self.basis.K:
                raise ValueError("noise index %d out of range (K=%d)"
                                 % (j, self.basis.K))
        first = self._first(cc)
        hs = (self._h(first[j] if first is not None
                      else lie_derivative(self.basis.xis[j], cc), jhat)
              for j in ks)
        return next(hs) if scalar else hs

    def _h(self, lc, jhat):
        # -J C^-1 of the first-order terms lc = L_xi(C c)
        h = self._unconjugated(lc)
        if jhat is not None:
            h = h * jhat
        return h * -1.0


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
        d2 = 1.0 + grid.ksq                # D^2 symbol
        self._d2inv = 1.0 / d2
        # the noise acts on the momentum D^2 u and on eta as it is
        ones = np.ones(grid.shape)
        self._conj = np.stack([d2, ones])
        self._conj_inv = np.stack([self._d2inv, ones])

    def _transport(self, c):
        return dealiased_product(self.grid, c[0], derivative(self.grid, c))

    def b(self, X):
        g = self.grid
        u, eta = self._rows(X)
        ux = derivative(g, u)
        # u*u, ux*ux, eta*eta and eta*ux in one product
        uu, uxux, etaeta, etaux = dealiased_product(
            g, np.stack([u, ux, eta, eta]), np.stack([u, ux, eta, ux]))
        q = 0.5 * uu + uxux + 0.5 * etaeta
        G = derivative(g, q * self._d2inv)
        return np.stack([G, etaux]) * -1.0

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
        g, a, b = self.grid, self._rows(A), self._rows(B)
        return hs_inner(g, a[0], b[0], self.s) + hs_inner(g, a[1], b[1], self.s - 1.0)

    def z_inner(self, A, B):
        g, a, b = self.grid, self._rows(A), self._rows(B)
        return hs_inner(g, a[0], b[0], self.s - 2.0) \
            + hs_inner(g, a[1], b[1], self.s - 3.0)

    def x_norm(self, X):
        return float(np.sqrt(max(self.x_inner(X, X), 0.0)))

    def z_norm(self, X):
        return float(np.sqrt(max(self.z_inner(X, X), 0.0)))

    def v_norm(self, X):
        # W^{1,inf} x W^{1,inf} blow-up functional, grid surrogate
        u, eta = lipschitz_norm(self.grid, self._rows(X))
        return float(u + eta)

    def energy(self, X):
        """Conserved H^1-type energy of the deterministic system."""
        u, eta = self._rows(X)
        return sobolev_norm(self.grid, u, 1.0) ** 2 \
            + sobolev_norm(self.grid, eta, 0.0) ** 2

    def max_velocity(self, X):
        return sup_norm(self.grid, self._rows(X)[0])


class CcfOps(_FluidOps):
    """Nonlocal transport splitting: b = 0, g = -(H theta) theta_x + noise."""

    kind = "ccf"
    dim = 1

    def _transport(self, c):
        g = self.grid
        return dealiased_product(g, hilbert_transform(g, c), derivative(g, c))

    def b(self, X):
        return np.zeros_like(self._rows(X))

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
        return hs_inner(self.grid, self._theta(A), self._theta(B), self.s)

    def z_inner(self, A, B):
        return hs_inner(self.grid, self._theta(A), self._theta(B), self.s - 2.0)

    def x_norm(self, X):
        return sobolev_norm(self.grid, self._theta(X), self.s)

    def z_norm(self, X):
        return sobolev_norm(self.grid, self._theta(X), self.s - 2.0)

    def v_norm(self, X):
        # blow-up functional sup|theta_x| + sup|H theta_x|
        g = self.grid
        tx = derivative(g, self._theta(X))
        sup_tx, sup_htx = sup_norm(g, np.stack([tx, hilbert_transform(g, tx)]))
        return float(sup_tx + sup_htx)

    def max_velocity(self, X):
        return sup_norm(self.grid, hilbert_transform(self.grid, self._theta(X)))


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

    def _transport(self, c):
        # u.grad(theta) from the pairs u and grad(theta), one transform each
        g = self.grid
        c = hermitian_part(g, c)
        return dealiased_product(g, riesz_perp(g, c), gradient(g, c))

    def b(self, X):
        return np.zeros_like(self._rows(X))

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
        return homogeneous_inner(self.grid, self._theta(A), self._theta(B), self.s)

    def z_inner(self, A, B):
        return homogeneous_inner(self.grid, self._theta(A), self._theta(B),
                                 self.s - 2.0)

    def x_norm(self, X):
        return homogeneous_norm(self.grid, self._theta(X), self.s)

    def z_norm(self, X):
        return homogeneous_norm(self.grid, self._theta(X), self.s - 2.0)

    def v_norm(self, X):
        # sup|grad theta| + sup|R grad theta| on the grid nodes.  R_1 d_2 theta
        # and R_2 d_1 theta have one symbol, so |R grad theta|^2 is
        # r11^2 + 2 r12^2 + r22^2: the pairs grad(theta) and (R_1 d_1, R_2 d_2)
        # take one transform each, R_1 d_2 theta a third
        g = self.grid
        d1, d2 = grad = gradient(g, hermitian_part(g, self._theta(X)))
        v1, v2 = to_grid(g, grad)
        out = float(np.max(np.sqrt(v1 * v1 + v2 * v2)))
        r11, r22 = to_grid(g, (riesz_component(g, d1, 0),
                               riesz_component(g, d2, 1)))
        r12 = to_grid(g, riesz_component(g, d2, 0))
        acc = r11 * r11 + 2.0 * (r12 * r12) + r22 * r22
        return out + float(np.max(np.sqrt(acc)))

    def max_velocity(self, X):
        g = self.grid
        v1, v2 = to_grid(g, riesz_perp(g, hermitian_part(g, self._theta(X))))
        return float(np.max(np.sqrt(v1 * v1 + v2 * v2)))


class LinearOps:
    """Scalar test SDE dX = a X o dW, i.e. dX = a^2 X/2 dt + a X dW in Ito
    form, represented as a constant field so the steppers apply unchanged;
    every operator is a multiple of X (b = 0 X, g = a^2/2 X, h = a X).
    The exact solution X_0 exp(a W_t) pins down strong convergence orders.
    """

    kind = "linear"
    # the V-functional is the H^s norm (v_norm = x_norm), so a caller that
    # holds x_norm(X) holds v_norm(X)
    v_is_x_norm = True

    def __init__(self, grid, a):
        self.grid = grid
        self.shape = (1,) + grid.shape
        self.a = float(a)

    def _rows(self, X):
        return _checked(X, self.kind, self.shape)

    def b(self, X):
        return self._rows(X) * 0.0

    g_transport = b

    def ito_correction(self, X):
        return self._rows(X) * (0.5 * self.a * self.a)

    def g(self, X):
        return self.ito_correction(X)

    def h_k(self, X, k):
        h = self._rows(X) * self.a
        return h if isinstance(k, (int, np.integer)) else (h for _ in k)

    g_eps_transport = g_transport
    g_eps = g
    h_eps_k = h_k

    def value(self, X):
        """The constant the field holds: its k = 0 coefficient."""
        return float(self._rows(X)[(0,) * (1 + self.grid.dim)].real)

    def x_inner(self, A, B):
        return hs_inner(self.grid, self._rows(A)[0], self._rows(B)[0], 0.0)

    z_inner = x_inner

    def x_norm(self, X):
        return sobolev_norm(self.grid, self._rows(X)[0], 0.0)

    z_norm = x_norm
    v_norm = x_norm

    def max_velocity(self, X):
        self._rows(X)
        return 0.0

    def exact_solution(self, x0, w_t):
        return x0 * np.exp(self.a * w_t)


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
        vals = [a * np.cos(grid.x), a * np.sin(grid.x)]
    elif model == "ccf":
        vals = [a * np.cos(grid.x)]
    elif model == "sqg":
        x1, x2 = grid.nodes()
        vals = [a * (np.cos(x1) + np.sin(x2) + 0.5 * np.cos(x1 + x2))]
    elif model == "linear":
        c = zero_field(grid, 1)
        c[(0,) * (1 + grid.dim)] = a
        return ModelState("linear", grid, c)
    else:
        raise ValueError("unknown model %r" % (model,))
    return ModelState(model, grid, sp.from_values(grid, vals))


def random_initial_state(model, grid, amplitude, seed):
    """Seeded random trigonometric initial data with mild coefficient decay,
    modes up to 4."""
    rng = np.random.default_rng(seed)
    kmax = 4

    def scalar(zero_mean):
        c = zero_field(grid)
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
        vals = to_grid(grid, c)
        peak = max(float(np.max(np.abs(vals))), 1e-30)
        return sp.from_values(grid, float(amplitude) * vals / peak)

    if model == "linear":
        return smooth_initial_state("linear", grid, amplitude)
    if model not in FIELD_NAMES:
        raise ValueError("unknown model %r" % (model,))
    return ModelState(model, grid, [scalar(model == "sqg")
                                    for _ in FIELD_NAMES[model]])


def zero_initial_state(model, grid):
    return ModelState(model, grid, zero_field(grid, len(FIELD_NAMES[model])))


def make_initial_state(model, grid, ic, amplitude, seed=0):
    if ic == "smooth":
        return smooth_initial_state(model, grid, amplitude)
    if ic == "random":
        return random_initial_state(model, grid, amplitude, seed)
    if ic == "zero":
        return zero_initial_state(model, grid)
    raise ValueError("unknown initial condition %r (%s)"
                     % (ic, " | ".join(INITIAL_CONDITIONS)))
