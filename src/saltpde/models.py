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
for both families.  The facts of each model (field names, grid dimension,
s threshold, default s, ops class) live in this module's tables.

A model class supplies its kind, its transport term, its noise conjugation
(D^-2 L D^2 on u for sch2, the identity elsewhere), its V-norm and exact
max velocity (_sup_velocity), and where the shared ones do not fit its
drift b and its norms' _inner and _norm.  _FluidOps defines the operators,
b = 0, the norms and max_velocity (which bounds the velocity without a
transform where a caller's limit allows) once; one rule below OPS_CLASS
puts each of them that a class does not define into the class's own
vars().

A state X is one element of the model's space, held as one complex
coefficient array of shape (fields, *grid.spec_shape): rows (u, eta) for
sch2, the single row theta otherwise.  A 1D row holds all n coefficients,
an sqg row its half spectrum, the (n, n//2+1) columns k2 >= 0 of the
n x n spectrum (see spectral): its norms count each column 0 < k2 < n/2
twice, its L_xi reads the modes k2 < 0 as conjugates, and its transforms
are real.  Operators, norms and steppers take and return these plain
arrays; each operator checks the shape it is given against its own model
and grid.
ModelState(kind, grid, rows) is the one checked entry for states from
outside (kind, grid dimension, row shape, sqg zero mean): initial data and
corpus states come through it, and its .coeffs is the array.  Every
operator takes the whole array: the spectral layer acts on the trailing
grid axes, so one call transports, differentiates or applies L_xi to every
row at once.

Models:
  sch2  -- two-component Camassa-Holm system, state (u, eta) on the 1D torus
  ccf   -- nonlocal transport equation with velocity H(theta), 1D
  sqg   -- surface quasi-geostrophic equation with u = Riesz-perp(theta), 2D
  linear -- scalar test SDE dX = a X o dW (degenerate model for scheme checks)
"""

import inspect
import itertools

import numpy as np

from . import spectral as sp
from .lie import ito_correction, lie_derivative
from .spectral import (dealiased_product, derivative, gradient, has_mean,
                       hilbert_transform, hs_inner, homogeneous_inner,
                       homogeneous_norm, lipschitz_bound, lipschitz_norm,
                       mollifier_symbol, real_part, riesz_component,
                       riesz_perp, sobolev_norm, sup_norm, to_grid,
                       within_bound, zero_field)

# the model facts (the ops class of each model: OPS_CLASS)
FIELD_NAMES = {"sch2": ("u", "eta"), "ccf": ("theta",),
               "sqg": ("theta",), "linear": ("theta",)}
GRID_DIM = {"sch2": 1, "ccf": 1, "sqg": 2, "linear": 1}
S_THRESHOLD = {"sch2": 5.5, "ccf": 3.5, "sqg": 4.0}     # s must exceed it
DEFAULT_S = {"sch2": 6.0, "ccf": 4.0, "sqg": 4.5, "linear": 1.0}

INITIAL_CONDITIONS = ("smooth", "random", "zero")


class ModelState:
    """The checked entry for a state X built from outside the operators.

    ModelState(kind, grid, rows) checks the kind, the grid dimension, the
    row shape and the sqg zero mean, and copies rows into .coeffs, the
    complex array of shape (fields, *grid.spec_shape) that the operators,
    steppers and norms take and return.
    """

    __slots__ = ("kind", "grid", "coeffs")

    def __init__(self, kind, grid, rows):
        if kind not in FIELD_NAMES:
            raise ValueError("unknown model kind %r" % (kind,))
        if grid.dim != GRID_DIM[kind]:
            raise ValueError("%s state needs a %dD grid"
                             % (kind, GRID_DIM[kind]))
        rows = np.array(rows, dtype=np.complex128)
        if rows.shape != (len(FIELD_NAMES[kind]),) + grid.spec_shape:
            raise ValueError("%s state needs %d fields of shape %r, got %r"
                             % (kind, len(FIELD_NAMES[kind]), grid.spec_shape,
                                rows.shape))
        if kind == "sqg" and has_mean(grid, rows):
            raise ValueError("sqg state must have zero mean")
        self.kind = kind
        self.grid = grid
        self.coeffs = rows


def _noise_indices(k, K):
    """(whether k is one index, the indices k names as a list), after
    checking that each lies in range(K)."""
    # a list (the steppers' form) skips np.ndim's conversion to an array
    scalar = not isinstance(k, list) and np.ndim(k) == 0
    ks = [k] if scalar else list(k)
    for j in ks:
        if not 0 <= j < K:
            raise ValueError("noise index %d out of range (K=%d)" % (j, K))
    return scalar, ks


class _FluidOps:
    """Operator core of the fluid models; jhat = None means J = 1.

    With T the model's transport term and C its noise conjugation, the core
    forms the transport term -J T(JX), the Ito sum
    J^3 C^-1 (1/2) sum_k L_k^2 (C JX) and h^k = -J C^-1 L_k(C JX), each
    on the whole (fields, *grid) array.  Every public method takes states
    as such arrays, of shape self.shape, and checks that shape.  With a
    stacked basis (every 1D one, a 2D one under spectral.STACK_BYTES) the
    first-order terms L_k(C JX) of every k are formed once per state
    (_first): the Ito sum and the h^k of that state share them.

    Shared by every model class: the seven operators, b = 0, max_velocity
    and the norms in H^s and H^{s-2} (x_inner, z_inner, x_norm, z_norm),
    through _inner and _norm, here those of row theta (SqgOps picks the
    homogeneous pair, Sch2Ops a pair over both rows).
    """

    kind = None
    v_is_x_norm = False     # see LinearOps
    _conj = None            # C per row (Sch2Ops); None means C = 1

    def __init__(self, grid, s, basis, eps):
        if grid.dim != GRID_DIM[self.kind]:
            raise ValueError("%s lives on the %dD torus"
                             % (self.kind, GRID_DIM[self.kind]))
        self.grid = grid
        self.shape = (len(FIELD_NAMES[self.kind]),) + grid.spec_shape
        self.s = float(s)
        self.basis = basis
        self.eps = float(eps)
        self._jhat = mollifier_symbol(grid, self.eps)
        self._jhat3 = self._jhat ** 3       # the Ito sum's J^3
        # _first's one slot: the bytes of its last input and their terms
        self._first_key = None
        self._first_terms = None

    def _rows(self, X, jhat=None):
        # X (times jhat), if it has the shape of a state on the ops' grid
        if getattr(X, "shape", None) != self.shape:
            got = X.shape if isinstance(X, np.ndarray) else type(X).__name__
            raise ValueError("expected a %s state of shape %r, got %s"
                             % (self.kind, self.shape, got))
        return X if jhat is None else X * jhat

    def _theta(self, X):
        return self._rows(X)[0]

    def _conjugated(self, c):
        return c if self._conj is None else c * self._conj

    def _unconjugated(self, c):
        return c if self._conj is None else c * self._conj_inv

    def _first(self, cc):
        """The first-order terms L_k(cc) of a stacked basis as one
        (K,) + cc.shape array, for cc = C JX; None for a basis without a
        stack (an empty one, a 2D one above spectral.STACK_BYTES).

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
        c = self._transport(self._rows(X, jhat))      # a fresh array
        if jhat is not None:
            c *= jhat
        c *= -1.0
        return c

    def _ito_op(self, X, jhat=None):
        cc = self._conjugated(self._rows(X, jhat))
        sums = self._unconjugated(ito_correction(self.basis, cc,
                                                 self._first(cc)))
        return sums if jhat is None else sums * self._jhat3

    def _h_op(self, X, k, jhat=None):
        """h^k for one index k; for a sequence of indices, an iterator over
        the h^k in that order.  With a stacked basis they come from the
        rows of the state's first-order terms (_first), which are taken at
        the call, so a later state cannot replace them, and the h^k of a
        sequence are formed together, in one pass over those rows.
        Otherwise each h^k is formed when it is reached, so that a stepper
        holds no more of them at once than it uses.  Each h^k is an array
        (a row of one fresh array, for a sequence) that the caller may
        write."""
        cc = self._conjugated(self._rows(X, jhat))
        scalar, ks = _noise_indices(k, self.basis.K)
        first = self._first(cc)
        if first is not None:
            # a fresh copy of the rows for a sequence, a read-only row for k
            h = self._h(first[ks[0] if scalar else ks], jhat)
            return h if scalar else iter(h)
        hs = (self._h(lie_derivative(self.basis.xis[j], cc), jhat) for j in ks)
        return next(hs) if scalar else hs

    def _h(self, lc, jhat):
        # -J C^-1 of the first-order terms lc = L_xi(C c), scaled in place
        # once fresh: lc is fresh unless it is a read-only row of _first
        h = self._unconjugated(lc)
        if jhat is not None:
            h = np.multiply(h, jhat, out=h if h.flags.writeable else None)
        elif not h.flags.writeable:
            h = h.copy()
        h *= -1.0
        return h

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

    def _inner(self, A, B, s):
        return hs_inner(self.grid, self._theta(A), self._theta(B), s)

    def _norm(self, X, s):
        return sobolev_norm(self.grid, self._theta(X), s)

    def x_inner(self, A, B):
        return self._inner(A, B, self.s)

    def z_inner(self, A, B):
        return self._inner(A, B, self.s - 2.0)

    def x_norm(self, X):
        return self._norm(X, self.s)

    def z_norm(self, X):
        return self._norm(X, self.s - 2.0)

    def max_velocity(self, X, limit=None):
        """sup of the velocity's length over the grid nodes (the model's
        _sup_velocity).  Given a limit, the coefficient bound
        B = lipschitz_bound(grid, X) is returned instead, with no
        transform, wherever within_bound(B, limit): B bounds sup|u|, since
        |u(x)| <= sum_k |u(k)| and each model's velocity multiplier (1 on
        sch2's u, H for ccf, R-perp for sqg) has modulus at most 1, so a
        caller that compares the result with limit decides as it would on
        the exact sup."""
        if limit is not None:
            bound = lipschitz_bound(self.grid, self._rows(X))
            if within_bound(bound, limit):
                return bound
        return self._sup_velocity(X)


class Sch2Ops(_FluidOps):
    """Two-component CH splitting.

    b(u,eta) = (-dx D^-2(u^2 + u_x^2/2 + eta^2/2), -eta*u_x)
    g        = (-u*u_x + D^-2 sum L^2(D^2 u)/2,  -u*eta_x + sum L^2(eta)/2)
    h^k      = (-D^-2 L_k(D^2 u), -L_k(eta))
    """

    kind = "sch2"

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
        q = uu + 0.5 * uxux + 0.5 * etaeta
        G = derivative(g, q * self._d2inv)
        return np.stack([G, etaux]) * -1.0

    # -- norms: u in H^s (H^{s-2}), eta one order lower; s - 2.0 - 1.0 is
    # s - 3.0 exactly for s >= 2
    def _inner(self, A, B, s):
        g, a, b = self.grid, self._rows(A), self._rows(B)
        return hs_inner(g, a[0], b[0], s) + hs_inner(g, a[1], b[1], s - 1.0)

    def _norm(self, X, s):
        return float(np.sqrt(max(self._inner(X, X, s), 0.0)))

    def v_norm(self, X):
        # W^{1,inf} x W^{1,inf} blow-up functional, grid surrogate
        u, eta = lipschitz_norm(self.grid, self._rows(X))
        return float(u + eta)

    def energy(self, X):
        """Conserved H^1-type energy of the deterministic system."""
        u, eta = self._rows(X)
        return sobolev_norm(self.grid, u, 1.0) ** 2 \
            + sobolev_norm(self.grid, eta, 0.0) ** 2

    def _sup_velocity(self, X):
        return sup_norm(self.grid, self._rows(X)[0])


class CcfOps(_FluidOps):
    """Nonlocal transport splitting: b = 0, g = -(H theta) theta_x + noise."""

    kind = "ccf"

    def _transport(self, c):
        g = self.grid
        return dealiased_product(g, hilbert_transform(g, c), derivative(g, c))

    def v_norm(self, X):
        # blow-up functional sup|theta_x| + sup|H theta_x|
        g = self.grid
        tx = derivative(g, self._theta(X))
        sup_tx, sup_htx = sup_norm(g, np.stack([tx, hilbert_transform(g, tx)]))
        return float(sup_tx + sup_htx)

    def _sup_velocity(self, X):
        return sup_norm(self.grid, hilbert_transform(self.grid, self._theta(X)))


class SqgOps(_FluidOps):
    """SALT SQG splitting on the 2D torus, mean-zero theta, u = R-perp(theta).

    theta is held as its half spectrum (see spectral).  Norms are
    homogeneous (Lambda^s based), which is where the model's solution space
    lives; they count each column 0 < k2 < n/2 twice.
    """

    kind = "sqg"

    def __init__(self, grid, s, basis, eps):
        super().__init__(grid, s, basis, eps)
        for xi in basis.xis:
            if xi.max_divergence > 1e-12:
                raise ValueError("sqg needs a divergence-free noise basis")

    def _transport(self, c):
        # u.grad(theta), one pair (u_i, d_i theta) at a time: each written
        # straight into a row of the product's two-row buffer and sampled
        # by one inverse transform, the dot product in one forward
        g = self.grid
        rows = (g.dim,) + c.shape
        return dealiased_product(
            g, (rows, lambda i, out: riesz_perp(g, c, i, out)),
            (rows, lambda i, out: derivative(g, c, i, out=out)), dot=True)

    def _inner(self, A, B, s):
        return homogeneous_inner(self.grid, self._theta(A), self._theta(B), s)

    def _norm(self, X, s):
        return homogeneous_norm(self.grid, self._theta(X), s)

    def v_norm(self, X):
        # sup|grad theta| + sup|R grad theta| on the grid nodes, the Riesz
        # part from R_i d_j theta for every i, j
        g = self.grid
        grad = gradient(g, self._theta(X))
        sup_grad, sup_riesz = _sup_lengths(g, (2, 4), itertools.chain(
            grad, (riesz_component(g, d, axis) for d in grad for axis in (0, 1))))
        return sup_grad + sup_riesz

    def _sup_velocity(self, X):
        return _sup_lengths(self.grid, (2,),
                            riesz_perp(self.grid, self._theta(X)))[0]


def _sup_lengths(grid, sizes, fields):
    """For each run of sizes[i] consecutive fields of the iterable fields
    (real 2D fields given by their half spectra), the max over the grid
    nodes of their Euclidean length, as a list of floats: the squares of a
    run are summed in the order given.  The fields are sampled in one
    transform where their coefficients fit spectral.STACK_BYTES together;
    otherwise one at a time, each as the iterable yields it."""
    if sum(sizes) * 16 * np.prod(grid.spec_shape) <= sp.STACK_BYTES:
        samples = iter(to_grid(grid, np.stack(list(fields))))
    else:
        samples = (to_grid(grid, c) for c in fields)
    sups = []
    for size in sizes:
        acc = None
        for _ in range(size):
            v = next(samples)
            v *= v
            acc = v if acc is None else np.add(acc, v, out=acc)
            del v
        # (sqrt is correctly rounded, so monotone: the sqrt of the max is
        # the max of the sqrt)
        sups.append(float(np.sqrt(np.max(acc))))
    return sups


class LinearOps(_FluidOps):
    """Scalar test SDE dX = a X o dW, i.e. dX = a^2 X/2 dt + a X dW in Ito
    form, represented as a constant field so the steppers apply unchanged;
    every operator is a multiple of X (b = 0 X, g = a^2/2 X, h = a X).
    The exact solution X_0 exp(a W_t) pins down strong convergence orders.
    Of the core it takes only the state check and the one-field norms, all
    of them the L^2 norm (s = 0).
    """

    kind = "linear"
    s = 0.0
    # the V-functional is the H^s norm (v_norm = x_norm), so a caller that
    # holds x_norm(X) holds v_norm(X)
    v_is_x_norm = True

    def __init__(self, grid, a):     # not the core's: no basis, no J
        self.grid = grid
        self.shape = (1,) + grid.shape
        self.a = float(a)

    def b(self, X):
        return self._rows(X) * 0.0

    g_transport = b

    def ito_correction(self, X):
        return self._rows(X) * (0.5 * self.a * self.a)

    def g(self, X):
        return self.ito_correction(X)

    def h_k(self, X, k):
        # a fresh array per index, as the fluid models give (the Heun step
        # sums into them); the one Brownian motion has index 0
        X = self._rows(X)
        scalar, ks = _noise_indices(k, 1)
        return X * self.a if scalar else (X * self.a for _ in ks)

    g_eps_transport = g_transport
    g_eps = g
    h_eps_k = h_k

    def value(self, X):
        """The constant the field holds: its k = 0 coefficient."""
        return float(self._rows(X)[(0,) * (1 + self.grid.dim)].real)

    x_inner = z_inner = _FluidOps.x_inner
    x_norm = z_norm = v_norm = _FluidOps.x_norm

    def max_velocity(self, X, limit=None):
        self._rows(X)
        return 0.0

    def exact_solution(self, x0, w_t):
        return x0 * np.exp(self.a * w_t)


OPS_CLASS = {cls.kind: cls for cls in (Sch2Ops, CcfOps, SqgOps, LinearOps)}

# each model class holds every public function of the core that it does not
# define itself in its own vars(), as the same function object:
# perfbench/spans.py wraps only those, so a call is recorded under the class
# that made it
for _cls in OPS_CLASS.values():
    for _name, _fn in vars(_FluidOps).items():
        if (inspect.isfunction(_fn) and not _name.startswith("_")
                and _name not in vars(_cls)):
            setattr(_cls, _name, _fn)
del _cls, _name, _fn


def make_ops(model, grid, s, basis, eps, linear_a=1.0):
    if model not in OPS_CLASS:
        raise ValueError("unknown model %r" % (model,))
    if model == "linear":
        return LinearOps(grid, linear_a)
    return OPS_CLASS[model](grid, s, basis, eps)


def make_initial_state(model, grid, ic, amplitude, seed=0):
    """The model's initial state: ic = "smooth" (its default smooth data),
    "random" (seeded trigonometric data with mild coefficient decay, modes
    up to 4; the linear model's is its smooth one) or "zero"."""
    if model not in FIELD_NAMES:
        raise ValueError("unknown model %r" % (model,))
    if ic not in INITIAL_CONDITIONS:
        raise ValueError("unknown initial condition %r (%s)"
                         % (ic, " | ".join(INITIAL_CONDITIONS)))
    a = float(amplitude)
    if ic == "zero":
        rows = zero_field(grid, len(FIELD_NAMES[model]))
    elif model == "linear":
        rows = zero_field(grid, 1)
        rows[(0,) * (1 + grid.dim)] = a
    elif ic == "random":
        rng = np.random.default_rng(seed)
        rows = [_random_row(grid, a, rng, zero_mean=model == "sqg")
                for _ in FIELD_NAMES[model]]
    elif model == "sch2":
        rows = sp.from_values(grid, [a * np.cos(grid.x), a * np.sin(grid.x)])
    elif model == "ccf":
        rows = sp.from_values(grid, [a * np.cos(grid.x)])
    else:
        x1, x2 = grid.nodes()
        rows = sp.from_values(
            grid, [a * (np.cos(x1) + np.sin(x2) + 0.5 * np.cos(x1 + x2))])
    return ModelState(model, grid, rows)


def _random_row(grid, amplitude, rng, zero_mean, kmax=4):
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
        c = real_part(grid, c)
    # taking the real part of the inverse transform symmetrises a 1D c
    vals = to_grid(grid, c)
    peak = max(float(np.max(np.abs(vals))), 1e-30)
    return sp.from_values(grid, amplitude * vals / peak)
