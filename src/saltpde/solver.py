"""Time integration of the cut-off, regularised problem.

The reference scheme is Euler-Maruyama on the Ito form

    X' = X + chi_R(||X||_V)^2 (b + g_eps)(X) dt
           + chi_R(||X||_V) sum_k h_eps^k(X) dW_k,

where chi_R is a smooth cut-off equal to 1 on [0,R] and 0 beyond 2R, and
||.||_V is the model's blow-up functional.  A Heun predictor-corrector on
the Stratonovich form (no Ito correction term) is provided purely for
cross-validation of the stochastic-calculus bookkeeping.

chi_R is evaluated exactly, on ops.v_norm, only where the V-norm may
reach R.  run_path hands each step the V-norm its monitor already holds;
elsewhere (the Heun predictor, stability_experiment, a step called without
v) a transform-free coefficient bound decides chi_R = 1 whenever it lies
below R, and chi_R is evaluated on ops.v_norm otherwise (_chi).  A step of
run_path then makes 7 transforms for ccf Ito-EM at K = 4, monitors
included.  An sqg Stratonovich-Heun step makes 12: three per transport
term (an inverse of each pair (u_i, d_i theta), a forward of their dot
product), each a real transform of half spectra (a complex numpy pass
along the first axis and a real one along the last), and one complex
transform of a whole spectrum per real field for the V-norm (six).  The
CFL check reads the velocity's coefficient bound (models'
max_velocity), which on the shipped runs stays far below its limit, and
transforms only where the bound does not decide it.

run_path and stability_experiment build no grid, basis or ops: b, g_eps
and h_eps^k are fixed maps, and a caller hands every run the one ops it
built (cfg.build_ops()).

Stopping is checked every step against the H^s norm threshold (the
discrete analogue of the first-exit stopping time), against a blow-up
indicator (growth of the V-functional beyond a configurable multiple of
its initial value), against loss of finiteness, and by a CFL-style guard
against advection speeds that outrun the grid (stop reason "cfl").
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .models import (FIELD_NAMES, GRID_DIM, INITIAL_CONDITIONS, S_THRESHOLD,
                     make_initial_state, make_ops)
from .noise import build_basis, check_decay, sample_path
from .spectral import Grid, full_spectrum, lipschitz_bound


def _smooth_step(t):
    # C-infinity step: exactly 0 for t <= 0, exactly 1 for t >= 1
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def chi_cutoff(v, R):
    """Smooth cut-off: 1 on [0, R], monotone transition, 0 beyond 2R."""
    if R <= 1.0:
        raise ValueError("cut-off radius must satisfy R > 1, got %r" % (R,))
    if v < 0.0:
        raise ValueError("cut-off argument must be >= 0")
    return _smooth_step((2.0 * R - v) / R)


@dataclass
class SimConfig:
    """Everything a single trajectory needs.

    The defaults are the config defaults, except s, noise_s_max and
    record_every, which parse_config derives from the model, s and n_steps.
    """

    model: str = "ccf"
    n: int = 128
    dt: float = 1e-3
    t_end: float = 0.1
    s: float = 4.0
    epsilon: float = 0.0625
    cutoff_r: float = 1e6
    noise_k: int = 4
    noise_s_max: float = 6.0
    noise_decay: str = "geometric"
    noise_decay_param: float = 0.5
    seed: int = 0
    n_stop: float = 1e6
    blowup_factor: float = 50.0
    record_every: int = 1
    ic: str = "smooth"
    ic_amplitude: float = 0.1
    linear_a: float = 1.0
    scheme: str = "ito_em"

    def validate(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.model not in FIELD_NAMES:
            raise ValueError("unknown model %r" % (self.model,))
        Grid.check_n(self.n)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0,1)")
        if self.cutoff_r <= 1.0:
            raise ValueError("cutoff_r must exceed 1")
        if self.noise_k < 0:
            raise ValueError("noise_k must be >= 0")
        if self.model != "linear":
            try:
                check_decay(self.noise_decay, self.noise_decay_param)
            except ValueError as exc:
                raise ValueError("noise_decay, noise_decay_param: %s" % exc) from None
        if self.model == "linear" and self.noise_k > 1:
            raise ValueError("the linear test SDE drives a single Brownian "
                             "motion; noise_k must be 0 or 1")
        if self.model in S_THRESHOLD and self.s <= S_THRESHOLD[self.model]:
            raise ValueError(
                "s = %r violates the %s well-posedness requirement s > %s"
                % (self.s, self.model, S_THRESHOLD[self.model]))
        if self.ic not in INITIAL_CONDITIONS:
            raise ValueError("ic must be one of %s, got %r"
                             % (" | ".join(INITIAL_CONDITIONS), self.ic))
        if self.scheme not in ("ito_em", "strat_heun"):
            raise ValueError("scheme must be ito_em or strat_heun")
        if self.n_stop <= 0:
            raise ValueError("n_stop must be positive")
        if self.blowup_factor <= 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %r" % (self.seed,))
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        return self

    def n_steps(self):
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        return steps

    def grid(self):
        return Grid(self.n, dim=GRID_DIM[self.model])

    def build_basis(self, grid):
        if self.model == "linear":
            return None
        return build_basis(grid, self.noise_k, self.noise_s_max,
                           self.noise_decay, self.noise_decay_param)

    def build_ops(self, grid=None, basis=None):
        grid = self.grid() if grid is None else grid
        basis = self.build_basis(grid) if basis is None else basis
        return make_ops(self.model, grid, self.s, basis, self.epsilon,
                        self.linear_a)

    def initial_state(self, grid):
        return make_initial_state(self.model, grid, self.ic,
                                  self.ic_amplitude, self.seed)

    def path_k(self):
        # the linear model consumes one Brownian component
        return max(self.noise_k, 1) if self.model == "linear" else self.noise_k


@dataclass
class TrajectoryRecord:
    """Sampled norms of one trajectory plus its stopping data."""

    model: str = ""
    times: list = field(default_factory=list)
    hs_norms: list = field(default_factory=list)
    v_norms: list = field(default_factory=list)
    stopped: bool = False
    tau: float = 0.0
    stop_reason: str = "end"
    final_state: object = None      # coefficient array, or None

    def add(self, t, hs, v):
        self.times.append(float(t))
        self.hs_norms.append(float(hs))
        self.v_norms.append(float(v))


def _chi(ops, X, R):
    """chi_R(||X||_V), decided without a transform where a bound proves it 1.

    With B(X) = 2 sum_rows sum_k (1+|k|)|X(k)| (spectral.lipschitz_bound),
    every model's V-norm is at most B(X), because |f(x)| <= sum_k |f(k)|
    bounds the grid samples of any field f, and a multiplier of modulus
    (or Frobenius norm) at most |k| bounds them by sum_k |k||f(k)|:

      sch2    sup|u| + sup|u_x| + sup|eta| + sup|eta_x|
              <= sum_k (1+|k|)(|u(k)| + |eta(k)|);
      ccf     sup|theta_x| + sup|H theta_x|, two symbols of modulus |k|;
      sqg     sup|grad theta| + sup|R grad theta|_F, where grad has the
              symbol i*k and R_i d_j the matrix -k_i k_j/|k| of Frobenius
              norm |k|;
      linear  the L2 norm, at most sum_k |X(k)|.

    (A 2D state holds its half spectrum, and lipschitz_bound counts each
    column 0 < k2 < n/2 twice, for k and -k; a zeroed Nyquist mode only
    lowers a sup.)  chi_R is 1 on [0, R], so
    B(X)(1 + 1e-9) <= R gives chi_R(B(X)) = 1.0, which chi_cutoff returns
    for every float v <= R; the margin covers the transforms' round-off in
    ops.v_norm.  Otherwise, a non-finite B included, chi_R is evaluated on
    ops.v_norm(X).  Either way chi_cutoff refuses R <= 1.
    """
    bound = 2.0 * lipschitz_bound(ops.grid, X)
    if bound * (1.0 + 1e-9) <= R:
        return chi_cutoff(bound, R)
    return chi_cutoff(ops.v_norm(X), R)


def step_ito_em(X, ops, dw, dt, R, v=None):
    """One Euler-Maruyama step of the cut-off Ito-form problem.

    dw holds the Brownian increments of this step (one per noise index).
    v is ops.v_norm(X) if the caller already holds it; if None, chi_R is
    decided by _chi.  A state with chi_R = 0 (V-norm beyond 2R) is an
    exact fixed point.
    """
    chi = _chi(ops, X, R) if v is None else chi_cutoff(v, R)
    if chi == 0.0:
        return X
    drift = ops.b(X) + ops.g_eps(X)
    out = X + (chi * chi * dt) * drift
    ks = [k for k in range(len(dw)) if dw[k] != 0.0]
    for k, h in zip(ks, ops.h_eps_k(X, ks)):
        out = out + (chi * dw[k]) * h
    return out


def step_strat_heun(X, ops, dw, dt, R, v=None):
    """Heun (midpoint-predictor) step of the cut-off Stratonovich form.

    Uses the transport drift only; the Ito correction is generated by the
    scheme itself, which is exactly what the cross-validation against
    step_ito_em exercises.  v is ops.v_norm(X), as in step_ito_em; the
    predictor's chi_R is decided by _chi.  The sums run in place on the
    fresh arrays the operators return, in the order of the textbook form
    X + dt/2 (f0 + f1) + sum_k dW_k/2 (chi0 h0_k + chi1 h1_k).
    """
    def drift(Y, chi):
        f = ops.b(Y) + ops.g_eps_transport(Y)
        if chi != 1.0:
            f *= chi * chi
        return f

    chi0 = _chi(ops, X, R) if v is None else chi_cutoff(v, R)
    f0 = drift(X, chi0)
    ks = [k for k in range(len(dw)) if dw[k] != 0.0]
    h0 = list(ops.h_eps_k(X, ks))
    pred = X + dt * f0
    for k, h in zip(ks, h0):
        pred += (chi0 * dw[k]) * h

    chi1 = _chi(ops, pred, R)
    f0 += drift(pred, chi1)
    f0 *= 0.5 * dt
    out = X + f0
    for k, h, h1 in zip(ks, h0, ops.h_eps_k(pred, ks)):
        if chi0 != 1.0:
            h *= chi0
        if chi1 != 1.0:
            h1 *= chi1
        h += h1
        h *= 0.5 * dw[k]
        out += h
    return out


_STEPPERS = {"ito_em": step_ito_em, "strat_heun": step_strat_heun}


def _setup(cfg, ops, path, **states):
    """(n_steps, path, the coefficients of each ModelState of states) of
    a run of cfg on ops, each cfg's model on cfg's grid (a state None is
    cfg's initial state); a path None is the seed's, a supplied one needs
    exactly cfg.path_k() components and at least cfg.n_steps() steps."""
    cfg.validate()
    n_steps, K, grid = cfg.n_steps(), cfg.path_k(), ops.grid
    if ops.kind != cfg.model or (grid.n, grid.dim) != (cfg.n, GRID_DIM[cfg.model]):
        raise ValueError("ops are %s ops on %r; this run needs %s ops on %r"
                         % (ops.kind, grid, cfg.model, cfg.grid()))
    if path is None:
        path = sample_path(cfg.seed, cfg.dt, n_steps, K)
    elif path.K != K or path.n_steps < n_steps:
        raise ValueError("supplied Brownian path has %d steps x %d components; "
                         "this run needs at least %d steps x exactly %d"
                         % (path.n_steps, path.K, n_steps, K))
    for name, X in states.items():
        X = cfg.initial_state(grid) if X is None else X
        if X.kind != cfg.model or not X.grid.compatible(grid):
            raise ValueError("%s is a %s state on %r; this run needs a %s "
                             "state on %r" % (name, X.kind, X.grid, cfg.model, grid))
        states[name] = X.coeffs
    return (n_steps, path, *states.values())


def run_path(cfg, ops, path=None, X0=None, keep_final_state=True):
    """Integrate one trajectory of cfg on ops; returns the TrajectoryRecord.

    Stops at the first sample where the H^s norm reaches n_stop (discrete
    first-exit time), when the V-functional grows past blowup_factor times
    its initial value, when the state stops being finite, or before a step
    whose dt * max|velocity| would exceed half a grid spacing ("cfl": tau
    is the time of the offending state, and the record ends with its row).
    X0, if given, is a ModelState of cfg's model on cfg's grid; the record's
    final_state is the final coefficient array.
    """
    n_steps, path, X = _setup(cfg, ops, path, X0=X0)
    step = _STEPPERS[cfg.scheme]
    rec = TrajectoryRecord(model=cfg.model)

    hs = ops.x_norm(X)
    v = ops.v_norm(X)
    v_ref = max(v, 1e-30)
    rec.add(0.0, hs, v)
    reason = "threshold" if hs >= cfg.n_stop else None

    # after a step: one H^s norm, which is also the V-norm where the model
    # says so (v_is_x_norm).  x_norm weighs every coefficient of every row,
    # so a NaN or inf coefficient makes it non-finite; the state is scanned
    # only then, and a finite state whose norm overflows is not "diverged"
    dws = path.increments.tolist()
    # the velocity a step may reach: max_velocity answers with a coefficient
    # bound, without a transform, wherever that bound decides the check
    cfl_limit = 0.5 * ops.grid.dx
    speed_limit = cfl_limit / cfg.dt
    t = 0.0
    for nstep in range(0 if reason else n_steps):
        if cfg.dt * ops.max_velocity(X, speed_limit) > cfl_limit:
            reason = "cfl"
            if rec.times[-1] != t:
                rec.add(t, hs, v)
            break
        X = step(X, ops, dws[nstep], cfg.dt, cfg.cutoff_r, v)
        t = (nstep + 1) * cfg.dt
        hs = ops.x_norm(X)
        if not math.isfinite(hs) and not np.isfinite(X).all():
            reason = "diverged"     # no row: the norms are not finite
            break
        v = hs if ops.v_is_x_norm else ops.v_norm(X)
        if hs >= cfg.n_stop:
            reason = "threshold"
        elif v >= cfg.blowup_factor * v_ref:
            reason = "blowup_indicator"
        if reason or (nstep + 1) % cfg.record_every == 0 or nstep + 1 == n_steps:
            rec.add(t, hs, v)
        if reason:
            break
    rec.stopped = reason is not None
    rec.tau = t if rec.stopped else cfg.t_end
    rec.stop_reason = reason or "end"
    rec.final_state = X if keep_final_state else None
    return rec


@dataclass
class StabilityReport:
    """The outcome of stability_experiment: the initial and sup
    H^{s-2} distances, their ratio, the joint exit time and steps used."""

    distance0: float
    sup_distance: float
    ratio: float          # nan when distance0 == 0
    tau_joint: float
    n_steps_used: int


def stability_experiment(cfg, ops, X0, Y0, path=None):
    """Same-noise two-trajectory experiment behind the pathwise-stability
    estimate: both runs share the Brownian path and are stopped at the
    joint first-exit time from the ball of radius M+2 in the H^s norm,
    M = max of the initial norms.  Reports sup_t ||X - Y||_{H^{s-2}} and
    its ratio to the initial distance.  X0 and Y0 are ModelStates of cfg's
    model on cfg's grid, and ops cfg's set-up, as in run_path.
    """
    n_steps, path, X0, Y0 = _setup(cfg, ops, path, X0=X0, Y0=Y0)

    M = max(ops.x_norm(X0), ops.x_norm(Y0))
    threshold = M + 2.0
    step = _STEPPERS[cfg.scheme]

    d0 = ops.z_norm(X0 - Y0)
    sup_d = d0
    X, Y = X0, Y0
    t = 0.0
    used = 0
    dws = path.increments.tolist()
    for nstep in range(n_steps):
        dw = dws[nstep]
        X = step(X, ops, dw, cfg.dt, cfg.cutoff_r)
        Y = step(Y, ops, dw, cfg.dt, cfg.cutoff_r)
        t = (nstep + 1) * cfg.dt
        used = nstep + 1
        sup_d = max(sup_d, ops.z_norm(X - Y))
        if ops.x_norm(X) > threshold or ops.x_norm(Y) > threshold:
            break
    ratio = sup_d / d0 if d0 > 0.0 else float("nan")
    return StabilityReport(distance0=d0, sup_distance=sup_d, ratio=ratio,
                           tau_joint=t, n_steps_used=used)


# ---------------------------------------------------------------------------
# trajectory serialisation (columnar text, full round-trip precision)

def write_trajectory(rec, filename):
    with open(filename, "w") as fh:
        fh.write("# model = %s\n" % rec.model)
        fh.write("# stopped = %d\n" % int(rec.stopped))
        fh.write("# tau = %s\n" % repr(float(rec.tau)))
        fh.write("# stop_reason = %s\n" % rec.stop_reason)
        fh.write("t Hs_norm V_norm stopped\n")
        n = len(rec.times)
        for i in range(n):
            flag = int(rec.stopped and i == n - 1)
            fh.write("%s %s %s %d\n" % (repr(rec.times[i]),
                                        repr(rec.hs_norms[i]),
                                        repr(rec.v_norms[i]), flag))


def read_trajectory(filename):
    rec = TrajectoryRecord()
    with open(filename) as fh:
        lines = fh.read().splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif line and not line[0].isalpha():
            body.append(line.split())
    rec.model = meta.get("model", "")
    rec.stopped = bool(int(meta.get("stopped", "0")))
    rec.tau = float(meta.get("tau", "0"))
    rec.stop_reason = meta.get("stop_reason", "end")
    for row in body:
        rec.add(float(row[0]), float(row[1]), float(row[2]))
    return rec


def write_state_snapshot(kind, g, X, filename):
    """Flat coefficient table of a kind state X on grid g: one row per mode
    of the whole spectrum (fft order) and field component; the modes
    k2 < 0 of a 2D state are the conjugates of those it holds."""
    k_axes = g.full.k_axes
    with open(filename, "w") as fh:
        fh.write("# model = %s\n" % kind)
        fh.write("field k1 k2 re im\n")
        for name, row in zip(FIELD_NAMES[kind], X):
            row = full_spectrum(g, row)
            for idx in np.ndindex(*g.shape):
                k1 = int(k_axes[0][idx])
                k2 = int(k_axes[1][idx]) if g.dim == 2 else 0
                c = row[idx]
                fh.write("%s %d %d %s %s\n"
                         % (name, k1, k2, repr(float(c.real)), repr(float(c.imag))))
