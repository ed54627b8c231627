"""Numerical verification of the operator inequalities behind the models.

Each ladder check measures ratios LHS/RHS-functional over a random corpus
along a resolution ladder: its local samples(n) sets up rung n and yields
one tuple of ratios per corpus sample, _sups takes the sup of |ratio| over
the corpus per rung, and a NaN ratio makes that sup NaN, which fails the
check.  So does a ladder whose every sup is at most RATIO_FLOOR, and a
check refuses an empty corpus.  The estimates' constants are unknown, so
boundedness across dyadic refinement, i.e. a growth exponent of the sups
against log2(N) below a small threshold, is the testable claim; a
derivative loss shows up as a clearly positive exponent instead.

Corpus design: fixed-seed random trigonometric fields at three roughness
levels (smooth decay |k|^-(s+3), critical decay |k|^-(s+0.6), bandlimited).
The estimates are only sharp near critical regularity, so the critical
corpus is the default.  For the sign-critical cancellation checks the
fields are kept two xi-bandwidths inside the 2/3 dealias band, so every
product appearing in L_xi and L_xi^2 is computed exactly and the measured
quantity is the analytic one rather than a truncation artifact.
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp
from .lie import ds_commutator, lie_derivative
from .models import (DEFAULT_S, FIELD_NAMES, GRID_DIM, S_THRESHOLD, ModelState,
                     make_ops)
from .noise import build_basis, build_basis_1d, constant_basis_1d
from .spectral import (Grid, dealiased_product, derivative, hs_inner,
                       mollify_helmholtz, sobolev_norm, sup_norm)

# the default geometric bases use trigonometric modes 1..K
XI_MAX_MODE = 8

RESOLUTIONS_1D = (64, 128, 256, 512, 1024)
RESOLUTIONS_2D = (64, 128, 256, 512, 1024)
EPS_LADDER = (0.5, 0.25, 0.125, 0.0625)
EXPONENT_THRESHOLD = 0.1


def corpus_kmax(n):
    """Largest mode so that products with xi stay inside the dealias band."""
    return max(4, n // 3 - 2 * XI_MAX_MODE)


_KBIG = 512            # coefficient banks cover modes up to this
_DRAW_ROWS = 64        # rows of a 2D bank's part drawn at once


class CoefficientBank:
    """One random coefficient per mode, drawn once per corpus member.

    A field at resolution N is the band restriction of the same underlying
    random field, so ratios measured on the corpus vary smoothly along a
    resolution ladder instead of being resampled at every rung.

    The bank draws the real and then the imaginary parts of modes up to
    kbig in every direction, in that order whatever it keeps, so kmax
    changes no coefficient.  It keeps the modes up to kmax (default kbig):
    k <= kmax in 1D, the block |k1|, k2 <= kmax in 2D, which is what a
    ladder reading modes up to corpus_kmax of its finest rung needs.  field
    refuses modes beyond kmax.  A 2D part is drawn in blocks of rows into
    one buffer, of which the kept rows are copied out; the draws run in
    the order of one whole draw, so the kept values are the same.
    """

    def __init__(self, dim, rng, kbig=_KBIG, kmax=None):
        kmax = kbig if kmax is None else kmax
        if not 0 <= kmax <= kbig:
            raise ValueError("a bank keeps modes up to kmax in [0, %d], got %r"
                             % (kbig, kmax))
        self.dim, self.kmax = dim, kmax
        if dim == 1:
            block = np.s_[:kmax + 1]
            re = rng.standard_normal(kbig + 1)[block].copy()
            self.raw = re + 1j * rng.standard_normal(kbig + 1)[block]
            return
        # rows kbig - kmax .. kbig + kmax of 2*kbig + 1, columns 0..kmax
        parts = np.empty((2, 2 * kmax + 1, kmax + 1))
        buf = np.empty((_DRAW_ROWS, kbig + 1))
        for part in parts:
            for start in range(0, 2 * kbig + 1, _DRAW_ROWS):
                rows = buf[:min(_DRAW_ROWS, 2 * kbig + 1 - start)]
                rng.standard_normal(out=rows)
                lo = max(start, kbig - kmax)
                hi = min(start + len(rows), kbig + kmax + 1)
                if lo < hi:
                    part[lo - kbig + kmax:hi - kbig + kmax] = \
                        rows[lo - start:hi - start, :kmax + 1]
        self.raw = parts[0] + 1j * parts[1]

    def field(self, grid, alpha, kmax):
        """Zero-mean field with |coeff(k)| ~ |k|^-alpha filled to kmax: the
        real part of the field of the bank's coefficients (k > 0 in 1D,
        k2 > 0 or k2 = 0 < k1 in 2D), decayed and cut at |k| <= kmax."""
        if kmax > self.kmax:
            raise ValueError("field asks for modes up to %d, but the bank kept "
                             "modes up to %d only" % (kmax, self.kmax))
        c = sp.zero_field(grid)
        if self.dim == 1:
            k = np.arange(1, kmax + 1)
            c[k] = self.raw[k] * k.astype(float) ** (-alpha)
            # taking the real part of the inverse transform Hermitian-
            # symmetrises c
            return sp.from_values(grid, np.real(np.fft.ifftn(c * grid.n_total)))
        k1 = np.arange(-kmax, kmax + 1)[:, None]
        k2 = np.arange(0, kmax + 1)[None, :]
        keep = (k2 > 0) | (k1 > 0)
        absk = np.sqrt((k1 * k1 + k2 * k2).astype(float))
        absk_safe = np.where(absk > 0, absk, 1.0)
        amp = np.where(keep, self.raw[k1 + self.kmax, k2], 0.0)
        dec = np.where(keep & (absk <= kmax), absk_safe ** (-alpha), 0.0)
        c[k1 % grid.n, k2] = amp * dec
        return sp.real_part(grid, c)


def corpus_field(grid, s, kind, bank):
    kmax = corpus_kmax(grid.n)
    decay = {"smooth": (s + 3.0, kmax), "critical": (s + 0.6, kmax),
             "bandlimited": (0.0, min(8, kmax))}
    if kind not in decay:
        raise ValueError("unknown corpus kind %r" % (kind,))
    F = bank.field(grid, *decay[kind])
    return (1.0 / sobolev_norm(grid, F, s)) * F


def corpus_banks(dim, count, seed, per_state=1, kmax=None, read=None):
    """count tuples of per_state banks from one generator; the first read
    banks of each tuple (all by default) keep modes up to kmax (all they
    draw by default).  The others are drawn all the same, so the stream
    and every kept coefficient stay those of a full draw, but keep mode 0
    only: a state that reads fewer banks than a tuple holds (ccf's and
    sqg's one field of two) holds no unread modes."""
    rng = np.random.default_rng(seed)
    read = per_state if read is None else read
    return [tuple(CoefficientBank(dim, rng, kmax=kmax if i < read else 0)
                  for i in range(per_state))
            for _ in range(count)]


def _corpus_model(model):
    """model, if the estimate checks have a corpus for it (an s threshold);
    refuses the others, the linear model included."""
    if model not in S_THRESHOLD:
        raise ValueError("unknown model %r; the estimate checks know %s"
                         % (model, " | ".join(S_THRESHOLD)))
    return model


def corpus_state(model, grid, s, banks):
    """The model's state array, checked through ModelState: field i is the
    critical corpus field at s - i, drawn from bank i."""
    return ModelState(_corpus_model(model), grid,
                      [corpus_field(grid, s - i, "critical", banks[i])
                       for i in range(len(FIELD_NAMES[model]))]).coeffs


# fit_exponent floors |ratio| here; a ladder of floors fits slope 0
RATIO_FLOOR = 1e-10


def fit_exponent(ns, ratios):
    """Least-squares slope of log2|ratio| against log2 N (|ratio| floored
    at RATIO_FLOOR)."""
    y = np.log2(np.maximum(np.abs(np.asarray(ratios, dtype=float)), RATIO_FLOOR))
    return float(np.polyfit(np.log2(np.asarray(ns, dtype=float)), y, 1)[0])


@dataclass
class EstimateReport:
    """One check's result: the sup ratio per resolution, its fitted
    exponent against the threshold, the verdict and check-specific details."""

    estimate_id: str
    resolutions: list
    ratios: list                     # sup over corpus, one per resolution
    exponent: float
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)

    def summary_line(self):
        return "%-16s exponent=%+.4f threshold=%.2f ratios[%s..%s] %s" % (
            self.estimate_id, self.exponent, self.threshold,
            "%.3g" % self.ratios[0], "%.3g" % self.ratios[-1],
            "PASS" if self.passed else "FAIL")

    def write(self, filename):
        with open(filename, "w") as fh:
            fh.write("# estimate_id = %s\n" % self.estimate_id)
            fh.write("# exponent = %s\n" % repr(float(self.exponent)))
            fh.write("# threshold = %s\n" % repr(float(self.threshold)))
            fh.write("# passed = %d\n" % int(self.passed))
            for key, val in sorted(self.details.items()):
                if np.isscalar(val):
                    fh.write("# %s = %s\n" % (key, repr(float(val))
                                              if isinstance(val, float) else val))
            fh.write("N ratio\n")
            for n, r in zip(self.resolutions, self.ratios):
                fh.write("%d %s\n" % (n, repr(float(r))))


def _sups(rungs, samples, width=1):
    """Sweep a ladder: samples(rung) yields one tuple of `width` ratios per
    corpus sample.  One list per tuple position holds, per rung, the sup of
    |r| over the corpus: 0.0 for an empty corpus, NaN if any r is NaN."""
    sups = np.zeros((width, len(rungs)))
    for i, rung in enumerate(rungs):
        rows = np.array(list(samples(rung)), dtype=float).reshape(-1, width)
        sups[:, i] = np.max(np.abs(rows), axis=0, initial=0.0)
    return sups.tolist()


def _require_corpus(corpus_count):
    if corpus_count < 1:
        raise ValueError("corpus_count must be >= 1, got %r" % (corpus_count,))


def _finish(estimate_id, resolutions, ratios, threshold, details,
            extra_ok=True):
    """The report of a ladder; it fails on a NaN ratio, and on a ladder
    whose every ratio sits at or below RATIO_FLOOR (it measured nothing)."""
    exponent = fit_exponent(resolutions, ratios) if len(resolutions) > 1 else 0.0
    measured = np.any(np.abs(ratios) > RATIO_FLOOR)
    passed = (np.all(np.isfinite(ratios)) and measured and exponent < threshold
              and extra_ok)
    return EstimateReport(estimate_id, list(resolutions), [float(r) for r in ratios],
                          exponent, threshold, bool(passed), details)


# ---------------------------------------------------------------------------
# Lie cancellation

def cancellation_terms(grid, s, basis, f):
    """Q = (D^s sum L^2 f, D^s f) + sum ||D^s L f||^2 and its first term."""
    acc = np.zeros(f.shape, dtype=np.complex128)
    term2 = 0.0
    for xi in basis.xis:
        lf = lie_derivative(xi, f)
        acc = acc + lie_derivative(xi, lf)
        term2 += sobolev_norm(grid, lf, s) ** 2
    term1 = hs_inner(grid, acc, f, s)
    return term1 + term2, term1


def check_cancellation(s=4.0, resolutions=RESOLUTIONS_1D, K=8,
                       corpus_count=4, seed=7,
                       threshold=EXPONENT_THRESHOLD):
    _require_corpus(corpus_count)
    banks = corpus_banks(1, corpus_count, seed)

    def samples(n):
        grid = Grid(n)
        basis = build_basis_1d(grid, K, s_max=s + 2.0)
        for bank, in banks:
            yield cancellation_terms(grid, s, basis,
                                     corpus_field(grid, s, "critical", bank))
    ratios, raw1 = _sups(resolutions, samples, width=2)
    uncancelled_exponent = fit_exponent(resolutions, raw1)

    # constant-coefficient special case: exact cancellation to round-off
    grid = Grid(256)
    f = corpus_field(grid, s, "critical", corpus_banks(1, 1, seed + 1)[0][0])
    q_const, t1_const = cancellation_terms(grid, s, constant_basis_1d(grid, 0.7), f)
    const_ratio = abs(q_const) / max(abs(t1_const), 1e-30)

    details = {"uncancelled_exponent": uncancelled_exponent,
               "uncancelled_ratios": raw1,
               "const_xi_relative": const_ratio}
    return _finish("cancellation", resolutions, ratios, threshold, details,
                   extra_ok=uncancelled_exponent >= 0.5 and const_ratio < 1e-10)


# ---------------------------------------------------------------------------
# Kato-Ponce commutator

def kato_ponce_ratio(grid, s, f, g):
    lhs = sobolev_norm(grid, ds_commutator(grid, s, f, g), 0.0)
    rhs = (sup_norm(grid, derivative(grid, f)) * sobolev_norm(grid, g, s - 1.0)
           + sobolev_norm(grid, f, s) * sup_norm(grid, g))
    return lhs / rhs


def check_kato_ponce(s=4.0, resolutions=RESOLUTIONS_1D, corpus_count=4,
                     seed=11, threshold=EXPONENT_THRESHOLD):
    _require_corpus(corpus_count)
    banks = corpus_banks(1, corpus_count, seed, per_state=2)

    def samples(n):
        grid = Grid(n)
        for bf, bg in banks:
            yield (kato_ponce_ratio(grid, s, corpus_field(grid, s, "critical", bf),
                                    corpus_field(grid, s, "critical", bg)),)
    ratios, = _sups(resolutions, samples)
    return _finish("kato_ponce", resolutions, ratios, threshold, {})


# ---------------------------------------------------------------------------
# Helmholtz-mollifier transport commutator

def helmholtz_commutator_ratio(grid, eps, g, f):
    # g times the derivatives of f and of J_eps f, in one product
    adv, adv_after = dealiased_product(
        grid, g, derivative(grid, np.stack([f, mollify_helmholtz(grid, f, eps)])))
    comm = mollify_helmholtz(grid, adv, eps) - adv_after
    rhs = sup_norm(grid, derivative(grid, g)) * sobolev_norm(grid, f, 0.0)
    return sobolev_norm(grid, comm, 0.0) / rhs


def check_helmholtz_commutator(eps_list=tuple(2.0 ** -j for j in range(1, 9)),
                               resolutions=RESOLUTIONS_1D, corpus_count=3,
                               seed=13, threshold=EXPONENT_THRESHOLD):
    _require_corpus(corpus_count)
    banks = corpus_banks(1, corpus_count, seed)

    def samples(n):
        grid = Grid(n)
        rng = np.random.default_rng(seed + n)
        for bank, in banks:
            g = corpus_field(grid, 4.0, "smooth", bank)
            # white-noise-like rough field: only L2 regularity is assumed
            f = sp.from_values(grid, rng.standard_normal(grid.shape))
            yield tuple(helmholtz_commutator_ratio(grid, eps, g, f)
                        for eps in eps_list)
    per_eps = _sups(resolutions, samples, width=len(eps_list))
    ratios = np.max(per_eps, axis=0, initial=0.0)
    details = {"eps_list": list(eps_list),
               "per_eps_final": [col[-1] for col in per_eps]}
    return _finish("helmholtz_commutator", resolutions, ratios, threshold, details)


# ---------------------------------------------------------------------------
# growth conditions on the regularised family

def growth_ratios(ops, X, xn2, v):
    """(energy-growth ratio, diffusion-pairing ratio) at the ops' epsilon;
    xn2 = ops.x_inner(X, X) and v = ops.v_norm(X), which no epsilon
    changes, so a caller takes them once per state."""
    lhs_energy = 2.0 * ops.x_inner(ops.g_eps(X), X)
    lhs_pair = 0.0
    for h in ops.h_eps_k(X, range(ops.basis.K)):
        lhs_energy += ops.x_inner(h, h)
        lhs_pair += ops.x_inner(h, X) ** 2
    return lhs_energy / ((1.0 + v) * xn2), lhs_pair / ((1.0 + v) * xn2 * xn2)


def check_growth(model, s=None, eps_list=None, resolutions=None,
                 corpus_count=3, K=8, seed=17, threshold=EXPONENT_THRESHOLD):
    _require_corpus(corpus_count)
    s = DEFAULT_S[_corpus_model(model)] if s is None else s
    dim = GRID_DIM[model]
    if eps_list is None:
        # the eps-sweep burden sits on the cheap 1D suites; 2D samples two
        eps_list = (0.5, 0.125) if dim == 2 else EPS_LADDER
    if resolutions is None:
        resolutions = RESOLUTIONS_2D if dim == 2 else RESOLUTIONS_1D
    banks = corpus_banks(dim, corpus_count, seed, per_state=2,
                         kmax=corpus_kmax(max(resolutions)),
                         read=len(FIELD_NAMES[model]))

    def samples(n):
        grid = Grid(n, dim=dim)
        basis = build_basis(grid, K, s_max=s + 2.0)
        states = [corpus_state(model, grid, s, b) for b in banks]
        norms = None
        for eps in eps_list:
            ops = make_ops(model, grid, s, basis, eps)
            if norms is None:
                norms = [(ops.x_inner(X, X), ops.v_norm(X)) for X in states]
            for X, (xn2, v) in zip(states, norms):
                yield growth_ratios(ops, X, xn2, v)
    ratios, ratios_pair = _sups(resolutions, samples, width=2)
    exp_pair = fit_exponent(resolutions, ratios_pair)
    details = {"pairing_ratios": ratios_pair, "pairing_exponent": exp_pair,
               "eps_list": list(eps_list)}
    return _finish("growth_%s" % model, resolutions, ratios, threshold, details,
                   extra_ok=exp_pair < threshold)


# ---------------------------------------------------------------------------
# monotonicity-type difference estimate

def difference_ratio(ops, X, Y):
    diff = X - Y
    zn2 = ops.z_inner(diff, diff)
    # g and h^k return fresh arrays: the differences are formed in place
    gd = ops.g(X)
    gd -= ops.g(Y)
    lhs = 2.0 * ops.z_inner(gd, diff)
    del gd
    # every h^k of X, then of Y: on a 1D grid each state's first-order
    # terms are formed once (alternating the states would form them per k)
    ks = range(ops.basis.K)
    for hx, hy in zip(ops.h_k(X, ks), ops.h_k(Y, ks)):
        hx -= hy
        lhs += ops.z_inner(hx, hx)
    rhs = (1.0 + ops.x_norm(X) ** 2 + ops.x_norm(Y) ** 2) * zn2
    return lhs / rhs


def check_difference(model, s=None, resolutions=None, corpus_count=3, K=8,
                     seed=19, threshold=EXPONENT_THRESHOLD):
    _require_corpus(corpus_count)
    s = DEFAULT_S[_corpus_model(model)] if s is None else s
    dim = GRID_DIM[model]
    if resolutions is None:
        resolutions = RESOLUTIONS_2D if dim == 2 else RESOLUTIONS_1D
    banks = corpus_banks(dim, 2 * corpus_count, seed, per_state=2,
                         kmax=corpus_kmax(max(resolutions)),
                         read=len(FIELD_NAMES[model]))

    def samples(n):
        grid = Grid(n, dim=dim)
        basis = build_basis(grid, K, s_max=s + 2.0)
        ops = make_ops(model, grid, s, basis, 0.5)
        for i in range(corpus_count):
            X = corpus_state(model, grid, s, banks[2 * i])
            Y = corpus_state(model, grid, s, banks[2 * i + 1])
            # the first pair is nearby: its difference is one rough direction
            yield (difference_ratio(ops, X, X + 1e-3 * Y if i == 0 else Y),)
    ratios, = _sups(resolutions, samples)
    return _finish("difference_%s" % model, resolutions, ratios, threshold, {})


# ---------------------------------------------------------------------------
# optional deterministic log-interpolation check

def log_interpolation_ratio(grid, theta):
    tx = derivative(grid, theta)
    lhs = sup_norm(grid, sp.hilbert_transform(grid, tx))
    rhs = 1.0 + sup_norm(grid, tx) * np.log(np.e + sobolev_norm(grid, tx, 1.0)) \
        + sobolev_norm(grid, tx, 0.0)
    return lhs / rhs


def check_log_interpolation(n=1024, modes=64, corpus_count=4, seed=23):
    _require_corpus(corpus_count)
    grid = Grid(n)
    thetas = [sp.from_values(grid, np.cos(m * grid.x)) for m in range(1, modes + 1)]
    thetas += [corpus_field(grid, 2.0, "critical", b)
               for b, in corpus_banks(1, corpus_count, seed)]
    all_r = [log_interpolation_ratio(grid, theta) for theta in thetas]
    mode_ratios, corpus_ratios = all_r[:modes], all_r[modes:]
    passed = bool(np.all(np.isfinite(all_r)))
    details = {"max_mode_ratio": float(np.max(mode_ratios)),
               "max_corpus_ratio": float(np.max(corpus_ratios)),
               "informational": "yes"}
    return EstimateReport("log_interpolation", [n], [float(np.max(all_r))], 0.0,
                          float("inf"), passed, details)


# ---------------------------------------------------------------------------
# registry

ESTIMATE_RUNNERS = {
    "cancellation": lambda: check_cancellation(),
    "kato_ponce": lambda: check_kato_ponce(),
    "helmholtz_commutator": lambda: check_helmholtz_commutator(),
    **{"growth_" + m: (lambda m=m: check_growth(m)) for m in S_THRESHOLD},
    **{"difference_" + m: (lambda m=m: check_difference(m))
       for m in S_THRESHOLD},
    "log_interpolation": lambda: check_log_interpolation(),
}

ESTIMATE_IDS = tuple(ESTIMATE_RUNNERS)


def parse_estimate_ids(text):
    """The ids a comma-separated list names, in order; blank entries are
    skipped and "all" alone names every id.  Refuses an empty list, an
    unknown or repeated id, and "all" among other ids."""
    ids = [tok.strip() for tok in text.split(",") if tok.strip()]
    if ids == ["all"]:
        return list(ESTIMATE_IDS)
    unknown = [repr(i) for i in ids if i not in ESTIMATE_IDS + ("all",)]
    repeated = sorted(repr(i) for i in set(ids) if ids.count(i) > 1)
    for bad, message in ((not ids, "no estimate id given"),
                         ("all" in ids, "'all' must stand alone"),
                         (unknown, "unknown id %s; valid ids: all | %s"
                          % (", ".join(unknown), " | ".join(ESTIMATE_IDS))),
                         (repeated, "repeated id %s" % ", ".join(repeated))):
        if bad:
            raise ValueError(message)
    return ids


def run_estimates(ids):
    for eid in ids:
        if eid not in ESTIMATE_RUNNERS:
            raise ValueError("unknown estimate id %r; valid ids: %s"
                             % (eid, ", ".join(ESTIMATE_IDS)))
    return [ESTIMATE_RUNNERS[eid]() for eid in ids]


def summary_table(reports):
    return "\n".join(["estimate         result"]
                     + [rep.summary_line() for rep in reports])
