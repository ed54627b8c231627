"""The 2D half-spectrum layout against the whole-spectrum formulas.

Every 2D function of saltpde.spectral and every SqgOps method runs on the
half spectrum and is compared with the formulas the package evaluated on
the whole n x n spectrum before (one complex transform per real field, the
stencil sum over every mode), on the modes the half spectrum holds.  Both
are measured against the same whole-spectrum formulas in long double
(numpy transforms clongdouble natively, epsilon 1.1e-19), in ulps of the
largest reference value, per function and corpus state.  Round-off of the
same size on two routes lands on either side by luck (over this table the
half route wins 57 cases, loses 55 and ties 134), so the half route must
be no farther from long double than the formulas in float64 summed over
the table (measured: 332 ulps against 429), and in each case within
4 times the formulas' error plus 4 ulps (the largest excess measured is
13.6 ulps, an inner product of two fields whose terms cancel, where the
formulas are 20 ulps off): a wrong conjugate read or a column counted
once would be off by the value itself.  Multipliers, weights and the
mollifier symbol are the whole spectrum's own, bit for bit.
"""

import numpy as np
import pytest

import oracle_ops
from saltpde import spectral as sp
from saltpde.estimates import corpus_banks, corpus_state
from saltpde.models import make_ops
from saltpde.noise import build_basis_sqg

S, EPS = 4.5, 0.0625


class Whole:
    """The whole-spectrum formulas, every operation in dtype."""

    def __init__(self, grid, dtype, jhat):
        full = grid.full_modes()
        self.grid, self.dtype = grid, dtype
        self.n_total = grid.n_total
        self.keep, self.nyq = full.dealias_keep, full.not_nyquist
        self.k = [np.asarray(a, dtype=dtype) for a in full.k_axes]
        self.ksq = self.k[0] * self.k[0] + self.k[1] * self.k[1]
        absk = np.sqrt(self.ksq)
        self.inv = np.zeros(grid.shape, dtype=dtype)
        np.divide(1.0, absk, out=self.inv, where=absk > 0)
        self.jhat = np.asarray(jhat, dtype=dtype)

    def coeffs(self, c):
        """The whole spectrum of half-spectrum coefficients c, in dtype."""
        return sp.full_spectrum(self.grid, c).astype(
            np.result_type(self.dtype, np.complex64))

    def from_values(self, v):
        v = np.asarray(v, dtype=self.dtype)
        return np.fft.fftn(v, axes=(-2, -1)) / self.n_total

    def to_grid(self, c):
        return np.real(np.fft.ifftn(c * self.n_total, axes=(-2, -1)))

    def band_values(self, c):
        return self.to_grid(c * self.keep)

    def product(self, f, g):
        v = self.band_values(f) * self.band_values(g)
        return (np.fft.fftn(v, axes=(-2, -1)) / self.n_total) * self.keep

    def derivative(self, c, axis):
        return c * (1j * self.k[axis] * self.nyq)

    def riesz(self, c, axis):
        return c * (1j * self.k[axis] * self.inv * self.nyq)

    def weight(self, s, homogeneous=False):
        if not homogeneous:
            return (1.0 + self.ksq) ** s
        w = np.zeros(self.grid.shape, dtype=self.dtype)
        nz = self.ksq > 0
        w[nz] = self.ksq[nz] ** s
        return w

    def inner(self, f, g, s, homogeneous=False):
        return (self.weight(s, homogeneous) * f * np.conj(g)).sum().real

    def norm(self, c, s, homogeneous=False):
        return np.sqrt((self.weight(s, homogeneous) * np.abs(c) ** 2).sum())

    def lie(self, stencil, c):
        # keep(k) sum_s i(a1 k1 + a2 k2) (keep c)(k - s), the parent's
        # stencil sum (its slices wrap nothing into the band)
        kc = c * self.keep
        acc = np.zeros_like(kc)
        for (s1, s2), (a1, a2) in stencil:
            sym = (1j * a1) * self.k[0] + (1j * a2) * self.k[1]
            acc += sym * np.roll(kc, (s1, s2), axis=(-2, -1))
        return acc * self.keep

    def transport(self, c, mollified):
        th = c * self.jhat if mollified else c
        adv = self.product(self.riesz(th, 1), self.derivative(th, 0)) \
            + self.product(-self.riesz(th, 0), self.derivative(th, 1))
        return -(adv * self.jhat if mollified else adv)

    def ito(self, basis, c, mollified):
        cc = c * self.jhat if mollified else c
        acc = np.zeros_like(cc)
        for xi in basis.xis:
            acc = acc + self.lie(xi._stencil, self.lie(xi._stencil, cc))
        acc = 0.5 * acc
        return acc * self.jhat ** 3 if mollified else acc

    def h(self, xi, c, mollified):
        if not mollified:
            return -self.lie(xi._stencil, c)
        return -(self.lie(xi._stencil, c * self.jhat) * self.jhat)

    def v_norm(self, c):
        d = [self.derivative(c, axis) for axis in (0, 1)]
        v = [self.to_grid(x) for x in d]
        r = [self.to_grid(self.riesz(x, axis)) for x in d for axis in (0, 1)]
        return np.max(np.sqrt(v[0] * v[0] + v[1] * v[1])) \
            + np.max(np.sqrt(sum(x * x for x in r)))

    def max_velocity(self, c):
        u1, u2 = self.to_grid(self.riesz(c, 1)), self.to_grid(-self.riesz(c, 0))
        return np.max(np.sqrt(u1 * u1 + u2 * u2))


def cases(g, ops):
    """(name, half-spectrum route, whole-spectrum formula) of every 2D
    function, the route on (theta, f) half spectra and the formula on
    whole ones (W a Whole)."""
    basis = ops.basis
    out = [
        ("from_values", lambda t, f: sp.from_values(g, sp.to_grid(g, t)),
         lambda W, t, f, v: W.from_values(v)),
        ("to_grid", lambda t, f: sp.to_grid(g, t),
         lambda W, t, f, v: W.to_grid(t)),
        ("band_values", lambda t, f: sp.band_values(g, t),
         lambda W, t, f, v: W.band_values(t)),
        ("dealiased_product", lambda t, f: sp.dealiased_product(g, t, f),
         lambda W, t, f, v: W.product(t, f)),
        ("dealiased_product(dot)", lambda t, f: sp.dealiased_product(
            g, np.stack(sp.riesz_perp(g, t)), np.stack(sp.gradient(g, f)),
            dot=True),
         lambda W, t, f, v: W.product(W.riesz(t, 1), W.derivative(f, 0))
         + W.product(-W.riesz(t, 0), W.derivative(f, 1))),
        ("bessel_multiplier", lambda t, f: sp.bessel_multiplier(g, t, 1.5),
         lambda W, t, f, v: t * (1.0 + W.ksq) ** 0.75),
        ("mollify_helmholtz", lambda t, f: sp.mollify_helmholtz(g, t, 0.3),
         lambda W, t, f, v: t * (1.0 / (1.0 + 0.09 * W.ksq))),
        ("sobolev_norm", lambda t, f: sp.sobolev_norm(g, t, 2.5),
         lambda W, t, f, v: W.norm(t, 2.5)),
        ("homogeneous_norm", lambda t, f: sp.homogeneous_norm(g, t, 2.5),
         lambda W, t, f, v: W.norm(t, 2.5, True)),
        ("hs_inner", lambda t, f: sp.hs_inner(g, t, f, 1.5),
         lambda W, t, f, v: W.inner(t, f, 1.5)),
        ("homogeneous_inner", lambda t, f: sp.homogeneous_inner(g, t, f, 1.5),
         lambda W, t, f, v: W.inner(t, f, 1.5, True)),
        ("sup_norm", lambda t, f: sp.sup_norm(g, t),
         lambda W, t, f, v: np.max(np.abs(W.to_grid(t)))),
        ("lipschitz_bound", lambda t, f: sp.lipschitz_bound(g, t),
         lambda W, t, f, v: np.sum((1.0 + np.sqrt(W.ksq)) * np.abs(t))),
        ("b", lambda t, f: ops.b(t[None])[0], lambda W, t, f, v: 0.0 * t),
        ("x_inner", lambda t, f: ops.x_inner(t[None], f[None]),
         lambda W, t, f, v: W.inner(t, f, S, True)),
        ("z_inner", lambda t, f: ops.z_inner(t[None], f[None]),
         lambda W, t, f, v: W.inner(t, f, S - 2.0, True)),
        ("x_norm", lambda t, f: ops.x_norm(t[None]),
         lambda W, t, f, v: W.norm(t, S, True)),
        ("z_norm", lambda t, f: ops.z_norm(t[None]),
         lambda W, t, f, v: W.norm(t, S - 2.0, True)),
        ("v_norm", lambda t, f: ops.v_norm(t[None]),
         lambda W, t, f, v: W.v_norm(t)),
        ("max_velocity", lambda t, f: ops.max_velocity(t[None]),
         lambda W, t, f, v: W.max_velocity(t)),
    ]
    for axis in (0, 1):
        out += [("derivative[%d]" % axis,
                 lambda t, f, a=axis: sp.derivative(g, t, a),
                 lambda W, t, f, v, a=axis: W.derivative(t, a)),
                ("riesz_component[%d]" % axis,
                 lambda t, f, a=axis: sp.riesz_component(g, t, a),
                 lambda W, t, f, v, a=axis: W.riesz(t, a))]
    for mollified, suffix in ((False, ""), (True, "_eps")):
        m = mollified
        out += [
            ("g%s_transport" % suffix,
             lambda t, f, m=m: (ops.g_eps_transport if m else ops.g_transport)(
                 t[None])[0],
             lambda W, t, f, v, m=m: W.transport(t, m)),
            ("g%s" % suffix,
             lambda t, f, m=m: (ops.g_eps if m else ops.g)(t[None])[0],
             lambda W, t, f, v, m=m: W.transport(t, m) + W.ito(basis, t, m))]
        for k, xi in enumerate(basis.xis):
            out.append(("h%s_k[%d]" % (suffix, k),
                        lambda t, f, m=m, k=k: (ops.h_eps_k if m else ops.h_k)(
                            t[None], k)[0],
                        lambda W, t, f, v, m=m, xi=xi: W.h(xi, t, m)))
    out.append(("ito_correction", lambda t, f: ops.ito_correction(t[None])[0],
                lambda W, t, f, v: W.ito(basis, t, False)))
    for k, xi in enumerate(basis.xis):
        out.append(("product_with_values[%d]" % k,
                    lambda t, f, xi=xi: sp.product_with_values(g, xi._stencil, t),
                    lambda W, t, f, v, xi=xi: W.lie(xi._stencil, t)))
    return out


@pytest.mark.parametrize("n", [64, 128])
def test_half_spectrum_no_farther_from_long_double(n):
    g = sp.Grid(n, dim=2)
    ops = make_ops("sqg", g, S, build_basis_sqg(g, 4, S + 2.0), EPS)
    jhat = oracle_ops.mollifier_symbol(oracle_ops.parent_grid(g), EPS)
    assert np.array_equal(sp.mollifier_symbol(g, EPS), jhat[:, :g.spec_shape[-1]])
    whole = {dt: Whole(g, dt, jhat) for dt in (np.float64, np.longdouble)}
    rng = np.random.default_rng(47)
    states = [corpus_state("sqg", g, S, banks)[0]
              for banks in corpus_banks(2, 2, seed=53, per_state=2)]
    white = sp.from_values(g, rng.standard_normal(g.shape))
    white[0, 0] = 0.0
    states.append(white)
    half = g.spec_shape[-1]
    ulps = {"half": [], "whole": []}
    table = cases(g, ops)
    for t, f in zip(states, states[1:] + states[:1]):
        v = sp.to_grid(g, t)
        for name, route, formula in table:
            got = route(t, f)
            outs = {dt: formula(W, W.coeffs(t), W.coeffs(f), v)
                    for dt, W in whole.items()}
            if np.ndim(got) == 2 and got.shape[-1] == half:
                # coefficients: compared on the modes the half holds
                outs = {dt: o[:, :half] for dt, o in outs.items()}
            ref = outs[np.longdouble]
            assert np.shape(got) == np.shape(ref), name
            ulp = float(np.spacing(float(np.max(np.abs(ref)))))
            err = {side: float(np.max(np.abs(
                np.asarray(out, dtype=np.clongdouble) - ref))) / ulp
                for side, out in (("half", got), ("whole", outs[np.float64]))}
            assert err["half"] <= 4.0 * err["whole"] + 4.0, (name, err)
            for side in ulps:
                ulps[side].append(err[side])
    assert len(ulps["half"]) == len(table) * len(states)
    assert sum(ulps["half"]) <= sum(ulps["whole"]), \
        (sum(ulps["half"]), sum(ulps["whole"]))
