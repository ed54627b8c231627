"""Noise basis construction and reproducible Brownian driving paths.

The correlation fields xi_k are trigonometric modes scaled so that
||xi_k||_{H^{s_max}} follows a prescribed decay law, r^k (geometric, ratio
r = 1/2 by default) or k^(-p) (polynomial); check_decay rejects a law whose
sum over k diverges, and check_resolved a basis with a field that the 2/3
band |k_i| <= n//3 of the grid cuts away.  The 2D builder derives the xi_k
from stream functions via the perpendicular gradient, so they are
divergence-free by construction.

Brownian increments are generated by deterministic midpoint refinement of
a coarse path anchored at a scale fixed by the binary mantissa of dt.  Two
calls with the same seed and step sizes dt and dt/2 therefore agree: the
finer increments sum pairwise to the coarser ones.  A path is a pure
function of (seed, dt, n_steps, K), so nothing needs to be stored to drive
a whole dt-refinement ladder with the same noise; a path keeps the levels
of its tree, so BrownianPath.coarsened reads the coarser rungs of a ladder
off the finest rung's walk instead of drawing them again.
"""

import math

import numpy as np

from .spectral import derivative, from_values, sobolev_norm
from .lie import VectorFieldXi


class NoiseBasis:
    """Ordered family {xi_k}, k = 1..K."""

    def __init__(self, xis):
        self.xis = list(xis)
        self.K = len(self.xis)
        # the fields also as one stack where VectorFieldXi.stacks says so
        # (see lie.py)
        self.stack = (VectorFieldXi.stack(self.xis)
                      if self.xis and VectorFieldXi.stacks(self.xis) else None)


def components_norm(grid, components, s):
    """sqrt(sum_i ||xi_i||_{H^s}^2) over the components of a vector field,
    given on the whole spectrum, as a noise field takes them, and grid
    their layout (Grid.full_modes())."""
    return float(np.sqrt(sum(sobolev_norm(grid, c, s) ** 2
                             for c in components)))


def check_decay(decay_kind, decay_param):
    """Reject an unknown decay law or one whose H^{s_max} tail diverges."""
    if decay_kind == "geometric":
        if not 0.0 < decay_param < 1.0:
            raise ValueError("geometric decay needs ratio in (0,1), got %r"
                             % (decay_param,))
    elif decay_kind == "polynomial":
        if decay_param <= 1.0:
            # sum k^(-p) diverges
            raise ValueError(
                "polynomial decay p=%r gives a divergent H^{s_max} tail "
                "(sum k^-p needs p > 1)" % (decay_param,))
    else:
        raise ValueError("unknown decay kind %r" % (decay_kind,))


# the sqg field xi_k is the wave _SQG_WAVES[(k-1) % 4] at scale _sqg_scale(k)
_SQG_WAVES = [(1, 0), (0, 1), (1, 1), (1, -1)]


def _sqg_scale(k):
    return 1 + (k - 1) // len(_SQG_WAVES)


def check_resolved(dim, n, K):
    """Reject K fields on a grid of n points per side whose last field has
    a wavenumber component above n//3: every operator applies the 2/3 band,
    so such a field would act as zero.  The largest component of xi_k is k
    in 1D and its wave's scale on the sqg torus."""
    top = K if dim == 1 else _sqg_scale(K)
    if K > 0 and top > n // 3:
        raise ValueError(
            "%d noise fields need wavenumber %d, above n//3 = %d at n = %d, "
            "where the 2/3 dealiasing cuts the last fields to zero"
            % (K, top, n // 3, n))


def _targets(K, decay_kind, decay_param):
    if decay_kind == "geometric":
        return [decay_param ** k for k in range(1, K + 1)]
    return [float(k) ** (-decay_param) for k in range(1, K + 1)]


def build_basis_1d(grid, K, s_max, decay_kind="geometric", decay_param=0.5):
    """1D basis xi_k = a_k * trig(k x) with ||xi_k||_{H^{s_max}} on target."""
    if K < 0:
        raise ValueError("K must be >= 0")
    check_decay(decay_kind, decay_param)
    check_resolved(1, grid.n, K)
    targets = _targets(K, decay_kind, decay_param)
    xis = []
    x = grid.x
    for k in range(1, K + 1):
        # ||a trig(k x)||_{H^s} = |a| (1+k^2)^(s/2) / sqrt(2)
        a = targets[k - 1] * math.sqrt(2.0) / (1.0 + k * k) ** (s_max / 2.0)
        wave = np.cos(k * x) if k % 2 == 1 else np.sin(k * x)
        xis.append(VectorFieldXi(grid, [from_values(grid, a * wave)]))
    return NoiseBasis(xis)


def build_basis_sqg(grid, K, s_max, decay_kind="geometric", decay_param=0.5):
    """2D divergence-free basis xi_k = perp-grad of a stream function.

    The components are formed on the whole n x n spectrum (the complex
    transform of psi's samples, its derivatives and the H^{s_max} norm
    there), which is the layout a noise field takes; the field keeps only
    their stencil.  That work is done on one layout of the build's own
    (Grid.full_modes()), whose tables and symbols die with the build.
    """
    if grid.dim != 2:
        raise ValueError("SQG basis needs a 2D grid")
    if K < 0:
        raise ValueError("K must be >= 0")
    check_decay(decay_kind, decay_param)
    check_resolved(2, grid.n, K)
    targets = _targets(K, decay_kind, decay_param)
    modes = grid.full_modes()
    return NoiseBasis([_sqg_field(grid, modes, k, targets[k - 1], s_max)
                       for k in range(1, K + 1)])


def _sqg_field(grid, modes, k, target, s_max):
    # xi_k = (-d2 psi, d1 psi), its components formed on the whole-spectrum
    # layout modes and scaled in place to ||xi_k||_{H^s_max} = target; psi's
    # samples are cos or sin of m1*x1 + m2*x2, written as the real part of
    # psi, which is transformed in place
    m1, m2 = _SQG_WAVES[(k - 1) % len(_SQG_WAVES)]
    scale = _sqg_scale(k)
    x = grid.x
    phase = (scale * m1) * x[:, None] + (scale * m2) * x[None, :]
    psi = np.zeros(grid.shape, dtype=np.complex128)
    (np.cos if k % 2 == 1 else np.sin)(phase, out=psi.real)
    del phase
    np.fft.fftn(psi, s=modes.shape, axes=modes.axes, out=psi)
    psi /= modes.n_total
    xi1 = derivative(modes, psi, 1)
    xi1 *= -1.0         # a multiply, not a negation: the signs of zeros
    comps = xi1, derivative(modes, psi, 0)
    del psi
    a = target / components_norm(modes, comps, s_max)
    for c in comps:
        c *= a
    return VectorFieldXi(grid, comps, modes)


def build_basis(grid, K, s_max, decay_kind="geometric", decay_param=0.5):
    """The basis of K fields for the grid: build_basis_sqg on a 2D grid,
    build_basis_1d otherwise."""
    builder = build_basis_sqg if grid.dim == 2 else build_basis_1d
    return builder(grid, K, s_max, decay_kind, decay_param)


def constant_basis_1d(grid, c):
    """Single constant field xi = c; the exact-cancellation special case."""
    xi = VectorFieldXi(grid, [from_values(grid, float(c) * np.ones(grid.shape))])
    return NoiseBasis([xi])


# ---------------------------------------------------------------------------
# Brownian paths

class BrownianPath:
    """Increments of K independent Brownian motions on a fixed step grid.

    A path from sample_path also keeps the levels of its refinement tree
    (tree[k][level]), from which coarsened reads the coarser rungs.
    """

    def __init__(self, seed, dt, n_steps, K, increments, tree=None):
        increments = np.asarray(increments, dtype=np.float64)
        if increments.shape != (n_steps, K):
            raise ValueError("increments must have shape (n_steps, K)")
        self.seed = int(seed)
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self.K = int(K)
        self.increments = increments
        self.tree = tree

    def endpoint(self):
        """W(T) per noise component."""
        return self.increments.sum(axis=0)

    def coarsened(self, dt, n_steps):
        """sample_path(self.seed, dt, n_steps, self.K), bit for bit.

        When dt is this path's dt times a power of two and this path's tree
        holds n_steps intervals at dt's level, the increments are read off
        that level; otherwise the path is drawn anew.
        """
        if self.tree is not None and dt > 0:
            m, e = _odd_mantissa(dt)
            level = _E_ROOT - e
            levels = self.tree[0]
            if (m == _odd_mantissa(self.dt)[0] and 0 <= level < len(levels)
                    and 0 < n_steps <= len(levels[level])):
                inc = np.empty((n_steps, self.K))
                for k in range(self.K):
                    inc[:, k] = self.tree[k][level][:n_steps]
                return BrownianPath(self.seed, dt, n_steps, self.K, inc)
        return sample_path(self.seed, dt, n_steps, self.K)


# root scale of the refinement tree: intervals of length m * 2**_E_ROOT
# where m is the odd mantissa of dt.  Any dt = m * 2**e with e <= _E_ROOT
# sits depth _E_ROOT - e below the root.
_E_ROOT = 10


def _odd_mantissa(dt):
    # dt = m * 2**e exactly, with m an odd integer
    fr, ex = math.frexp(dt)
    m = int(fr * (1 << 53))
    e = ex - 53
    tz = (m & -m).bit_length() - 1
    return m >> tz, e + tz


def _level_normals(seed, k, level, count):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, level))
    return np.random.Generator(np.random.Philox(ss)).standard_normal(count)


def sample_path(seed, dt, n_steps, K):
    """Deterministic N(0, dt) increments, consistent under dt halving.

    For fixed seed, the path at dt/2 sums pairwise to the path at dt
    (up to round-off), because both are read off the same midpoint
    refinement tree.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0 or K < 0:
        raise ValueError("n_steps and K must be >= 0")
    if n_steps == 0 or K == 0:
        return BrownianPath(seed, dt, n_steps, K,
                            np.zeros((n_steps, K)))
    m, e = _odd_mantissa(dt)
    depth = _E_ROOT - e
    if depth < 0:
        raise ValueError("dt too large for the refinement tree (dt <= %g needed)"
                         % (m * 2.0 ** _E_ROOT,))
    sizes = [n_steps]
    for _ in range(depth):
        sizes.append((sizes[-1] + 1) // 2)
    sizes.reverse()                       # sizes[level], level 0 = root

    inc = np.empty((n_steps, K))
    tree = []
    root_std = math.sqrt(m) * 2.0 ** (_E_ROOT / 2.0)
    for k in range(K):
        vals = _level_normals(seed, k, 0, sizes[0]) * root_std
        levels = [vals]
        for level in range(1, depth + 1):
            child_len = m * 2.0 ** (_E_ROOT - level)
            w = _level_normals(seed, k, level, len(vals)) \
                * math.sqrt(child_len / 2.0)
            children = np.empty(2 * len(vals))
            children[0::2] = 0.5 * vals + w
            children[1::2] = 0.5 * vals - w
            vals = children[:sizes[level]]
            levels.append(vals)
        inc[:, k] = vals
        tree.append(levels)
    return BrownianPath(seed, dt, n_steps, K, inc, tree)

