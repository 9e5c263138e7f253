"""Cayley-graph measurements on finite quotients: exact diameters, the walk
operator's norm on mean-zero functions, mixing profiles, and random-walk
coordinate statistics.

Everything here works against an enumerated graph from the one BFS engine in
`_bfs`: elements in discovery order from the identity, and from the same
products one left-multiplication permutation per walk direction.  The engine
runs on the group facade's stacks (`matgroups.BatchOps`), whose layout the
facade picks.  The group itself only has to be a `BatchOps` like the
quotient facades (identity / mul / inv / key / group_order / elements /
sample_uniform / serialize, and the stack methods), so the tiny cyclic
adapter below, whose elements are Python ints, is a first-class citizen —
it is both the non-FAb contrast family and the corpus for the exhaustive
generating-set sweeps.  Those sweeps share one multi-source BFS
(`_union_eccentricities`) over left-multiplication tables that the same
engine fills once per group: each vertex holds one bit per union of
inverse-pair classes, 64 unions to a uint64 word, and a level ANDs every
permutation row's gather with the words of the unions that hold its class.
The classes pair each element with its inverse from one `inverse` of the
corpus's stack.  The sweeps refuse a group past SWEEP_ELEMENT_CAP by its
order, before enumerating it.  The sampled sweeps share one draw loop
(`_generating_draws`).

The walk operator's norm rho comes from one solver, Lanczos on mean-zero
vectors (`lanczos_gap`): every product is one `walk_matvec`, and its Krylov
basis is counted against PROSK_BUDGET_MB beside the graph.  The basis is
kept semi-orthogonal by partial reorthogonalization (Simon's
omega-recurrence decides which steps pay a Gram-Schmidt pass), and only the
two extreme Ritz pairs of the tridiagonal matrix are computed, by Sturm
bisection and inverse iteration.  The walk's float law comes from one loop
(`_laws`), which stops at the law's bitwise fixed point and repeats that
vector, its Monte Carlo batch, the one WALK_WORK_CAP check and its
PROSK_BUDGET_MB charge from another (`_walk`).  Both step by contiguous
gathers: a walk product takes one per direction (the lazy walk's identity
row is a copy), a Monte Carlo step one over the flattened permutations for
the whole batch, written into the batch's state buffer, at directions drawn
as exactly uniform narrow units from the generator's raw words
(`_directions`).  The exact mixing profile (`_exact_profile`) runs the
integer convolution on int64 limbs, the widest base with |S| * 2^B < 2^63,
with the same gathers and vectorized carry passes, under the same
WALK_WORK_CAP and a PROSK_BUDGET_MB charge made before its first step.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _bfs
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NotGenerating,
    NotSymmetricSet,
    UsageError,
)
from .matgroups import BatchOps

EXACT_CONV_CAP = 3000  # integer-arithmetic convolution up to here
CONV_CAP = 500_000  # float convolution (one vector, gathers only)
GAP_TOL = 1e-9  # Ritz residual at which an end of the spectrum is found
MATVEC_CAP = 10**5  # walk products one gap solve may spend
# gather units of one walk, steps x (trials + |G| x |dirs| for the exact
# law), and of one exact profile, sum over steps of limbs x |G| x |dirs|
WALK_WORK_CAP = 10**10
_BREAKDOWN = 1e-12  # beta below this: the Krylov space is invariant
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_REORTH = math.sqrt(_EPS)  # orthogonality loss that triggers a Gram-Schmidt
SWEEP_WORK_CAP = 2 * 10**8  # exhaustive generating-set sweeps, gather units
# exhaustive sweeps refuse a bigger group by its order, before enumerating
# it: 65+ elements make 32+ inverse-pair classes, far past SWEEP_WORK_CAP
SWEEP_ELEMENT_CAP = 64
SWEEP_BLOCK_BYTES = 1 << 19  # a sweep block's gather per BFS level, bytes
SET_SIZES = (2, 3, 4)  # sampled generating sets draw this many elements
CONTRAST_ORDER_CAP = 200_000  # cyclic contrast levels stop past this order


# ---------------------------------------------------------------------------
# cyclic adapter


class CyclicOps(BatchOps):
    """Additive Z/nZ behind the same surface as the quotient facades, with
    Python ints for elements.  `p` marks a Z/p^e instance so digit
    coordinates make sense.  Stacks are int64 vectors of residues, `eye`
    the identity's.  A residue is its own key on both surfaces, as given:
    every op returns reduced residues."""

    eye = np.zeros(1, dtype=np.int64)
    eye.setflags(write=False)

    def __init__(self, n, p=None):
        if n < 1:
            raise UsageError("modulus must be positive")
        self.n = n
        self.p = p
        self.descriptor = None

    def _element(self, X):
        """The residue of the stack of one X, as a Python int."""
        if X.shape != (1,):
            raise InvariantViolated(f"stack {X.shape} for Z/{self.n}")
        return int(X[0])

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def key(self, a, level=None):
        return a

    def group_order(self):
        return self.n

    def elements(self):
        return list(range(self.n))

    def sample_uniform(self, rng):
        return int(rng.integers(self.n))

    def serialize(self, a):
        return int(a)

    def deserialize(self, raw):
        return int(raw) % self.n

    def stack(self, elems):
        """The residues as one int64 vector."""
        return np.array(elems, dtype=np.int64).reshape(-1)

    def product(self, A, B):
        """Entrywise sums mod n, broadcast over the batch axes."""
        return (A + B) % self.n

    def inverse(self, X):
        """Entrywise negatives mod n."""
        return -X % self.n

    def keys(self, X):
        """The residues themselves."""
        return X


def cyclic_group(p, e):
    """Z/p^e with its prime recorded (digit coordinates, contrast runs)."""
    return CyclicOps(p**e, p=p)


def cyclic_pair(n_big, n_small):
    """(G, Q, pi) for the reduction Z/n_big -> Z/n_small."""
    if n_big % n_small:
        raise UsageError(f"{n_small} does not divide {n_big}")
    return CyclicOps(n_big), CyclicOps(n_small), lambda x: x % n_small


def congruence_pair(ops, m):
    """(G, Q, pi) for a quotient facade and its level-m congruence image."""
    from .matgroups import ops_for

    qops = ops_for(ops.descriptor.truncated(m))
    return ops, qops, lambda g: ops.project(g, m)


def all_elements(ops):
    return ops.elements()


# ---------------------------------------------------------------------------
# symmetric sets


def symmetrize(ops, gens, include_identity=False):
    """gens with inverses adjoined, deduplicated; optionally the identity
    too (the lazy walk)."""
    out, seen = [], set()
    if include_identity:
        e = ops.identity()
        seen.add(ops.key(e))
        out.append(e)
    for g in gens:
        for h in (g, ops.inv(g)):
            k = ops.key(h)
            if k not in seen:
                seen.add(k)
                out.append(h)
    return out


def is_symmetric(ops, elems):
    keys = {ops.key(g) for g in elems}
    return all(ops.key(ops.inv(g)) in keys for g in elems)


# ---------------------------------------------------------------------------
# the enumerated graph


class CayleyGraph:
    """One (G, S) enumerated by the left-multiplication `_bfs.bfs`: state 0
    is the identity, perms[a, j] = index of dirs[a] * element(j), dist[j]
    the BFS distance from the identity (so dist.max() is the diameter — the
    graph is vertex-transitive)."""

    def __init__(self, ops, dirs, perms, dist, states, lazy=False):
        self.ops = ops
        self.dirs = dirs
        self.perms = perms
        self.lazy = lazy  # dirs[0] is the identity, perms[0] the identity map
        self.dist = dist
        self.states = states  # an ops stack
        self.order = perms.shape[1]
        self.root = 0
        self.diameter = int(dist.max()) if self.order else 0

    def element(self, i):
        return self.ops.unstack(self.states[i : i + 1])[0]

    def walk_matvec(self, v):
        """One step of the walk operator: average of v over S-translates,
        (A v)[j] = sum_a v[perms[a, j]] / |S|.  Valid because dirs is
        symmetric (as a set, s and s^-1 both appear).  One contiguous
        gather per direction, summed in direction order and divided once,
        which is bit for bit v[perms].mean(axis=0) without its (|S|, n)
        temporary.  The lazy walk's identity row is a copy of v, not a
        gather."""
        out = v.copy() if self.lazy else v.take(self.perms[0])
        for row in self.perms[1:]:
            out += v.take(row)
        out /= len(self.perms)
        return out


def build_graph(ops, gens, *, adjoin_identity=True, order=None):
    """Enumerate the whole group by BFS over S u S^-1 (identity adjoined for
    the lazy walk unless told otherwise); the same product pass tabulates
    the left-multiplication permutations.  NotGenerating if the ball closes
    before covering `order` elements or finds more (pass `order` explicitly
    to walk a proper subgroup, e.g. a congruence kernel)."""
    if order is None:
        order = ops.group_order()
    dirs = symmetrize(ops, gens, include_identity=adjoin_identity)
    run = _bfs.bfs(ops, ops.stack(dirs), order, left=True)
    return CayleyGraph(ops, dirs, run.perms, run.dist, run.states,
                       lazy=adjoin_identity)


def diameter_bfs(ops, gens):
    """Exact diameter of Cay(G, S u S^-1): the identity's eccentricity."""
    return build_graph(ops, gens).diameter


# ---------------------------------------------------------------------------
# spectral gap


class GapSolve(NamedTuple):
    """One Lanczos run: rho, the walk products it spent, its explicit
    restarts, the larger extreme Ritz residual when it stopped, and the
    steps that reorthogonalized against the whole basis."""

    rho: float
    matvecs: int
    restarts: int
    residual: float
    reorths: int


def spectral_gap(graph):
    """Norm of the walk operator on mean-zero functions,
    rho = max(|lambda_min|, lambda_max) over them, from `lanczos_gap`."""
    if not is_symmetric(graph.ops, graph.dirs):
        raise NotSymmetricSet("walk directions are not closed under inverse")
    if graph.order == 1:
        return 0.0
    return lanczos_gap(graph).rho


def _omega_step(om, prev, a, b, j, noise):
    """Simon's recurrence for the loss of orthogonality: from estimates of
    |v_j . v_i| (om, i <= j) and |v_{j-1} . v_i| (prev, i < j), those of
    |v_{j+1} . v_i| for i <= j + 1.  a[:j+1] and b[:j+1] are the Lanczos
    coefficients so far (b[j] the norm that made v_{j+1}); `noise` is the
    rounding a step adds."""
    t = b[:j] * om[1:] + (a[:j] - a[j]) * om[:j]
    if j:
        t[1:] += b[: j - 1] * om[: j - 1]
        t -= b[j - 1] * prev
    t += np.copysign(noise, t)
    return np.concatenate((t / b[j], (noise, 1.0)))


def _count_below(a, b2, x, pivmin):
    """The eigenvalues below x of the tridiagonal T with diagonal a and
    squared off-diagonal b2 (b2[0] = 0): the negative pivots of the LDL^T
    factorization of T - x (Sturm's sequence), a pivot of magnitude below
    pivmin counting as -pivmin."""
    d, below = 1.0, 0
    for ai, bi in zip(a, b2):
        d = ai - x - bi / d
        if d < pivmin:
            below += 1
            if d > -pivmin:
                d = -pivmin
    return below


def _extreme_ritz(a, b):
    """The smallest and the largest eigenpair of the symmetric tridiagonal
    T with diagonal a (m entries) and off-diagonal b (m - 1 entries), each
    as (theta, s) with s a unit vector: Sturm bisection to working
    precision (Parlett, ch. 7) from the Gershgorin interval, then inverse
    iteration from a shift just outside the spectrum, where T - shift is
    definite and its LDL^T factorization is stable.  O(m) per bisection
    step."""
    m = len(a)
    rad = np.zeros(m)
    rad[:-1] += np.abs(b)
    rad[1:] += np.abs(b)
    lo, hi = float((a - rad).min()), float((a + rad).max())
    tol = 2 * _EPS * max(abs(lo), abs(hi), 1.0)
    b2 = [0.0] + (b * b).tolist()
    pivmin = _TINY * max(1.0, max(b2))
    al, bl = a.tolist(), b.tolist()
    out = []
    for end in (0, m - 1):  # count(x) > end <=> x is past the end
        x0, x1 = lo - tol, hi + tol
        while x1 - x0 > tol:
            mid = 0.5 * (x0 + x1)
            if _count_below(al, b2, mid, pivmin) > end:
                x1 = mid
            else:
                x0 = mid
        # tol past the end, so T - shift is definite by at least tol
        shift = x0 - tol if end == 0 else x1 + tol
        s = np.ones(m)
        for _ in range(3):
            s = _shifted_solve(al, bl, shift, s.tolist())
            s /= np.linalg.norm(s)
        out.append((0.5 * (x0 + x1), s))
    return out


def _shifted_solve(a, b, shift, y):
    """x with (T - shift) x = y for the tridiagonal T with diagonal a and
    off-diagonal b, by its LDL^T factorization without pivoting (stable
    where T - shift is definite)."""
    m = len(a)
    d, z = [a[0] - shift] + [0.0] * (m - 1), y
    for i in range(1, m):
        ell = b[i - 1] / d[i - 1]
        d[i] = a[i] - shift - ell * b[i - 1]
        z[i] -= ell * z[i - 1]
    x = [zi / di for zi, di in zip(z, d)]
    for i in range(m - 2, -1, -1):
        x[i] -= b[i] / d[i] * x[i + 1]
    return np.array(x)


def lanczos_gap(graph):
    """Lanczos for both ends of the walk operator's spectrum on mean-zero
    functions (a symmetric matrix there, since the directions are closed
    under inverse), from a fixed-seed start.  Each step takes the
    three-term recurrence and advances Simon's omega-recurrence, which
    estimates how far the new vector has drifted from orthogonality to the
    basis (Math. Comp. 42, 1984).  Only when an estimate passes sqrt(eps)
    is the vector reorthogonalized against the whole basis (one classical
    Gram-Schmidt pass), and then the next one too; the basis stays
    semi-orthogonal, which keeps the Ritz values at working precision.
    The run stops when the Ritz residuals |beta_m s_{m,i}| of the smallest
    and the largest Ritz value are both <= GAP_TOL, or at breakdown (beta ~
    0, or a basis of all n - 1 mean-zero dimensions): the Krylov space is
    then invariant and the Ritz values are exact.  Only the two extreme
    Ritz pairs are computed (`_extreme_ritz`), every 8 steps, and every m/4
    steps past m = 32.

    The basis is counted against PROSK_BUDGET_MB beside the graph and a
    walk product's gathers; it holds as many vectors as fit, at most n - 1.
    When it is full before convergence, the run restarts from the
    normalized sum of the two extreme Ritz vectors.  BudgetExceeded when
    not even two basis vectors fit, or when MATVEC_CAP walk products leave
    a residual above GAP_TOL."""
    n, k = graph.order, len(graph.perms)
    work = k + 2  # a walk product's k gathers, w, and one projection
    size = min(n - 1, _bfs.vectors_that_fit(n, k) - work)
    if size < min(n - 1, 2):
        _bfs.check_budget(n, k, vectors=min(n - 1, 2) + work)  # raises
    V = np.empty((size, n))  # rows are touched (and paged in) as used
    alpha, beta = np.empty(size), np.empty(size)
    noise = _EPS * math.sqrt(n)  # rounding per step, |A| <= 1
    v = np.random.default_rng(0x5EC7).standard_normal(n)
    matvecs = restarts = reorths = 0
    while True:
        v -= v.mean()
        V[0] = v / np.linalg.norm(v)
        om, prev = np.ones(1), np.zeros(0)
        again = False  # the vector after a reorthogonalized one is too
        check = 8
        for m in range(1, size + 1):
            j = m - 1
            B = V[:m]
            w = graph.walk_matvec(B[-1])
            matvecs += 1
            w -= w.mean()  # keep the constants (eigenvalue 1) out
            if j:
                w -= beta[j - 1] * B[-2]
            alpha[j] = B[-1] @ w
            w -= alpha[j] * B[-1]
            beta[j] = np.linalg.norm(w)
            if beta[j] > _BREAKDOWN:
                om, prev = _omega_step(om, prev, alpha, beta, j, noise), om
            if again or (beta[j] > _BREAKDOWN
                         and np.abs(om[:-2]).max(initial=0.0) > _REORTH):
                w -= (B @ w) @ B
                beta[j] = np.linalg.norm(w)
                om[:-1] = noise
                reorths += 1
                again = not again
            exact = beta[j] <= _BREAKDOWN or m == n - 1
            if exact or m == size or m >= check or matvecs >= MATVEC_CAP:
                (lo, s_lo), (hi, s_hi) = _extreme_ritz(alpha[:m],
                                                       beta[: m - 1])
                res = 0.0 if exact else float(
                    beta[j] * max(abs(s_lo[-1]), abs(s_hi[-1])))
                if res <= GAP_TOL:
                    rho = min(max(abs(lo), hi), 1.0)
                    return GapSolve(float(rho), matvecs, restarts, res,
                                    reorths)
                if matvecs >= MATVEC_CAP:
                    raise BudgetExceeded(
                        f"gap solver stopped at MATVEC_CAP={MATVEC_CAP} walk "
                        f"products with Ritz residual {res:.3g} > "
                        f"GAP_TOL={GAP_TOL:g}"
                    )
                if m == size:
                    v = (s_lo + s_hi) @ B
                    restarts += 1
                    break
                check = m + max(8, m // 4)
            V[m] = w / beta[j]


# ---------------------------------------------------------------------------
# mixing profiles


def check_walk_sizes(steps, trials=1):
    """UsageError for a negative step count (a walk's or a profile's) or
    for fewer than one Monte Carlo trial."""
    if steps < 0:
        raise UsageError(f"step count must be >= 0, got {steps}")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")


def _laws(graph, steps):
    """The walk's float law after l = 0..steps steps from the root, as
    read-only vectors: one walk product per step until the law's fixed
    point.  A walk product is a deterministic function of its input's
    bits, so once one returns its input unchanged (compared bit for bit
    through a uint64 view, not by float ==) every later law is that same
    vector: it is yielded again, the same object, for the remaining steps
    without another product.  The law converges to uniform at rate rho^l,
    so a mixing walk's rounded law usually settles; one that never repeats
    its input (a bare walk on a bipartite graph) pays every product."""
    v = np.zeros(graph.order)
    v[graph.root] = 1.0
    v.setflags(write=False)
    yield v
    for l in range(steps):
        w = graph.walk_matvec(v)
        if np.array_equal(w.view(np.uint64), v.view(np.uint64)):
            yield from itertools.repeat(v, steps - l)
            return
        w.setflags(write=False)
        v = w
        yield v


def _limb_bits(k):
    """The widest limb base 2^B whose k-term sums stay below 2^63:
    k * 2^B < 2^63."""
    return 63 - k.bit_length()


def _check_profile_work(n, k, l_max, bits):
    """The limbs the exact profile of `l_max` steps ends on, after
    BudgetExceeded unless its limb work fits WALK_WORK_CAP and its limb
    arrays PROSK_BUDGET_MB.  Step l runs on limbs(l) = ceil(b_l / B)
    limbs, b_l = floor(l log2 k) + 1 the bits of den = k^l (in floating
    point here; exactly, from den, in the loop), with one gather and add
    per direction over n entries: the work is sum_l limbs(l) * n * k.
    With k > 1 that sum is at least l_max (l_max + 1) log2(k) / 2B, so a
    long profile is refused before its limb counts are listed.  Memory:
    the numerators, their next step, one gather and one carry array,
    (limbs, n) int64 each, beside the graph."""
    c = math.log2(max(k, 1))
    if k <= 1:  # den = 1: one limb throughout
        work = l_max
    elif l_max * (l_max + 1) * c / (2 * bits) * n * k > WALK_WORK_CAP:
        work = math.inf
    else:
        b = np.floor(np.arange(1, l_max + 1) * c).astype(np.int64) + 1
        work = int((-(-b // bits)).sum())
    if work * n * k > WALK_WORK_CAP:
        raise BudgetExceeded(
            f"exact profile of {l_max} steps on {n} elements x {k} "
            f"directions exceeds WALK_WORK_CAP={WALK_WORK_CAP}")
    top = -(-(k**l_max).bit_length() // bits)
    _bfs.check_budget(n, k, extra=4 * 8 * top * n)
    return top


def _extreme_numerators(num, bits):
    """The largest and the smallest numerator held in the limbs `num`
    ((limbs, n), least significant first), as Python ints: the columns at
    the top limb's extreme, ties broken downwards, limb by limb, until one
    column is left or the last limb is read.  A mixed law shares its top
    limbs at every vertex, so the first limbs narrow the whole group."""
    out = []
    for pick in (np.maximum.reduce, np.minimum.reduce):
        at = np.arange(num.shape[1])
        for limb in num[::-1]:
            vals = limb[at]
            at = at[vals == pick(vals)]
            if len(at) == 1:
                break
        x = 0
        for limb in num[::-1, at[0]].tolist():
            x = x << bits | limb
        out.append(x)
    return out


def _carry(limbs, bits):
    """Normalize the nonnegative limbs (least significant first) in place
    to base-2^B digits: vectorized passes over all limbs at once, each
    moving every limb's overflow past B bits into the next limb, until no
    limb below the top overflows.  The top limb takes carries and gives
    none: the caller keeps the value below 2^(B limbs)."""
    mask = (1 << bits) - 1
    while True:
        carry = limbs[:-1] >> bits
        if not carry.any():
            return
        limbs[:-1] &= mask
        limbs[1:] += carry


def _exact_profile(graph, l_max):
    """`mixing_profile`'s exact mode: the numerators over den = k^l as a
    (limbs, n) int64 array of base-2^B digits (`_limb_bits`), least
    significant limb first, with one more limb only once den needs it.
    A step takes one gather per direction into a scratch limb array and
    adds it in place (the lazy walk's identity row is a copy), then
    normalizes (`_carry`); every sum stays below k * 2^B < 2^63, and the
    top limb needs no carry out, as every numerator is at most den <
    2^(B limbs).  The deviation is read off the extreme numerators
    (`_extreme_numerators`), as the same Fraction the Python-int
    convolution gave."""
    n, k = graph.order, len(graph.perms)
    bits = _limb_bits(k)
    size = _check_profile_work(n, k, l_max, bits)
    num, nxt, buf = (np.zeros((size, n), dtype=np.int64) for _ in range(3))
    num[0, graph.root] = 1
    den, used = 1, 1
    out = []
    for l in range(l_max + 1):
        # deviation at l is max_j |num_j / den - 1/n| = max_j |num_j n -
        # den| / (den n), reached at the largest or the smallest numerator
        hi, lo = _extreme_numerators(num[:used], bits)
        out.append(Fraction(max(abs(hi * n - den), abs(lo * n - den)),
                            den * n))
        if l == l_max:
            break
        den *= k
        used = -(-den.bit_length() // bits)
        src, acc, tmp = num[:used], nxt[:used], buf[:used]
        if graph.lazy:
            np.copyto(acc, src)
        else:
            src.take(graph.perms[0], axis=1, out=acc, mode="wrap")
        for row in graph.perms[1:]:
            src.take(row, axis=1, out=tmp, mode="wrap")
            acc += tmp
        _carry(acc, bits)
        num, nxt = nxt, num
    return out


def mixing_profile(graph, l_max, *, exact=None):
    """deviation(l) = max_z |P[walk at z after l steps] - 1/|G|| for
    l = 0..l_max.  Exact mode runs the convolution on int64 limbs
    (`_exact_profile`, denominator |S|^l), capped before its first step
    by WALK_WORK_CAP and PROSK_BUDGET_MB, and returns Fractions; float
    mode reads `_laws` and returns floats, computing a deviation once per
    distinct law: past the law's fixed point every entry repeats."""
    check_walk_sizes(l_max)
    n = graph.order
    if exact is None:
        exact = n <= EXACT_CONV_CAP
    if exact:
        return _exact_profile(graph, l_max)
    if n > CONV_CAP:
        raise BudgetExceeded(f"convolution vector of {n} entries over cap")
    out, last = [], None
    for v in _laws(graph, l_max):
        if v is not last:
            dev, last = float(np.abs(v - 1.0 / n).max()), v
        out.append(dev)
    return out


@dataclass
class SpectralReport:
    order: int
    set_size: int
    diameter: int
    rho: float
    inv_gap: float
    sandwich_lower: float
    sandwich_upper: float
    profile: list
    exact_profile: bool

    def as_dict(self):
        out = asdict(self)
        out["profile"] = [float(x) for x in self.profile]
        if self.exact_profile:
            out["profile_exact"] = [str(x) for x in self.profile]
        return out


def spectral_report(ops, gens, *, l_max=50, adjoin_identity=True):
    """Diameter, gap, and mixing profile for one (G, S); checks the sandwich
    (diam-1)/log|G| <= 1/(1-rho) <= |S| diam^2 before returning.  A group
    past CONV_CAP, whose profile `mixing_profile` would refuse, is refused
    before its graph is built, and so is a negative l_max."""
    check_walk_sizes(l_max)
    n = ops.group_order()
    if n > CONV_CAP:
        raise BudgetExceeded(f"convolution vector of {n} entries over cap")
    graph = build_graph(ops, gens, adjoin_identity=adjoin_identity, order=n)
    rho = spectral_gap(graph)
    diam = graph.diameter
    k = len(graph.dirs)
    if rho >= 1.0 - 1e-14:
        raise NotGenerating(
            "walk norm at 1: directions do not mix (adjoin the identity?)"
        )
    inv_gap = 1.0 / (1.0 - rho)
    lower = (diam - 1) / math.log(n) if n > 1 else 0.0
    upper = float(k * diam * diam) if n > 1 else 1.0
    profile = mixing_profile(graph, l_max)
    rep = SpectralReport(
        order=n,
        set_size=k,
        diameter=diam,
        rho=rho,
        inv_gap=inv_gap,
        sandwich_lower=lower,
        sandwich_upper=upper,
        profile=profile,
        exact_profile=not isinstance(profile[0], float),
    )
    if not (lower <= inv_gap + GAP_TOL and inv_gap <= upper + GAP_TOL):
        raise InvariantViolated(
            f"sandwich violated: {lower} / {inv_gap} / {upper}"
        )
    return rep


# ---------------------------------------------------------------------------
# exhaustive generating-set sweeps


def inverse_pair_classes(ops, elements):
    """The {x, x^-1} classes with the identity dropped — the atoms every
    symmetric subset is a union of — in order of each class's first element
    in `elements`.  The inverses are one `inverse` of the elements' stack,
    and the keys of both stacks pair the classes; x^-1 is the element of
    `elements` with its key where there is one."""
    X = ops.stack(elements)
    inverses = ops.inverse(X)
    keys, ikeys = ops.keys(X).tolist(), ops.keys(inverses).tolist()
    at = dict(zip(keys, range(len(keys))))
    seen = set(ops.keys(ops.identity_stack()).tolist())
    classes = []
    for i, (x, k, ki) in enumerate(zip(elements, keys, ikeys)):
        if k in seen:
            continue
        seen.update((k, ki))
        if ki == k:
            classes.append((x,))
        else:
            xi = (elements[at[ki]] if ki in at
                  else ops.unstack(inverses[i : i + 1])[0])
            classes.append((x, xi))
    return classes


@dataclass
class DiameterSurvey:
    value: int
    mode: str  # "exhaustive" | "sampled-lower-bound"
    witness: list
    examined: int
    generating: int

    def as_dict(self):
        return asdict(self)


def _union_eccentricities(cperms, n, root, masks):
    """One BFS from `root` for every union of permutation classes in `masks`
    (bit i selects cperms[i]), laid out as the multi-source traversal of
    Then et al. (PVLDB 8(4), 2014): bit j of reach[v, k] says that union
    64k + j has reached vertex v.  A level gathers `reach` by every
    permutation row, ANDs each row with the words of the unions that hold
    its class, and ORs over all rows and the old `reach`.  A union's
    eccentricity is the first level at which every vertex has its bit.  The
    unions run sorted by class count, so slow ones (few classes) share
    words, in blocks of as many words as keep a level's gather (rows x n x
    words x 8 bytes) within SWEEP_BLOCK_BYTES; a word leaves the loop once
    none of its unions is still growing.  Returns the root's eccentricity
    per mask (the diameter: the graph is vertex-transitive), -1 where the
    union does not reach all n vertices."""
    out = np.full(len(masks), -1 if n > 1 else 0, dtype=np.int64)
    if n == 1:
        return out
    c = len(cperms)
    rows = np.concatenate(cperms)
    cls = np.repeat(np.arange(c), [len(P) for P in cperms])  # row -> class
    # reach[v] takes reach[pi^-1(v)]: pulling by the inverse rows pushes
    # every union along its permutations
    pull = np.argsort(rows, axis=1).ravel()
    count = np.zeros(1, dtype=np.uint8)  # count[m]: the classes in union m
    for _ in range(c):
        count = np.concatenate([count, count + 1])
    order = np.argsort(count[masks], kind="stable")
    span = 64 * max(1, SWEEP_BLOCK_BYTES // (len(rows) * n * 8))
    for lo in range(0, len(masks), span):
        block = order[lo : lo + span]
        held = np.zeros((c, -(-len(block) // 64) * 64), dtype=np.uint8)
        np.right_shift(masks[block], np.arange(c)[:, None],
                       out=held[:, : len(block)], casting="unsafe")
        held &= 1
        words = np.packbits(held, axis=1, bitorder="little").view("<u8")
        words = words[cls, None]  # (row, 1, word)
        cols = np.arange(words.shape[-1])
        reach = np.zeros((n, len(cols)), dtype=np.uint64)
        reach[root] = ~np.uint64(0)
        found = []  # (word columns, the unions that filled there, level)
        level = 0
        while len(cols):
            level += 1
            nbr = reach.take(pull, axis=0).reshape(-1, n, len(cols))
            nbr &= words
            grown = np.bitwise_or.reduce(nbr, axis=0)
            grown |= reach
            grew = np.bitwise_or.reduce(grown ^ reach, axis=0)
            full = np.bitwise_and.reduce(grown, axis=0)
            found.append((cols, full & grew, np.full(len(cols), level)))
            keep = (grew & ~full) != 0
            if not keep.all():
                cols, words = cols[keep], words[..., keep]
                grown = grown[:, keep]
            reach = grown
        at, filled, when = map(np.concatenate, zip(*found))
        some = np.flatnonzero(filled)
        k, j = np.nonzero(np.unpackbits(
            filled[some].astype("<u8").view(np.uint8),
            bitorder="little").reshape(-1, 64))
        out[block[at[some[k]] * 64 + j]] = when[some[k]]
    return out


def _sweep_corpus(ops, elements=None):
    """The elements an exhaustive sweep runs over: `elements`, or the whole
    group, enumerated only once its order is known to be within
    SWEEP_ELEMENT_CAP.  BudgetExceeded past the cap."""
    n = ops.group_order() if elements is None else len(elements)
    if n > SWEEP_ELEMENT_CAP:
        raise BudgetExceeded(
            f"exhaustive sweep capped at SWEEP_ELEMENT_CAP={SWEEP_ELEMENT_CAP}"
            f" elements, got {n}; use sampled mode"
        )
    return all_elements(ops) if elements is None else elements


def _generating_unions(ops, elems, factor):
    """The exhaustive sweep behind worst_case_diameter,
    monotonicity_exhaustive and extension_bound_check: the inverse-pair
    classes of `elems`, then the ascending masks of every union of classes
    that generates (bit i selects classes[i]) and each one's diameter.  The
    classes come from one stack inverse (`inverse_pair_classes`), the class
    permutations from one left `_bfs.bfs` table (InvariantViolated unless
    `elems` is a subgroup); every union runs through the one multi-source
    BFS of `_union_eccentricities`, one bit per union at each vertex, in
    blocks whose level gathers stay within SWEEP_BLOCK_BYTES.  `elems` comes
    from `_sweep_corpus`, within SWEEP_ELEMENT_CAP; the subset count is the
    hard wall: BudgetExceeded once 2^classes * |G| * factor * classes
    leaves SWEEP_WORK_CAP."""
    n = len(elems)
    classes = inverse_pair_classes(ops, elems)
    c = len(classes)
    if (2**c) * n * factor * c > SWEEP_WORK_CAP:
        raise BudgetExceeded(
            f"{c} inverse-pair classes -> {2**c} symmetric sets over "
            f"SWEEP_WORK_CAP={SWEEP_WORK_CAP}"
        )
    try:
        rows = _bfs.bfs(ops, ops.stack([x for cls in classes for x in cls]),
                        n, left=True).perms
    except NotGenerating as exc:
        raise InvariantViolated("left-translate left the group") from exc
    cperms = np.split(rows, np.cumsum([len(cls) for cls in classes])[:-1])
    masks = np.arange(1, 2**c, dtype=np.int64)
    diam = _union_eccentricities(cperms, n, 0, masks)
    return classes, masks[diam >= 0], diam[diam >= 0]


def _generating_draws(ops, rng, attempts, set_sizes):
    """`attempts` draws of k uniform elements, k chosen from `set_sizes`:
    yields (gens, graph) for each draw that generates, graph being the bare
    Cayley graph (no identity adjoined; it would add no distance)."""
    for _ in range(attempts):
        k = int(rng.choice(list(set_sizes)))
        gens = [ops.sample_uniform(rng) for _ in range(k)]
        try:
            graph = build_graph(ops, gens, adjoin_identity=False)
        except NotGenerating:
            continue
        yield gens, graph


def worst_case_diameter(ops, *, elements=None, mode="exhaustive", trials=200,
                        seed=0):
    """max over symmetric generating sets of diam(G, S).  Exhaustive mode
    sweeps every union of inverse-pair classes; sampled mode draws `trials`
    sets of SET_SIZES elements, only certifies a lower bound and says so."""
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        best, witness, gen = -1, [], 0
        for gens, g in _generating_draws(ops, rng, trials, SET_SIZES):
            gen += 1
            if g.diameter > best:
                best = g.diameter
                witness = [ops.serialize(x) for x in gens]
        if gen == 0:
            raise NotGenerating(f"no generating draw in {trials} trials")
        return DiameterSurvey(best, "sampled-lower-bound", witness, trials, gen)

    elems = _sweep_corpus(ops, elements)
    if len(elems) == 1:
        return DiameterSurvey(0, "exhaustive", [], 1, 1)
    classes, bits, diam = _generating_unions(ops, elems, 2)
    witness = int(bits[diam.argmax()])  # the first set at the maximum
    wit = [ops.serialize(x) for i, cls in enumerate(classes)
           if witness >> i & 1 for x in cls]
    return DiameterSurvey(int(diam.max()), "exhaustive", wit,
                          2 ** len(classes) - 1, len(bits))


# ---------------------------------------------------------------------------
# quotient comparisons


def monotonicity_exhaustive(G_ops, Q_ops, proj):
    """diam(Q, pi(S)) <= diam(G, S) for every symmetric generating set S of
    G, plus the worst-case comparison.  Exhaustive-corpus sizes only.  The
    quotient's whole left-multiplication table is one `_bfs.bfs`.  pi(S)
    depends only on the quotient elements that S's classes project onto, so
    each class of G becomes the bit of its image (none for the identity,
    which moves no vertex), each S the OR of its classes' bits (one table
    over all unions, doubled class by class), and only the
    distinct images of the generating sets run through the multi-source BFS
    over the quotient (at most 15 for Z/27 -> Z/9 against 8,176 sets).  The
    identity and every class's projections are found in the quotient's
    enumeration by one `_bfs.positions` lookup (InvariantViolated where a
    projection is missing from it)."""
    classes, bits, dG = _generating_unions(G_ops, _sweep_corpus(G_ops), 4)
    qbatch = Q_ops.stack(all_elements(Q_ops))
    table = _bfs.bfs(Q_ops, qbatch, len(qbatch), left=True).perms
    at = _bfs.positions(Q_ops, qbatch, Q_ops.stack(
        [Q_ops.identity()] + [proj(x) for cls in classes for x in cls]))
    one = int(at[0])
    images = {}  # the quotient elements of an image -> its bit position
    image = np.zeros(1, dtype=np.int64)  # image[m]: OR of m's class bits
    for hit in np.split(at[1:], np.cumsum([len(cls) for cls in classes[:-1]])):
        hit = tuple(sorted(set(hit.tolist()) - {one}))
        bit = 1 << images.setdefault(hit, len(images)) if hit else 0
        image = np.concatenate([image, image | bit])
    if len(qbatch) > 1 and not images:
        raise NotGenerating("projected set does not generate the quotient")
    unions, inverse = np.unique(image[bits], return_inverse=True)
    dQ = _union_eccentricities([table[list(hit)] for hit in images],
                               len(qbatch), 0, unions)[inverse]
    if (dQ < 0).any():
        raise NotGenerating("projected set does not generate the quotient")
    violations = [{
        "set": [G_ops.serialize(x) for i, cls in enumerate(classes)
                if bits[j] >> i & 1 for x in cls],
        "diam_G": int(dG[j]),
        "diam_Q": int(dQ[j]),
    } for j in np.flatnonzero(dQ > dG)]
    wcG, wcQ = int(dG.max(initial=-1)), int(dQ.max(initial=-1))
    return {
        "mode": "exhaustive",
        "checked": len(bits),
        "violations": violations,
        "worst_case_G": wcG,
        "worst_case_Q": wcQ,
        "worst_case_ok": wcQ <= wcG,
    }


def _sampled_sets(ops, rng, count):
    """(gens, diameter) for the first `count` generating draws of SET_SIZES
    elements, within 30 * count attempts; each graph is dropped once its
    diameter is read."""
    attempts = 30 * count
    draws = _generating_draws(ops, rng, attempts, SET_SIZES)
    out = [(gens, g.diameter) for gens, g in itertools.islice(draws, count)]
    if len(out) < count:
        raise NotGenerating(
            f"only {len(out)} of {count} draws generated after {attempts} tries"
        )
    return out


def monotonicity_sampled(G_ops, Q_ops, proj, *, sets=20, seed=0):
    """Per-set diam(Q, pi(S)) <= diam(G, S) on sampled generating sets (the
    big-G regime where exhaustion is off the table)."""
    rng = np.random.default_rng(seed)
    violations = []
    rows = []
    for gens, dG in _sampled_sets(G_ops, rng, sets):
        image = [proj(x) for x in symmetrize(G_ops, gens)]
        dQ = build_graph(Q_ops, image, adjoin_identity=False).diameter
        rows.append({"diam_G": dG, "diam_Q": dQ})
        if dQ > dG:
            violations.append({
                "set": [G_ops.serialize(x) for x in gens],
                "diam_G": dG,
                "diam_Q": dQ,
            })
    return {
        "mode": "sampled",
        "checked": len(rows),
        "violations": violations,
        "pairs": rows,
    }


def extension_bound_check(G_ops, Q_ops, proj, kernel_elements, *, sets=20,
                          seed=0, exhaustive=False):
    """diam(G, S) <= (2 diam(Q) + 1)(diam(K) + 1/2) - 1/2 with worst-case
    right-hand side, for every enumerated or sampled generating set of G.
    The kernel and quotient sweeps must be exhaustive-feasible."""
    wcQ = worst_case_diameter(Q_ops).value
    wcK = worst_case_diameter(G_ops, elements=kernel_elements).value
    bound = (2 * wcQ + 1) * (wcK + 0.5) - 0.5
    if exhaustive:
        _, bits, diam = _generating_unions(G_ops, _sweep_corpus(G_ops), 2)
        diams = diam.tolist()
        violations = [{"bits": b, "diam_G": d}
                      for b, d in zip(bits.tolist(), diams) if d > bound + 1e-9]
    else:
        draws = _sampled_sets(G_ops, np.random.default_rng(seed), sets)
        diams = [d for _, d in draws]
        violations = [{"set": [G_ops.serialize(x) for x in gens], "diam_G": d}
                      for gens, d in draws if d > bound + 1e-9]
    return {
        "worst_case_Q": wcQ,
        "worst_case_K": wcK,
        "bound": bound,
        "checked": len(diams),
        "max_diam_G": max(diams) if diams else 0,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# random walks


def mixing_length(rho, order):
    """The step schedule 10 * ceil(1/(1-rho)) * log|G|, rounded up."""
    if order <= 1:
        return 0
    if rho >= 1.0:
        raise NotGenerating("walk norm at 1: no mixing schedule")
    # relative epsilon so exactly-representable gaps (rho = 0.9) don't get
    # their ceiling bumped by the 1/(1-rho) rounding error
    inv = 1.0 / (1.0 - rho)
    return int(math.ceil(10 * math.ceil(inv * (1.0 - 1e-12)) * math.log(order)))


def _coordinate_codes(graph, kind):
    """(order, ncoord) integer codes, per-coordinate support sizes, labels."""
    ops = graph.ops
    if kind == "NottinghamCoeffs":
        desc = getattr(ops, "descriptor", None)
        if desc is None or desc.family != "Nottingham":
            raise UsageError("NottinghamCoeffs needs a Nottingham quotient")
        q = desc.ring.field.q
        N = desc.ring.N
        codes = ops.entry_codes(graph.states)
        labels = [f"A{k}" for k in range(2, N + 1)]
        return codes, [q] * (N - 1), labels
    if kind == "FirstKind":
        desc = getattr(ops, "descriptor", None)
        if desc is None or desc.family == "Nottingham":
            raise UsageError("FirstKind needs a matrix quotient")
        ring = desc.ring
        d = desc.d
        labels = [f"x{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        # entries of g - 1 as integers base q; (g - 1)/P drops the lowest digit
        q, N = ring.field.q, ring.N
        eye = np.eye(d, dtype=np.int64)
        delta = (ops.entry_codes(graph.states) - eye) % q**N
        if (delta % q).any():
            raise UsageError(
                "FirstKind reads (g - 1)/P: walk the level-1 kernel")
        codes = (delta // q).reshape(graph.order, d * d).astype(np.int64)
        return codes, [q ** (N - 1)] * (d * d), labels
    if kind == "SecondKind":
        p = getattr(ops, "p", None)
        if p is None:
            raise UsageError(
                "SecondKind is only wired for abelian Z/p^e test quotients"
            )
        e = round(math.log(ops.n, p))
        digits = np.empty((graph.order, e), dtype=np.int64)
        rest = graph.states.copy()
        for j in range(e):
            digits[:, j] = rest % p
            rest //= p
        return digits, [p] * e, [f"c{j}" for j in range(e)]
    raise UsageError(f"unknown coordinate system {kind!r}")


@dataclass
class WalkReport:
    order: int
    set_size: int
    steps: int
    trials: int
    coordinates: str | None
    rho: float
    schedule: int
    sup_dev_mc: float
    tv_mc: float
    sup_dev_exact: float | None
    tv_exact: float | None
    scaled_sup_exact: float | None
    mc_vs_exact_sup: float | None
    mc_vs_exact_tv: float | None
    marginals: list

    def as_dict(self):
        return asdict(self)


def _unit(k):
    """The narrowest unsigned dtype whose units `_directions` reads k
    directions from: uint8 for k <= 256, uint16 up to 2^16, else uint32."""
    return np.dtype(np.uint8 if k <= 1 << 8
                    else np.uint16 if k <= 1 << 16 else np.uint32)


def _directions(rng, k, size):
    """`size` directions, each uniform on 0..k-1, from the raw words of
    `rng`'s bit generator cut into w-bit units of `_unit(k)`.  A unit u is
    accepted when u < k * q with q = 2^w // k and read as u // q, so every
    direction has exactly q preimages; the rejected positions are drawn
    again until none is left (bounded rejection, Lemire, ACM TOMACS 29(1),
    2019).  At k = 7, 4 of the 256 byte values are rejected."""
    unit = _unit(k)
    if k == 1:  # q = 2^w would not fit a unit
        return np.zeros(size, dtype=unit)
    w = 8 * unit.itemsize
    q = (1 << w) // k
    raw = rng.bit_generator.random_raw

    def units(m):
        return raw(-(-m * unit.itemsize // 8)).view(unit)[:m]

    u = units(size)
    if k * q < 1 << w:
        limit = unit.type(k * q)
        bad = np.flatnonzero(u >= limit)
        while len(bad):
            redraw = units(len(bad))
            u[bad] = redraw
            bad = bad[redraw >= limit]
    u //= unit.type(q)  # not u % k: a division by q is ~40x faster on bytes
    return u


def _walk(graph, steps, trials, seed):
    """One Monte Carlo batch of `trials` walks from the root, stepped
    `steps` times with a direction drawn per walk and step: yields
    (l, states, law) for l = 0..steps, law being the exact distribution
    after l steps from `_laws` when |G| <= CONV_CAP (read-only, and the
    same vector again past its fixed point), else None.  A step
    draws its directions d as narrow units (`_directions`), writes
    d * |G| + state into one index buffer (int32 while |dirs| * |G| <
    2^31), and makes one gather over the flattened permutations at those
    indices, written over the previous states: `states` is one buffer,
    valid until the next step.

    The work is counted before any step is taken: steps x trials, plus
    steps x |G| x |dirs| for the exact law.  Past WALK_WORK_CAP it raises
    BudgetExceeded (a gap near 1 schedules ~10^10 steps).  Then the
    memory: the state, the index buffer, the gather's intp indices, the
    units and their rejection mask per trial, and the checkpoint
    statistics' and the exact law's vectors beside the graph, against
    PROSK_BUDGET_MB."""
    n, k = graph.order, len(graph.perms)
    exact = n <= CONV_CAP
    if steps * trials + (steps * n * k if exact else 0) > WALK_WORK_CAP:
        raise BudgetExceeded(
            f"walk of {steps} steps x {trials} trials on {n} elements "
            f"exceeds WALK_WORK_CAP={WALK_WORK_CAP}")
    flat = graph.perms.ravel()  # flat[d * n + j] = perms[d, j]
    index = np.dtype(np.int32 if k * n < 2**31 else np.int64)
    per_trial = (flat.itemsize + index.itemsize + np.dtype(np.intp).itemsize
                 + _unit(k).itemsize + 1)
    # a checkpoint's counts, frequencies and deviations, and with the exact
    # law the law, its product and one gather: float64 vectors over G
    _bfs.check_budget(n, k, 6 if exact else 3, extra=trials * per_trial)
    rng = np.random.default_rng(seed)
    state = np.full(trials, graph.root, dtype=flat.dtype)
    idx = np.empty(trials, dtype=index)
    width = index.type(n)
    laws = _laws(graph, steps) if exact else itertools.repeat(None)
    for l, law in zip(range(steps + 1), laws):
        if l:
            # dtype= fixes the loop type: under numpy 1.x value-based
            # promotion, uint8 units times a scalar would multiply in uint8
            # or uint16 and wrap before the cast into idx
            np.multiply(_directions(rng, k, trials), width, out=idx,
                        dtype=index)
            idx += state
            flat.take(idx, out=state, mode="wrap")  # indices are in range
        yield l, state, law


def walk_statistics(ops, gens, *, steps=None, trials=10**5, coordinates=None,
                    seed=0, order=None, graph=None):
    """Monte Carlo l-step walk against the exact convolution, both read at
    the last step of `_walk` (steps defaults to the mixing schedule).

    Reports the sup deviation from uniform (the metric the coordinate
    equidistribution statements are phrased in), total variation, and — when
    a coordinate system is named — per-coordinate marginal distances.  The
    plug-in Monte Carlo estimate of total variation to uniform carries an
    irreducible ~sqrt(|G|/trials) upward bias at stationarity, so the
    headline closeness figures are the sup deviation and the per-marginal
    distances; the joint tv_mc is reported anyway, next to its noise floor.

    `graph`, when given, is the already built `build_graph(ops, gens,
    order=...)` and is walked instead of a new one.  A negative `steps` or
    `trials` < 1 is refused before any graph is built.
    """
    check_walk_sizes(0 if steps is None else steps, trials)
    if graph is None:
        graph = build_graph(ops, gens, order=order)
    n = graph.order
    rho = spectral_gap(graph)
    schedule = mixing_length(rho, n)
    if steps is None:
        steps = schedule
    k = len(graph.dirs)
    u = 1.0 / n
    _, state, mu = deque(_walk(graph, steps, trials, seed), maxlen=1)[0]
    emp = np.bincount(state, minlength=n) / trials

    dev = np.abs(emp - u)
    sup_mc = float(dev.max())
    tv_mc = float(0.5 * dev.sum())
    sup_ex = tv_ex = scaled = mvs = mvt = None
    if mu is not None:
        dev = np.abs(mu - u)
        sup_ex = float(dev.max())
        tv_ex = float(0.5 * dev.sum())
        scaled = float(n * sup_ex)
        mvs = float(np.abs(emp - mu).max())
        mvt = float(0.5 * np.abs(emp - mu).sum())

    marginals = []
    if coordinates is not None:
        codes, supports, labels = _coordinate_codes(graph, coordinates)
        for j, (m, lab) in enumerate(zip(supports, labels)):
            mm = np.bincount(codes[:, j], weights=emp, minlength=m)
            row = {
                "label": lab,
                "support": int(m),
                "tv_mc_uniform": float(0.5 * np.abs(mm - 1.0 / m).sum()),
                "sup_mc_uniform": float(np.abs(mm - 1.0 / m).max()),
            }
            if mu is not None:
                me = np.bincount(codes[:, j], weights=mu, minlength=m)
                row["tv_exact_uniform"] = float(0.5 * np.abs(me - 1.0 / m).sum())
                row["tv_mc_vs_exact"] = float(0.5 * np.abs(mm - me).sum())
            marginals.append(row)

    return WalkReport(
        order=n,
        set_size=k,
        steps=int(steps),
        trials=int(trials),
        coordinates=coordinates,
        rho=rho,
        schedule=schedule,
        sup_dev_mc=sup_mc,
        tv_mc=tv_mc,
        sup_dev_exact=sup_ex,
        tv_exact=tv_ex,
        scaled_sup_exact=scaled,
        mc_vs_exact_sup=mvs,
        mc_vs_exact_tv=mvt,
        marginals=marginals,
    )


def walk_series(ops, gens, *, l_max, trials=10**5, seed=0, checkpoints=None,
                graph=None):
    """Distance-to-uniform curve along one Monte Carlo run: sup-deviation and
    plug-in TV at checkpoint steps, with the exact law alongside when the
    group is small enough.  One `_walk` batch serves every checkpoint, so
    the rows are correlated in the way a single experiment would be, and
    the walk's work cap applies before any step.  `graph` reuses an already
    built graph, as in `walk_statistics`.  A negative `l_max` or `trials` <
    1 is refused before any graph is built."""
    check_walk_sizes(l_max, trials)
    if graph is None:
        graph = build_graph(ops, gens)
    n = graph.order
    if checkpoints is None:
        stride = max(1, l_max // 50)
        checkpoints = list(range(0, l_max + 1, stride))
        if checkpoints[-1] != l_max:
            checkpoints.append(l_max)
    cpset = set(int(c) for c in checkpoints)
    if not cpset or min(cpset) < 0 or max(cpset) > l_max:
        raise UsageError(f"checkpoints empty or outside [0, {l_max}]")
    rows, last = [], None
    for l, state, law in _walk(graph, l_max, trials, seed):
        if l in cpset:
            dev = np.abs(np.bincount(state, minlength=n) / trials - 1.0 / n)
            row = {
                "l": l,
                "sup_dev_mc": float(dev.max()),
                "tv_mc": float(0.5 * dev.sum()),
            }
            if law is not None:
                if law is not last:  # past the fixed point `_laws` repeats
                    dev, last = np.abs(law - 1.0 / n), law
                    columns = {"sup_dev_exact": float(dev.max()),
                               "tv_exact": float(0.5 * dev.sum())}
                row.update(columns)
            rows.append(row)
    return {
        "order": int(n),
        "directions": len(graph.perms),
        "trials": int(trials),
        "l_max": int(l_max),
        "exact": law is not None,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# growth series


def cyclic_contrast_series(p, n_max):
    """diam(Z/p^n, {+-1}) for n = 1..n_max — the one-generator non-FAb
    family, measured (BFS) rather than assumed.  Growth is exponential in n;
    the levels stop at CONTRAST_ORDER_CAP elements."""
    out = []
    for n in range(1, n_max + 1):
        if p**n > CONTRAST_ORDER_CAP:
            break
        g = build_graph(CyclicOps(p**n, p=p), [1], adjoin_identity=False)
        out.append({"level": n, "order": p**n, "diameter": g.diameter})
    return out


def quotient_diameter_series(desc, levels, *, sets_per_level=3, set_size=3,
                             seed=0):
    """max over sampled generating sets of diam at each congruence level:
    the first `sets_per_level` generating draws of `set_size` elements,
    within 20 * sets_per_level attempts."""
    from .matgroups import ops_for

    rng = np.random.default_rng(seed)
    out = []
    for n in levels:
        lops = ops_for(desc.truncated(n))
        draws = _generating_draws(lops, rng, 20 * sets_per_level, (set_size,))
        diams = [g.diameter for _, g in itertools.islice(draws, sets_per_level)]
        if not diams:
            raise NotGenerating(f"no generating draw at level {n}")
        out.append({
            "level": int(n),
            "order": lops.group_order(),
            "diameter": max(diams),
            "sets": len(diams),
        })
    return out


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), 1.0))
    return float(np.polyfit(lx, ly, 1)[0])
