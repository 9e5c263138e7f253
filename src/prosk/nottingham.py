"""The Nottingham group at finite truncation: power series t + a_2 t^2 + ...
+ a_N t^N over F_q under composition.

The product convention is (f * g)(t) = g(f(t)): apply f first.  K_n is the
set of series with a_k = 0 for k <= n; depth(f) = (first nonzero slot) - 1,
or N for the identity.

Elements, stacks and kernels hold series as coefficient "planes": int64
arrays (..., k, L) of base-p digits, k the field degree, L = N + 1
coefficients t^0..t^N (a_j has field code sum_r planes[r, j] p^r).  Kernels
broadcast over leading batch axes.  An element is a `matgroups.FilteredElement`
holding a (1, k, L) stack of one, whose identity `NottinghamOps.eye` is the
series t.  Field codes enter through `from_codes` and leave through
`NottinghamOps.coeffs` or `NottinghamOps.entry_codes`.

The element ops (identity, mul, inv) are the shared `matgroups.BatchOps`
methods over `NottinghamOps.product` and `inverse`, and the path from
stacks to elements checks that each series is t + O(t^2).
The oracle's level rules are `oracle_admissible` (n <= m <= 2n and p not
dividing m - n).  The oracle, `commutator_pairs`, agrees with its target
mod K_min(2n+m, N): its window clips at the truncation.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BadLevelPair,
    IndexOutOfRange,
    InvariantViolated,
    LevelTooLarge,
    NotDeepEnough,
    OracleLevelRejected,
    UsageError,
)
from .matgroups import BatchOps, FilteredElement, ops_for
from .rings import get_field

_CTX_CACHE: dict = {}


class SeriesContext:
    """Field tables plus the plane-reduction tensor for one (q, L)."""

    def __init__(self, q, L):
        self.q = q
        self.L = L
        self.field = get_field(q)
        self.p = self.field.p
        self.k = self.field.k
        k, p = self.k, self.p
        # C[i, j, r]: plane r of the field product x^i * x^j
        C = np.zeros((k, k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                code = self.field.mul(p**i, p**j)
                for r in range(k):
                    C[i, j, r] = (code // p**r) % p
        self.C = C
        # binom[m, i] = C(m, i) mod p, for the Hasse derivatives in compose
        binom = np.zeros((L, L), dtype=np.int64)
        binom[:, 0] = 1
        for m in range(1, L):
            binom[m, 1:] = (binom[m - 1, 1:] + binom[m - 1, :-1]) % p
        self.binom = binom

    # -- conversions ------------------------------------------------------

    def digits(self, codes):
        """Field codes (...) in [0, q) -> their base-p digits (..., k), the
        planes of each field element."""
        codes = np.asarray(codes, dtype=np.int64)
        return codes[..., None] // self.p ** np.arange(self.k) % self.p

    def codes(self, digits):
        """The inverse of `digits`: (..., k) -> field codes (...)."""
        return digits @ self.p ** np.arange(self.k)

    def planes_from_codes(self, codes):
        """codes: (..., L) ints in [0, q) -> planes (..., k, L)."""
        return np.ascontiguousarray(np.swapaxes(self.digits(codes), -1, -2))

    def codes_from_planes(self, planes):
        return self.codes(np.swapaxes(planes, -1, -2))

    def t(self, batch=()):
        out = np.zeros(batch + (self.k, self.L), dtype=np.int64)
        out[..., 0, 1] = 1
        return out

    # -- core arithmetic --------------------------------------------------

    def _tconv(self, A, B):
        """Truncated convolution along the last axis, no reduction."""
        L = self.L
        if A.size == B.size == L:  # one series each, as an element holds
            out = np.convolve(A.ravel(), B.ravel())[:L]
            return out.reshape(A.shape if A.ndim >= B.ndim else B.shape)
        shape = np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (L,)
        out = np.zeros(shape, dtype=np.int64)
        # iterate over the sparser operand
        nzA = np.flatnonzero(A.reshape(-1, L).any(axis=0) if A.ndim > 1 else A)
        nzB = np.flatnonzero(B.reshape(-1, L).any(axis=0) if B.ndim > 1 else B)
        if len(nzA) <= len(nzB):
            for s in nzA:
                out[..., s:] += A[..., s : s + 1] * B[..., : L - s]
        else:
            for s in nzB:
                out[..., s:] += B[..., s : s + 1] * A[..., : L - s]
        return out

    def mul(self, A, B):
        """Series product of plane arrays, truncated at L."""
        k = self.k
        if k == 1:
            return self._tconv(A[..., 0, :], B[..., 0, :])[..., None, :] % self.p
        shape = np.broadcast_shapes(A.shape, B.shape)
        out = np.zeros(shape, dtype=np.int64)
        for i in range(k):
            for j in range(k):
                T = self._tconv(A[..., i, :], B[..., j, :])
                for r in range(k):
                    c = self.C[i, j, r]
                    if c:
                        out[..., r, :] += c * T
        return out % self.p

    def smul(self, h, S):
        """Field scalar (planes (..., k)) times series S (..., k, L)."""
        k = self.k
        if k == 1:
            return (h[..., :, None] * S) % self.p
        out = np.zeros(np.broadcast_shapes(h.shape + (1,), S.shape), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                T = h[..., i, None] * S[..., j, :]
                for r in range(k):
                    c = self.C[i, j, r]
                    if c:
                        out[..., r, :] += c * T
        return out % self.p

    def power(self, F, e):
        """F^e truncated, by repeated squaring."""
        result = None
        base = F
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        if result is None:
            out = np.zeros_like(F)
            out[..., 0, 0] = 1
            return out
        return result

    def compose(self, G, F):
        """G(F), by the cheaper of two exact schedules.

        Horner over G's coefficients takes deg G products.  When F = t + h
        with h of valuation v >= 2 (over a batch, the smallest v), the
        Hasse-Taylor expansion G(t + h) = sum_{i <= I} (D^(i) G) h^i, with
        I = floor((L - 1) / v) and D^(i) the i-th Hasse derivative, takes I
        (nested in h); it runs when I < deg G.  A deep inner series, like a
        compile residual, then costs a few products instead of L - 1.
        """
        Gr = G.reshape(-1, self.k, self.L)
        support = np.flatnonzero(Gr.any(axis=(0, 1)))
        if len(support) == 0:
            return np.zeros(np.broadcast_shapes(G.shape, F.shape), dtype=np.int64)
        top = int(support[-1])
        I = self._taylor_terms(F)
        if I is not None and I < top:
            return self._taylor(G, F, I)
        return self._horner(G, F, top)

    def _horner(self, G, F, top):
        """G(F) for G of degree top: top products."""
        R = np.zeros(np.broadcast_shapes(G.shape, F.shape), dtype=np.int64)
        R[..., :, 0] = G[..., :, top]
        for j in range(top - 1, -1, -1):
            R = self.mul(R, F)
            R[..., :, 0] = (R[..., :, 0] + G[..., :, j]) % self.p
        return R

    def _taylor_terms(self, F):
        """floor((L - 1) / v) when every series of F is t + h with v(h) >= v
        >= 2, v the smallest valuation (0 for F = t); None when some F[0] != 0
        or F[1] != t."""
        Fr = F.reshape(-1, self.k, self.L)
        if Fr[:, :, 0].any() or (Fr[:, 0, 1] != 1).any() or Fr[:, 1:, 1].any():
            return None
        tail = np.flatnonzero(Fr[:, :, 2:].any(axis=(0, 1)))
        return (self.L - 1) // (int(tail[0]) + 2) if len(tail) else 0

    def _taylor(self, G, F, I):
        """sum_{i <= I} (D^(i) G) h^i for F = t + h, as D^(0) G + h (D^(1) G +
        h (...)): I products.  (D^(i) G)_m = C(m + i, i) g_{m+i}."""
        L, p = self.L, self.p
        h = F.copy()
        h[..., 0, 1] = 0
        R = np.zeros(np.broadcast_shapes(G.shape, F.shape), dtype=np.int64)
        for i in range(I, -1, -1):
            if i < I:
                R = self.mul(R, h)
            R[..., : L - i] += G[..., i:] * self.binom[i:, i] % p
            R %= p
        return R

    def solve_right(self, Y, X):
        """The series C with C(X) = Y (X monic of the form t + ...)."""
        L = self.L
        shape = np.broadcast_shapes(Y.shape, X.shape)
        Yb = np.broadcast_to(Y, shape)
        acc = np.zeros(shape, dtype=np.int64)
        out = np.zeros(shape, dtype=np.int64)
        pw = X
        for m in range(1, L):
            # coefficient planes of t^m in the deficit
            h = (Yb[..., :, m] - acc[..., :, m]) % self.p
            out[..., :, m] = h
            if pw is not None and h.any():
                acc = (acc + self.smul(h, pw)) % self.p
            if m + 1 < L:
                pw = self.mul(pw, X)
        return out

    def inverse(self, F):
        """Compositional inverse: H with H(F) = t (= F(H))."""
        return self.solve_right(np.broadcast_to(self.t(), F.shape), F)

    def append_generator(self, acc, a, lam_planes):
        """acc * e_{a,lam} = acc + lam * acc^(a+1) (product convention)."""
        if a + 1 >= self.L:
            return acc
        pw = self.power(acc, a + 1)
        return (acc + self.smul(lam_planes, pw)) % self.p

    def first_difference_depth(self, A, B):
        """depth(x^-1 y) for the elements with planes A, B: slot where the
        series first differ, minus one; N if equal."""
        L = self.L
        diff = (A != B).any(axis=-2)
        has = diff.any(axis=-1)
        first = np.argmax(diff, axis=-1)
        return np.where(has, first - 1, L - 1)


def series_context(q, L):
    key = (q, L)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = SeriesContext(q, L)
    return _CTX_CACHE[key]


# ---------------------------------------------------------------------------
# elements


def from_codes(desc, codes):
    """The element t + sum_j codes[j - 2] t^j: codes are the field codes of
    a_2 .. a_N, the layout of `NottinghamOps.coeffs`."""
    N = desc.ring.N
    if len(codes) != N - 1:
        raise InvariantViolated(
            f"{len(codes)} coefficients for truncation N={N}")
    ops = ops_for(desc)
    P = ops.ctx.t((1,))
    P[0, :, 2:] = ops.ctx.digits(codes).T
    return ops._element(P)


def generator(desc, n, lam):
    """e_{n, lam} = t + lam t^(n+1)."""
    N = desc.ring.N
    if not 1 <= n <= N - 1:
        raise IndexOutOfRange(f"generator index {n} not in [1, {N - 1}]")
    lam = int(lam)
    if not 0 <= lam < desc.ring.field.q:
        raise UsageError("generator coefficient out of range")
    coeffs = [0] * (N - 1)
    coeffs[n - 1] = lam
    return from_codes(desc, coeffs)


def project(a, m):
    desc = a.descriptor
    if m < 1:
        raise UsageError("projection level must be >= 1")
    if m > desc.ring.N:
        raise LevelTooLarge(f"level {m} exceeds truncation N={desc.ring.N}")
    return FilteredElement(desc.truncated(m), a.stack[..., : m + 1])


def canonical_coordinates(f):
    """gamma_1..gamma_{N-1} with f = e_{1,g_1} * e_{2,g_2} * ... (ascending
    product in the group convention)."""
    desc = f.descriptor
    N = desc.ring.N
    ctx = ops_for(desc).ctx
    r = f.stack[0]
    out = []
    for n in range(1, N):
        code = int(ctx.codes(r[:, n + 1]))
        out.append(code)
        if code:
            # peel: r <- r o e^-1, i.e. solve s with s(e) = r
            r = ctx.solve_right(r, generator(desc, n, code).stack[0])
    return out


def from_canonical(desc, gammas):
    ops = ops_for(desc)
    g = ops.identity()
    for n, c in enumerate(gammas, start=1):
        if c:
            g = ops.mul(g, generator(desc, n, c))
    return g


def enumerate_quotient(desc):
    """Every element of the quotient, checked against PROSK_BUDGET_MB
    before any element is built, in lexicographic order of (a_2, ..., a_N)."""
    from . import _bfs  # local: _bfs imports matgroups

    q = desc.ring.field.q
    N = desc.ring.N
    ops = ops_for(desc)
    _bfs.check_elements(ops, q ** (N - 1))
    codes = np.zeros((q ** (N - 1), N + 1), dtype=np.int64)
    codes[:, 1] = 1
    codes[:, 2:] = (np.arange(len(codes))[:, None]
                    // q ** np.arange(N - 2, -1, -1) % q)
    return ops.unstack(ops.ctx.planes_from_codes(codes))


def sample_uniform(desc, rng):
    q = desc.ring.field.q
    return from_codes(desc, rng.integers(0, q, size=desc.ring.N - 1))


def sample_kernel(desc, n, rng):
    N = desc.ring.N
    if not 1 <= n <= N:
        raise LevelTooLarge(f"kernel level {n} out of range")
    q = desc.ring.field.q
    coeffs = np.zeros(N - 1, dtype=np.int64)
    if n < N:
        coeffs[n - 1 :] = rng.integers(0, q, size=N - 1 - (n - 1))
    return from_codes(desc, coeffs)


# ---------------------------------------------------------------------------
# the commutator oracle


def commutator_pairs(r, n, m):
    """Write r in K_{n+m} as [g1, e_{m,1}] * [g2, e_{m+1,1}] agreeing with r
    mod K_min(2n+m, N); g1, g2 are products of at most n basic generators
    in K_n.

    Level rules: n <= m <= 2n, and the residue characteristic must not
    divide m - n.  Past the truncation the window clips at N.
    """
    desc = r.descriptor
    N = desc.ring.N
    p = desc.ring.p
    ops = ops_for(desc)
    if not 1 <= n <= m <= 2 * n:
        raise BadLevelPair(f"need 1 <= n <= m <= 2n, got ({n}, {m})")
    if (m - n) % p == 0:
        raise OracleLevelRejected(f"p = {p} divides m - n = {m - n}")
    depth = ops.depth(r)
    if depth < min(n + m, N):
        raise NotDeepEnough(f"oracle input depth {depth} < {n + m}")
    if n + m >= N:
        return []
    lam, mu = _oracle_solve(desc, r.stack, n, m)
    g1 = _generator_product(ops, range(n, 2 * n), lam[0])
    g2 = _generator_product(ops, range(n, 2 * n - 1), mu[0, 1:])
    out = []
    if ops.depth(g1) < N:
        out.append((g1, generator(desc, m, 1)))
    if ops.depth(g2) < N:
        out.append((g2, generator(desc, m + 1, 1)))
    return out


def _generator_product(ops, slots, codes):
    """e_{a_1,c_1} * e_{a_2,c_2} * ... over zip(slots, codes), each factor
    appended as acc + c acc^(a+1)."""
    ctx = ops.ctx
    acc = ctx.t()
    for a, c, lam in zip(slots, codes.tolist(), ctx.digits(codes)):
        if c:
            acc = ctx.append_generator(acc, a, lam)
    return ops._element(acc[None])


def _oracle_solve(desc, R, n, m):
    """Batched window solve.  R: (B, k, L) planes of elements of K_{n+m}.
    Returns (lam, mu): (B, n) code arrays; mu[:, 0] unused.

    Window bookkeeping: within slots [n+m, 2n+m) the coefficients of a
    product of commutators of K_n x K_m pieces add up, so each slot is
    cleared by one new generator whose single-commutator contribution is
    linear in its coefficient there.
    """
    N = desc.ring.N
    q = desc.ring.field.q
    p = desc.ring.p
    field = get_field(q)
    B = R.shape[0]
    Lw = min(2 * n + m, N) + 1  # working truncation: degrees 0..Lw-1
    ctx = series_context(q, Lw)
    target = R[..., :Lw]
    accum = np.zeros_like(target)  # window coefficients of the product so far
    accum[..., 0, 1] = 1
    lam = np.zeros((B, n), dtype=np.int64)
    mu = np.zeros((B, n), dtype=np.int64)
    for i in range(n):
        deg = n + m + 1 + i  # leading degree of the step-i commutator
        if deg >= Lw:
            break
        deficit = ctx.codes(target[..., deg])
        have = ctx.codes(accum[..., deg])
        need = field.sub_codes(deficit, have)
        if not need.any():
            continue
        a = n + i
        use_mu = (i >= 1) and ((a - m) % p == 0)
        if use_mu:
            a, b, dest = n - 1 + i, m + 1, mu
        else:
            b, dest = m, lam
        table = _commutator_table(q, Lw, a, b)
        c = int(ctx.codes(table[1, :, deg]))
        if c == 0:
            raise InvariantViolated(
                "window denominator vanished"
                + (" on the shifted rail" if use_mu else ""))
        coeff = field.div_codes(need, c)
        dest[:, i] = coeff
        contrib = table[coeff]
        accum = _window_add(ctx, accum, contrib)
    return lam, mu


def _single_commutator(ctx, a, coeff_codes, b):
    """Planes of [e_{a,coeff}, e_{b,1}], batched over coeff."""
    x = ctx.t(coeff_codes.shape)
    if a + 1 < ctx.L:
        x[:, :, a + 1] = ctx.digits(coeff_codes)
    y = ctx.t()
    if b + 1 < ctx.L:
        y[0, b + 1] = 1
    xy = ctx.compose(np.broadcast_to(y, x.shape), x)  # x * y
    yx = ctx.compose(x, np.broadcast_to(y, x.shape))  # y * x
    return ctx.solve_right(xy, yx)


@functools.cache
def _commutator_table(q, L, a, b):
    """Read-only planes (q, k, L) of [e_{a,c}, e_{b,1}] for every code c in
    the series context (q, L); the oracle's window steps are rows of it."""
    table = _single_commutator(series_context(q, L), a,
                               np.arange(q, dtype=np.int64), b)
    table.setflags(write=False)
    return table


def _window_add(ctx, accum, contrib):
    """Product of deep elements: coefficients add in the working window."""
    out = (accum + contrib) % ctx.p
    out[..., 0, 1] = 1  # both carry the leading t; keep a single copy
    return out


# ---------------------------------------------------------------------------
# parsing


def parse_series(desc, text):
    N = desc.ring.N
    q = desc.ring.field.q
    coeffs = [0] * (N - 1)
    seen = set()
    parts = text.replace(" ", "").split("+")
    if not parts or parts[0] != "t":
        raise UsageError(f"series must start with the term 't': {text!r}")
    for part in parts[1:]:
        if "t^" not in part:
            raise UsageError(f"bad series term {part!r}")
        cpart, _, epart = part.partition("t^")
        try:
            c = int(cpart) if cpart else 1
            e = int(epart)
        except ValueError as exc:
            raise UsageError(f"bad series term {part!r}") from exc
        if not 2 <= e <= N:
            raise LevelTooLarge(f"exponent {e} outside storage range [2, {N}]")
        if not 0 <= c < q:
            raise UsageError(f"coefficient {c} outside [0, {q})")
        if e in seen:
            raise UsageError(f"exponent {e} repeated in {text!r}")
        seen.add(e)
        coeffs[e - 2] = c
    return from_codes(desc, coeffs)


# ---------------------------------------------------------------------------
# the uniform ops facade


class NottinghamOps(BatchOps):
    """Uniform handle used by the compiler and the verifier.  Stacks are
    (B, k, L) coefficient planes, and `eye` is the series t."""

    n0 = 3  # a compile plan's default base depth: tables of G/K_(D n0)

    def __init__(self, desc):
        self.descriptor = desc
        self.ctx = series_context(desc.ring.field.q, desc.ring.N + 1)
        self.eye = self.ctx.t((1,))
        self.eye.setflags(write=False)

    def _element(self, P):
        x = super()._element(P)
        # t + O(t^2): t's own digit is the only nonzero one at t^0 and t^1
        if P[0, 0, 1] != 1 or np.count_nonzero(P[0, :, :2]) != 1:
            raise InvariantViolated("series is not in the group")
        return x

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b, computed as the C with C(b·a) = a·b: one
        solve where the shared commutator pays a stacked inverse."""
        ctx = self.ctx
        A, B = self._own(a).stack, self._own(b).stack
        return self._element(ctx.solve_right(ctx.compose(B, A),
                                             ctx.compose(A, B)))

    def depth(self, a):
        # the rows of planes.T are slots; slot j + 2 nonzero -> depth j + 1
        slots = a.stack[0].T[2:].nonzero()[0]
        return int(slots[0]) + 1 if len(slots) else self.descriptor.ring.N

    def key(self, a, level=None):
        """Bytes equal exactly when the coefficients a_2 .. a_level agree
        (all of them when level is None)."""
        if level is None:
            return a.stack.tobytes()
        return a.stack[..., 2 : level + 1].tobytes()

    def project(self, a, m):
        return project(a, m)

    def oracle(self, r, n, m):
        """At most two pairs (g, h), g in K_n and h in K_m, whose
        commutators multiply to r in K_(n+m) mod K_min(2n+m, N)."""
        return commutator_pairs(r, n, m)

    def oracle_admissible(self, n, m):
        return 1 <= n <= m <= 2 * n and (m - n) % self.descriptor.ring.p != 0

    def pairs_bound(self):
        return 2

    def sample_kernel(self, n, rng):
        return sample_kernel(self.descriptor, n, rng)

    def sample_uniform(self, rng):
        return sample_uniform(self.descriptor, rng)

    def coeffs(self, a):
        """The field codes of a_2 .. a_N."""
        return tuple(self.entry_codes(a.stack)[0].tolist())

    def serialize(self, a):
        return list(self.coeffs(a))

    def deserialize(self, raw):
        N = self.descriptor.ring.N
        q = self.descriptor.ring.field.q
        if (not isinstance(raw, list) or len(raw) != N - 1
                or any(not isinstance(c, int) or not 0 <= c < q for c in raw)):
            raise UsageError(f"bad coefficient vector {raw!r}: need {N - 1} "
                             f"integers in [0, {q})")
        return from_codes(self.descriptor, raw)

    # stacks

    def product(self, A, B):
        """Entrywise products A[i] * B[i] = B[i](A[i](t)), broadcast over
        the batch axes."""
        return self.ctx.compose(B, A)

    def outer(self, A, B, left=False):
        """The stack whose entry i * len(B) + j is A[i] * B[j] =
        B[j](A[i](t)), or, if left, B[j] * A[i] = A[i](B[j](t)).  A left
        product's inner series is always a B[j], so the left stack is the
        flat planes of A times the power matrices of B (`power_matrices`)
        side by side: one int64 matmul, exact since kL (p - 1)^2 < 2^63,
        whose row i is already entries i * len(B) .. i * len(B) + len(B) - 1.
        A right product's inner series vary with i, so it stays the batched
        `compose`."""
        if not left:
            return super().outer(A, B)
        kL = self.ctx.k * self.ctx.L
        M = self.power_matrices(B).transpose(1, 0, 2).reshape(kL, -1)
        out = A.reshape(len(A), kL) @ M
        out %= self.ctx.p
        return out.reshape((-1,) + A.shape[1:])

    def inverse(self, P):
        """Entrywise (compositional) inverses of the stack P."""
        return self.ctx.inverse(P)

    def product_copies(self):
        """The right product's compose, its running product and plane
        convolutions, peaks at 3.1 to 3.2 copies of its output under
        tracemalloc at q = 5 and 3.6 to 3.7 at q = 9 (N = 4 to 27, 65,536
        products), charged 3 + k; the left product's one matmul peaks at
        1.00 to 1.01 copies."""
        return 3 + self.ctx.k

    def entry_codes(self, P):
        """(B, N - 1) field codes of a_2 .. a_N for the stack P."""
        return self.ctx.codes_from_planes(P)[:, 2:]

    def keys(self, P):
        """One int64 key per element: the base-p digits of the planes of
        t^2..t^N, packed when q^(N-1) < 2^63, and interned past that."""
        return self._keys(P[:, :, 2:].reshape(len(P), -1),
                          self.descriptor.ring.p)

    # power matrices: a word folds right to left over flat planes (k*L
    # vectors), each letter one F_p-linear map f -> f o s, and a left
    # `outer` applies one such map per direction

    def power_matrices(self, P):
        """(B, kL, kL) int64: entry b is the matrix of f -> f o P[b] on
        flattened planes, whose row (i, e) holds the planes of
        x^i * P[b]^e, x^i the i-th basis element of F_q over F_p.  The
        powers of the whole stack come from L - 2 batched series products,
        and the field's basis multiplies them in one einsum with `ctx.C`."""
        ctx = self.ctx
        k, L = ctx.k, ctx.L
        PM = np.zeros((len(P), L, k, L), dtype=np.int64)  # PM[b, e] = P[b]^e
        PM[:, 0, 0, 0] = 1
        PM[:, 1] = P  # L = N + 1 >= 2
        for e in range(2, L):
            PM[:, e] = ctx.mul(PM[:, e - 1], P)
        M = np.einsum("ijr,bejl->bierl", ctx.C, PM) % ctx.p
        return M.reshape(len(P), k * L, k * L)

    def power_matrix(self, elem):
        """The (kL, kL) int64 matrix of f -> f o elem on flattened planes:
        `power_matrices` of elem's stack of one."""
        return self.power_matrices(elem.stack)[0]

    def eval_apply(self, acc, M):
        """acc o s for the power matrix M of s."""
        return acc @ M % self.descriptor.ring.p
