"""One breadth-first enumeration engine for the finite quotients.

Every enumerated object in prosk comes out of `bfs`: the compiler's base
tables (`build_table`), and the Cayley graphs and sweep tables of
`spectral`.  The loop runs level by level from the identity.  A level's
candidates are the products of every frontier state with every direction,
laid out frontier-major; for each key the first candidate in that order
wins, and new states enter in discovery order.  Tables multiply on the right
(state * direction), graphs on the left (direction * state).  Every
candidate's key names a state, known or new, whose index goes straight into
the translation table `perms`, when the caller asks for one: one product
pass discovers and tabulates.  The shortest-word tables ask for none.

The engine runs on a group facade's batch surface (`matgroups.BatchOps`):
`stack`/`unstack` convert elements to and from a stack with a leading batch
axis, `outer` multiplies two stacks every-by-every, `keys` gives one int64
per element, and `identity_stack` starts the walk.  The facade alone picks
the layout, the product and the keys, from the group and never from its
size; the engine only sees arrays.

Word ops are packed ints: (generator_index << 1) | (0 for +1, 1 for -1), so
with directions laid out g_0, g_0^-1, g_1, g_1^-1, ... a direction's index
is its op code.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, InvariantViolated, NotGenerating
from .matgroups import ops_for

_BYTES_PER_STATE = 72  # key + parent + op + dist + element slack
_BYTES_PER_RECORD = 28  # parent, op, dist, sorted key and its index
_BYTES_PER_OBJECT = 32  # the Python int behind an object stack entry
_BYTES_PER_EDGE = 4  # one int32 permutation entry per direction
_BYTES_PER_FLOAT = 8  # one float64 entry per state, per vector over them
_CHUNK = 1 << 16  # BFS candidates (products) held at once


def budget_mb():
    """The PROSK_BUDGET_MB cap on enumeration memory (default 1024)."""
    return int(os.environ.get("PROSK_BUDGET_MB", "1024"))


def _bytes_per_state(dirs, vectors=0):
    return (_BYTES_PER_STATE + _BYTES_PER_EDGE * dirs
            + _BYTES_PER_FLOAT * vectors)


def _charge(need, what):
    mb = budget_mb()
    if need > mb * 2**20:
        raise BudgetExceeded(
            f"{what} needs ~{need >> 20} MB > PROSK_BUDGET_MB={mb}")


def check_budget(states, dirs, vectors=0):
    """BudgetExceeded unless `states` states with `dirs` directions, and
    `vectors` float64 vectors over them, fit."""
    _charge(states * _bytes_per_state(dirs, vectors),
            f"enumerating {states} elements x {dirs} directions"
            f"{f' + {vectors} vectors' if vectors else ''}")


def vectors_that_fit(states, dirs):
    """The most float64 vectors over `states` states that `check_budget`
    accepts beside their enumeration with `dirs` directions."""
    spare = budget_mb() * 2**20 - states * _bytes_per_state(dirs)
    return max(spare, 0) // (_BYTES_PER_FLOAT * states)


def _held_bytes(X):
    """The bytes of the stack X, with the Python int behind each entry of
    an object stack."""
    return X.nbytes + (X.size * _BYTES_PER_OBJECT if X.dtype == object else 0)


def check_elements(ops, count):
    """BudgetExceeded unless `count` elements of the facade `ops` fit, as
    enumerated: each element object and its own array (the sizes of the
    identity and of its stack of one), and its entry of the stack the
    elements are cut from, at the stack product's peak
    (`ops.product_copies()` entries).  Under tracemalloc the peak per
    element is 267 B for SL2(Z/27), charged 320 B; 363 B for
    SL2(F_5[[t]]/t^2), charged 608 B; 393 B for the Nottingham group
    q = 5, N = 7, charged 512 B."""
    one = ops.identity_stack()
    per = (sys.getsizeof(ops.identity()) + sys.getsizeof(one)
           + _held_bytes(one) * ops.product_copies())
    _charge(count * per, f"enumerating {count} elements of ~{per} B")


def _check_bfs_budget(ops, one, states, dirs, candidates, table):
    """BudgetExceeded unless a `bfs` of `states` states over `dirs`
    directions fits: each state's stack entries (the bytes of the one-state
    stack `one`, and a Python int behind each entry of an object stack) and
    its record, held twice at the end, in the per-level pieces and in their
    concatenation; its column of the int32 translation table, if `table`;
    and one chunk of `candidates` products, each `ops.product_copies()`
    stack entries at the product's peak."""
    held = _held_bytes(one)
    edges = _BYTES_PER_EDGE * dirs if table else 0
    _charge(states * (2 * (held + _BYTES_PER_RECORD) + edges)
            + candidates * held * ops.product_copies(),
            f"a BFS over {states} elements of {held} B x {dirs} directions")


# ---------------------------------------------------------------------------
# the engine


class KeyIndex:
    """Positions of keys in a fixed key array (-1 where absent), from the
    array's keys in ascending order and the position of each."""

    def __init__(self, sorted_keys, sorter):
        self._sorted = sorted_keys
        self._sorter = sorter

    @classmethod
    def of(cls, keys):
        sorter = np.argsort(keys, kind="stable")
        return cls(keys[sorter], sorter)

    def find(self, keys):
        pos = np.searchsorted(self._sorted, keys)
        pos = np.minimum(pos, len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._sorter[pos], -1)


class Enumeration(NamedTuple):
    """States in discovery order (an ops stack) with their BFS-tree
    parents (-1 at the identity), the index of the direction that reached
    each state, distances from the identity, perms[a, j] (int32), the
    index of dirs[a] * states[j] (left) or states[j] * dirs[a] (right), or
    None where no table was asked for, and `index`, the state of each key,
    over the sorted keys the walk kept."""

    states: object
    parent: np.ndarray
    op: np.ndarray
    dist: np.ndarray
    perms: np.ndarray | None
    index: KeyIndex


def bfs(ops, dirs, expected, *, left, translations=True):
    """Enumerate the subgroup that the stack `dirs` of the facade `ops`
    generates, which must have `expected` elements (NotGenerating
    otherwise), with its translations by `dirs` if `translations`.  A level
    expands _CHUNK candidates at a time, so its transient arrays stay
    bounded."""
    frontier = ops.identity_stack()
    k = len(dirs)
    step = max(1, _CHUNK // max(k, 1))  # frontier states per expansion
    _check_bfs_budget(ops, frontier, expected, k, min(step, expected) * k,
                      translations)
    perms = np.empty((k, expected), dtype=np.int32) if translations else None
    seen = ops.keys(frontier)  # every key so far, sorted
    index = np.zeros(1, dtype=np.int32)  # the state of each key in `seen`
    states = [frontier]
    parent = [np.full(1, -1, dtype=np.int64)]
    op = [np.zeros(1, dtype=np.int32)]
    dist = [np.zeros(1, dtype=np.int32)]
    start, count = 0, 1  # index of the frontier's first state; states so far
    while k:
        found = []
        for lo in range(0, len(frontier), step):
            cand = ops.outer(frontier[lo : lo + step], dirs, left=left)
            ckeys = ops.keys(cand)
            uniq, first, inverse = np.unique(ckeys, return_index=True,
                                             return_inverse=True)
            pos = np.searchsorted(seen, uniq)
            at = np.minimum(pos, len(seen) - 1)
            idx, fresh = index[at], seen[at] != uniq
            new = np.sort(first[fresh])
            if count + len(new) > expected:  # before the table overflows
                raise NotGenerating(
                    f"directions span more of {expected} elements")
            idx[inverse[new]] = np.arange(count, count + len(new))
            seen = np.insert(seen, pos[fresh], uniq[fresh])
            index = np.insert(index, pos[fresh], idx[fresh])
            if translations:
                m = len(cand) // k
                perms[:, start + lo : start + lo + m] = (
                    idx[inverse].reshape(m, k).T)
            found.append((cand[new], start + lo + new // k,
                          (new % k).astype(np.int32)))
            count += len(new)
        start += len(frontier)
        frontier, fparent, fop = map(np.concatenate, zip(*found))
        if not len(frontier):
            break
        states.append(frontier)
        parent.append(fparent)
        op.append(fop)
        dist.append(np.full(len(frontier), len(dist), dtype=np.int32))
    if count != expected:
        raise NotGenerating(f"directions span {count} of {expected} elements")
    return Enumeration(*map(np.concatenate, (states, parent, op, dist)),
                       perms, KeyIndex(seen, index))


def positions(ops, elements, items):
    """Index in the stack `elements` of each element of the stack `items`."""
    idx = KeyIndex.of(ops.keys(elements)).find(ops.keys(items))
    if (idx < 0).any():
        raise InvariantViolated("element missing from the enumeration")
    return idx


# ---------------------------------------------------------------------------
# shortest-word tables


class ShortestWordTable:
    """Every coset of G/K_level mapped to a shortest word over the directions
    {g_i, g_i^-1}: the BFS tree of one right-multiplication `bfs` of the
    quotient.  Immutable after construction."""

    def __init__(self, level, ops, run, project):
        self.level = level
        self._ops = ops
        self._project = project
        self._index = run.index
        self._parent = run.parent
        self._op = run.op
        self.count = len(run.dist)
        self.l0 = int(run.dist.max())

    def word_for(self, g):
        """Packed ops (np.int32) of the stored shortest word for g's coset."""
        key = self._ops.keys(self._ops.stack([self._project(g)]))
        i = int(self._index.find(key)[0])
        if i < 0:
            raise NotGenerating(f"coset key {int(key[0])} missing from table")
        word = []
        while self._parent[i] >= 0:
            word.append(self._op[i])
            i = self._parent[i]
        word.reverse()
        return np.array(word, dtype=np.int32)


def build_table(ops, gens, level):
    """BFS the quotient at `level` from the identity over gens and their
    inverses; NotGenerating if the walk closes early."""
    qops = ops_for(ops.descriptor.truncated(level))
    dirs = []
    for g in gens:
        gq = ops.project(g, level)
        dirs += [gq, qops.inv(gq)]
    run = bfs(qops, qops.stack(dirs), ops.quotient_order(level), left=False,
              translations=False)
    return ShortestWordTable(level, qops, run, lambda g: ops.project(g, level))
