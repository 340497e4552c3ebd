'''Join-endomorphisms of a finite lattice.

A join-endomorphism maps bottom to bottom and preserves binary joins.  The
set E(L) of all of them is itself a lattice under the pointwise order; this
module provides the membership test, pointwise structure, exhaustive
enumeration and seeded random sampling, plus the one-line text format.
'''
from __future__ import annotations

import random
from functools import cached_property, reduce

import numpy as np

from .errors import BudgetExceededError, EmptySetError, RetryExhaustedError

ENUM_BUDGET = 10 ** 8
RETRY_CAP = 10 ** 4
# Rejection sampling tests at most this many rows * n^2 join-table entries
# per numpy batch.
BATCH_ENTRIES = 1 << 16


class Endofunction:
    '''Immutable self-map of a lattice as a read-only int64 `array`; the
    `values` tuple, built on first use, defines equality and hashing.'''

    def __init__(self, lattice, values):
        arr = (np.array(values, np.int64) if isinstance(values, np.ndarray)
               else np.fromiter(values, np.int64))
        if len(arr) != lattice.n:
            raise ValueError(f'expected {lattice.n} values, got {len(arr)}')
        if arr.min() < 0 or arr.max() >= lattice.n:
            v = arr[(arr < 0) | (arr >= lattice.n)][0]
            raise ValueError(f'value {v} out of range for {lattice.label}')
        arr.flags.writeable = False
        self.lattice = lattice
        self.array = arr

    @cached_property
    def values(self):
        return tuple(self.array.tolist())

    def __call__(self, a):
        return int(self.array[a])

    def __eq__(self, other):
        return isinstance(other, Endofunction) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f'Endofunction({self.lattice.label}, {list(self.values)})'


def is_join_endomorphism(f):
    'True when f(bottom) = bottom and f(a join b) = f(a) join f(b) for all a, b.'
    lat, vals = f.lattice, f.array
    if vals[lat.bottom] != lat.bottom:
        return False
    if lat.is_distributive():
        # There join-irreducibles are join-prime, so f is a join-endomorphism
        # iff every value is the join of the values at the irreducibles below.
        return np.array_equal(lat.extend_by_joins(vals[list(lat.join_irreducibles)]), vals)
    return bool(_joins_preserved(lat, vals[None])[0])


def _joins_preserved(lattice, rows):
    '''Per row of a (B, n) array of values: does the row fix bottom and
    preserve every binary join?  Table-backed lattices only.'''
    jt = lattice.join_table
    ok = rows[:, lattice.bottom] == lattice.bottom
    return ok & (rows[:, jt] == jt[rows[:, :, None], rows[:, None, :]]).all(axis=(1, 2))


def pointwise_leq(f, g):
    'True when f(a) <= g(a) for every a.'
    return bool(f.lattice.le_many(f.array, g.array).all())


def pointwise_join(f, g):
    return Endofunction(f.lattice, f.lattice.join_many(f.array, g.array))


def pointwise_meet_many(fs):
    'Pointwise meet of a nonempty family; usually not a join-endomorphism.'
    if not fs:
        raise EmptySetError('pointwise_meet_many needs a nonempty family')
    lat = fs[0].lattice
    return Endofunction(lat, reduce(lat.meet_many, (g.array for g in fs)))


def enumerate_join_endomorphisms(lattice, budget=ENUM_BUDGET):
    '''Yield every join-endomorphism of the lattice exactly once.

    Backtracks over a fixed linear extension: values at join-reducible
    elements are forced (join of the values at two covered elements, checked
    consistent across all covered pairs), join-irreducibles range over the
    up-set of the value at their single covered element.  The searched
    candidate space is at most n^|J(L)|; refuses upfront when that exceeds
    the budget.  Non-modular lattices get a final validation pass.
    '''
    jirr = lattice.join_irreducibles
    if not enumerable(lattice, budget):
        raise BudgetExceededError(
            f'{lattice.label}: n^|J| = {lattice.n}^{len(jirr)} exceeds budget {budget}')
    return _enumerate(lattice, set(jirr))


def enumerable(lattice, budget=ENUM_BUDGET):
    'True when the candidate space n^|J(L)| of the enumeration fits the budget.'
    return lattice.n ** len(lattice.join_irreducibles) <= budget


def _enumerate(lattice, jirr):
    n, bottom = lattice.n, lattice.bottom
    order = lattice.linear_extension()
    covers = {e: lattice.covers_of(e) for e in order}
    validate = not lattice.is_modular()
    f = [bottom] * n

    def rec(idx):
        if idx == n:
            if not validate or _joins_preserved(lattice, np.asarray([f]))[0]:
                yield Endofunction(lattice, f)
            return
        e = order[idx]
        if e == bottom:
            f[e] = bottom
            yield from rec(idx + 1)
        elif e in jirr:
            for v in lattice.up_set(f[covers[e][0]]):
                f[e] = v
                yield from rec(idx + 1)
        else:
            cs = covers[e]
            v = lattice.join(f[cs[0]], f[cs[1]])
            if all(lattice.join(f[cs[i]], f[cs[j]]) == v
                   for i in range(len(cs)) for j in range(i + 1, len(cs))):
                f[e] = v
                yield from rec(idx + 1)

    return rec(0)


def count_join_endomorphisms(lattice, budget=ENUM_BUDGET):
    return sum(1 for _ in enumerate_join_endomorphisms(lattice, budget))


def random_join_endomorphism(lattice, seed=None, retry_cap=RETRY_CAP, repair=True):
    '''Seeded random join-endomorphism.

    Draws independent uniform values on the join-irreducibles and extends
    them by joins in vector passes (`extend_by_joins`); on distributive
    lattices every extension is valid.  Elsewhere the
    extensions are rejection-tested in numpy batches of growing size (1, 4,
    16, ... rows, capped at BATCH_ENTRIES table entries) and the first valid
    draw is returned; after `retry_cap` failures the last draw is repaired by
    gmeet's rescan-and-repair loop, which always ends at a join-endomorphism.
    The batches consume the random stream exactly as one draw at a time would,
    so the output for a given seed does not depend on the batching.  The
    resulting distribution over E(L) is NOT uniform in either case.
    '''
    rng = random.Random(seed)
    jirr, n = lattice.join_irreducibles, lattice.n
    if lattice.is_distributive():
        return Endofunction(lattice, lattice.extend_by_joins([rng.randrange(n) for _ in jirr]))
    draws = max(1, retry_cap)
    max_rows = max(1, BATCH_ENTRIES // (n * n))
    size, done = 1, 0
    while done < draws:
        b = min(size, max_rows, draws - done)
        g = [rng.randrange(n) for _ in range(b * len(jirr))]
        rows = lattice.extend_by_joins(np.reshape(g, (b, len(jirr))))
        hit = np.flatnonzero(_joins_preserved(lattice, rows))
        if hit.size:
            return Endofunction(lattice, rows[hit[0]])
        done += b
        size *= 4
    if repair:
        from .glb import gmeet
        return gmeet(lattice, [Endofunction(lattice, rows[-1])]).endofunction
    raise RetryExhaustedError(
        f'{lattice.label}: no join-endomorphism found in {retry_cap} draws')


# -- text format -----------------------------------------------------------------


def format_endofunction(f):
    return ' '.join(str(v) for v in f.values)


def parse_endofunction(line, lattice):
    'Parse the single-line format: n whitespace-separated element ids.'
    return Endofunction(lattice, (int(tok) for tok in line.split()))
