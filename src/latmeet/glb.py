'''Greatest join-endomorphism below a family of join-endomorphisms.

E(L) is a complete lattice under the pointwise order, so any nonempty family
S has a greatest lower bound there; note it is generally NOT the pointwise
meet.  Seven routes compute it:

  brute_force_meet   enumerate E(L), join everything below S          (oracle)
  a1_naive           meet of f(a) join g(b) over all pairs a join b >= c
  dmeet              meet of f(a) join g(c - a) over a <= c      (subtraction)
  dmeet_plus         meet on irreducibles, forced joins elsewhere
  gmeet              decrease the pointwise meet until joins are preserved
  gmeet_plus         same, with support/conflict/failure bookkeeping
  gmeet_plus_modular gmeet_plus over cover pairs only

a1/dmeet/dmeet_plus require a distributive lattice; gmeet_plus_modular is
sound on modular lattices.  ROUTES is the one table of routes and the
domain each requires; check_precondition raises the typed error for a
lattice outside it.  Every algorithm reports how many binary lattice
operations it performed and, for the iterative ones, how many times sigma
strictly decreased at an element.  This module is the one home of that cost
model: each route calls the lattice backend directly and charges the paper's
count next to the operation it charges; order tests are free.  a1, dmeet and
gmeet run as numpy kernels over blocks of elements and charge in bulk
exactly what their element loops performed: n^3 + Q joins and Q meets per
a1 fold, Q the number of (c, a, b) with c <= a join b; one subtraction,
join and meet per a <= c per dmeet fold; 2 joins per pair a gmeet scan
reads, up to the first violation.  Each gmeet scan still restarts at the
first pair, which is the paper's cost.
'''
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush

import numpy as np

from .endo import (ENUM_BUDGET, Endofunction, enumerate_join_endomorphisms,
                   is_join_endomorphism, pointwise_leq, pointwise_meet_many)
from .errors import (BudgetExceededError, EmptySetError, NotDistributiveError,
                     NotModularError)
from .lattice import CHUNK_BYTES, PowersetLattice

ALL_PAIRS = 'all'
COVER_PAIRS = 'covers'
MAX_PAIRS = 10 ** 7

_SUP, _CON, _FAIL, _FLY = 0, 1, 2, 3


@dataclass
class MeetResult:
    endofunction: Endofunction
    algorithm: str
    op_counts: dict = field(default_factory=dict)
    sigma_reductions: int = 0

    @property
    def total_ops(self):
        return sum(self.op_counts.values())


def _prep(lattice, fs, algorithm, pairs=None, max_pairs=MAX_PAIRS):
    'Fresh op counts, after checking S and (given `pairs`) the pair budget.'
    if not fs:
        raise EmptySetError(f'{algorithm}: the family S must be nonempty')
    for f in fs:
        if len(f.array) != lattice.n:
            raise ValueError(f'{algorithm}: endofunction does not match {lattice.label}')
    if pairs is not None and (count := _pair_count(lattice, pairs)) > max_pairs:
        raise BudgetExceededError(f'{algorithm}: {count} pairs exceed max_pairs={max_pairs}')
    return {'join': 0, 'meet': 0, 'subtraction': 0}


def brute_force_meet(lattice, fs, budget=ENUM_BUDGET):
    '''Join of every join-endomorphism below all of S.  Exponential; the oracle.
    The enumeration itself refuses a space above the budget.'''
    counts = _prep(lattice, fs, 'brute')
    bound = pointwise_meet_many(fs)     # g <= every f in S iff g <= their pointwise meet
    vals = [lattice.bottom] * lattice.n
    for g in enumerate_join_endomorphisms(lattice, budget):
        if pointwise_leq(g, bound):
            vals = lattice.join_many(vals, g.array)
            counts['join'] += lattice.n
    return MeetResult(Endofunction(lattice, vals), 'brute', counts)


def a1_naive(lattice, fs):
    '''h(c) = meet of f(a) join g(b) over every pair with a join b >= c.  Each
    fold tabulates f(a) join g(b) and masks it by c <= a join b per block of c.'''
    check_precondition('a1', lattice)
    counts, n, e = _prep(lattice, fs, 'a1'), lattice.n, np.arange(lattice.n)
    joins = lattice.join_many(e[:, None], e).ravel()
    h = fs[0]
    for g in fs[1:]:
        vals = lattice.join_many(h.array[:, None], g.array).ravel()
        h, q = _meet_blocks(lattice, ((cs, vals, lattice.le_many(cs[:, None], joins))
                                      for cs in _blocks(e, n * n)))
        counts['join'] += n ** 3 + q
        counts['meet'] += q
    return MeetResult(h, 'a1', counts)


def dmeet(lattice, fs):
    '''h(c) = meet of f(a) join g(c - a) over a <= c, using co-Heyting
    subtraction; each fold runs over the blocks of _down_blocks.'''
    check_precondition('dmeet', lattice)
    counts, h = _prep(lattice, fs, 'dmeet'), fs[0]
    for g in fs[1:]:
        f = h.array
        h, q = _meet_blocks(lattice, (
            (cs, lattice.join_many(f[a], g.array[lattice.subtraction_many(cs[:, None], a)]), keep)
            for cs, a, keep in _down_blocks(lattice)))
        for op in counts:
            counts[op] += q
    return MeetResult(h, 'dmeet', counts)


def _down_blocks(lat):
    '''Blocks (cs, a, keep), row i of a the candidates for cs[i] and keep
    those below it (None: all are).  A powerset lists just the submasks,
    grouped by size and built by bit doubling; other lattices mask by leq.'''
    e = np.arange(lat.n)
    if not isinstance(lat, PowersetLattice):
        yield from ((cs, e, lat.leq[:, cs].T) for cs in _blocks(e, lat.n))
        return
    size = sum((e >> i & 1 for i in range(lat.m)), np.zeros_like(e))
    for k in range(lat.m + 1):
        for cs in _blocks(np.flatnonzero(size == k), 1 << k):
            a, rest = np.zeros((len(cs), 1), dtype=np.int64), cs
            for _ in range(k):
                low = rest & -rest
                a, rest = np.concatenate([a, a | low[:, None]], axis=1), rest ^ low
            yield cs, a, None


def _blocks(items, width, rows=None):
    '''Slices of items, each as many rows as fit a (rows, width) int64 block
    of CHUNK_BYTES >> 4 bytes, or from `rows` rows doubling up to that.'''
    cap = max(1, (CHUNK_BYTES >> 4) // (8 * width))
    i, rows = 0, min(rows or cap, cap)
    while i < len(items):
        yield items[i:i + rows]
        i, rows = i + rows, min(2 * rows, cap)


def _meet_blocks(lat, blocks):
    '''(h, entries met), h[cs] the meet along the last axis of vals where keep
    marks (everywhere if None; top if nowhere), per block (cs, vals, keep).'''
    out, q = np.empty(lat.n, dtype=np.int64), 0
    for cs, vals, keep in blocks:
        q += vals.size if keep is None else int(np.count_nonzero(keep))
        vals = vals if keep is None else np.where(keep, vals, lat.top)
        while vals.shape[-1] > 1 and not isinstance(lat, PowersetLattice):
            h = vals.shape[-1] // 2
            vals = np.concatenate([lat.meet_many(vals[..., :h], vals[..., h:2 * h]),
                                   vals[..., 2 * h:]], axis=-1)
        out[cs] = np.bitwise_and.reduce(vals, axis=-1)     # masks, or one entry left
    return Endofunction(lat, out), q


def dmeet_plus(lattice, fs):
    '''h = f meet g on join-irreducibles, extended by forced joins.

    Per pairwise fold this costs exactly |J(L)| meets and n - |J(L)| - 1
    joins: one meet per irreducible, one join per reducible non-bottom
    element (its value is the join at two covered elements).  The fold runs
    as vector passes and charges those counts in bulk.
    '''
    check_precondition('dmeet+', lattice)
    counts = _prep(lattice, fs, 'dmeet+')
    jirr = list(lattice.join_irreducibles)
    out = fs[0]
    for g in fs[1:]:
        met = lattice.meet_many(out.array[jirr], g.array[jirr])
        out = Endofunction(lattice, lattice.extend_by_joins(met))
        counts['meet'] += len(jirr)
        counts['join'] += lattice.n - len(jirr) - 1
    return MeetResult(out, 'dmeet+', counts)


def gmeet(lattice, fs, on_update=None, max_pairs=MAX_PAIRS):
    '''Decrease sigma = pointwise meet of S until it preserves all joins.

    Each round rescans the pairs u < v row-major from the first and repairs
    the first violation: sigma(u join v) drops to sigma(u) join sigma(v)
    when the latter is strictly below, otherwise sigma(u) and sigma(v) are
    met with sigma(u join v).  `on_update` receives the sigma tuple after
    every update round.
    '''
    counts = _prep(lattice, fs, 'gmeet', ALL_PAIRS, max_pairs)
    sigma = _pointwise_meet(lattice, counts, fs)
    reductions = 0
    while (hit := _first_violation(lattice, counts, sigma)) is not None:
        u, v, w, j = hit
        if lattice.le(j, sigma[w]):
            sigma[w] = j
            reductions += 1
        else:
            counts['meet'] += 2
            for t in (u, v):
                m = lattice.meet(int(sigma[t]), int(sigma[w]))
                if m != sigma[t]:
                    sigma[t] = m
                    reductions += 1
        if on_update is not None:
            on_update(tuple(sigma.tolist()))
    return MeetResult(Endofunction(lattice, sigma), 'gmeet', counts, reductions)


def _first_violation(lat, counts, sigma):
    '''The row-major first pair u < v with sigma(u) join sigma(v) !=
    sigma(u join v), as (u, v, u join v, that join), or None.  Hits tend to
    come early, so row blocks start at one row.  A pair v <= u never fails
    first: (u, u) holds and (v, u) comes in an earlier row.'''
    n, v = lat.n, np.arange(lat.n)
    for us in _blocks(v, n, rows=1):
        w = lat.join_many(us[:, None], v)
        j = lat.join_many(sigma[us, None], sigma)
        bad = j != sigma[w]
        if bad.any():
            r, c = divmod(int(bad.argmax()), n)
            u = int(us[r])
            counts['join'] += 2 * (u * (n - 1) - u * (u - 1) // 2 + c - u)
            return u, c, int(w[r, c]), int(j[r, c])
    counts['join'] += n * (n - 1)
    return None


def _pointwise_meet(lat, counts, fs):
    'The starting sigma, S met pointwise as an array; |S| meets per element, from top.'
    counts['meet'] += len(fs) * lat.n
    return reduce(lat.meet_many, (f.array for f in fs), np.full(lat.n, lat.top))


class GMeetState:
    '''Sigma plus the Support/Conflict/Failure classes of GMeet+.

    Pair ids follow (u join v, u, v) order, so the pair GMeet+ handles next
    (least join, then lexicographically least pair) is the least id of its
    class, and the pairs with join w hold the id range wstart[w] to
    wstart[w + 1].  The columns w, u, v are int32 and the ids of the pairs
    containing x are by_ids[by_ptr[x]:by_ptr[x + 1]] (CSR), all read through
    memoryviews, so scalar reads give Python ints.  Each pair carries one
    class tag byte, _FLY while it is in flight; Conflict and Failure ids also
    sit in one min-heap per class.  Those pairs leave their class only by
    being popped, so the heaps hold no stale ids.  Support is never popped
    and needs no heap.  Set-up numbers and classifies every pair in vector
    passes; the repair passes touch a few pairs per reduction and stay
    scalar, where numpy's fixed cost per call would dominate.
    '''

    def __init__(self, lattice, counts, sigma, u, v):
        '''sigma: the starting values as an array; u < v: the pair universe
        as int32 arrays.  Charges each pair's join and its classification
        to `counts`, as classify does.'''
        lat, n = lattice, lattice.n
        self.lattice, self.counts = lattice, counts
        self.sigma = sigma.tolist()
        # Set-up sets the peak memory, so each temporary goes before the next.
        w = lat.join_many(u, v).astype(np.int32)
        order = np.lexsort((v, u, w))
        w, u, v = w[order], u[order], v[order]
        del order
        j, sw = lat.join_many(sigma[u], sigma[v]), sigma[w]
        counts['join'] += 2 * len(w)
        tag = np.where(j == sw, _SUP, np.where(lat.le_many(j, sw), _CON, _FAIL)).astype(np.uint8)
        del j, sw
        self.tag = bytearray(tag)
        self.heaps = {kind: np.flatnonzero(tag == kind).tolist() for kind in (_CON, _FAIL)}
        self.wstart = np.searchsorted(w, np.arange(n + 1)).tolist()
        elems = np.stack([u, v], axis=1).ravel()
        self.by_ptr = np.concatenate([[0], np.cumsum(np.bincount(elems, minlength=n))]).tolist()
        self.by_ids = memoryview((np.argsort(elems, kind='stable') >> 1).astype(np.int32))
        self.w, self.u, self.v = memoryview(w), memoryview(u), memoryview(v)

    def pair(self, pid):
        '(u join v, u, v) of the pair, as ints.'
        return self.w[pid], self.u[pid], self.v[pid]

    def classify(self, pid):
        'Compare sigma(u) join sigma(v) against sigma(u join v); costs one join.'
        s = self.sigma
        sw = s[self.w[pid]]
        j = self.lattice.join(s[self.u[pid]], s[self.v[pid]])
        self.counts['join'] += 1
        if j == sw:
            return _SUP
        return _CON if self.lattice.le(j, sw) else _FAIL

    def insert(self, pid, kind):
        self.tag[pid] = kind
        if kind != _SUP:
            heappush(self.heaps[kind], pid)

    def pop(self, kind):
        'Take the least Conflict or Failure pair out of its class, or None.'
        heap = self.heaps[kind]
        if not heap:
            return None
        pid = heappop(heap)
        self.tag[pid] = _FLY
        return pid

    def flush_sup_to_fail(self, w):
        'All supports of w become failures (sigma(w) just strictly decreased).'
        tag = self.tag
        for pid in range(self.wstart[w], self.wstart[w + 1]):
            if tag[pid] == _SUP:
                self.insert(pid, _FAIL)

    def check_supports(self, x):
        'Re-test support pairs containing x after sigma(x) decreased.'
        tag = self.tag
        for pid in self.by_ids[self.by_ptr[x]:self.by_ptr[x + 1]]:
            if tag[pid] == _SUP:
                self.insert(pid, self.classify(pid))

    def check_invariants(self):
        '''Raise AssertionError unless every pair but the one possibly in
        flight has one class, each heap holds exactly its class, and every
        Support pair is exact.'''
        assert self.tag.count(_FLY) <= 1, 'more than one pair in flight'
        tag = np.frombuffer(self.tag, np.uint8)
        for kind, heap in self.heaps.items():
            assert sorted(heap) == np.flatnonzero(tag == kind).tolist(), \
                'heap does not match its class'
        s, sup = np.asarray(self.sigma), tag == _SUP
        w, u, v = (np.asarray(c)[sup] for c in (self.w, self.u, self.v))
        assert np.array_equal(self.lattice.join_many(s[u], s[v]), s[w]), 'inexact Support pair'


def gmeet_plus(lattice, fs, pair_universe=ALL_PAIRS, on_event=None,
               max_pairs=MAX_PAIRS, _tag='gmeet+'):
    '''GMeet with explicit bookkeeping instead of rescans.

    The outer loop drains Conflict pairs (sigma(w) drops to the pair join);
    the inner loop drains Failure pairs (the pair elements are met with
    sigma(w), then the pair is reclassified).  Each pop takes the pair with
    the least join w, then the lexicographically least pair.  Because a
    sigma update can stale-date Conflict entries, popped Conflict pairs are
    re-verified and re-classified when their classification changed;
    Failure pops re-derive everything anyway.  `on_event(state, event)`
    fires after every sigma reduction ("reduce") and class transition
    ("move").  The pair universe is counted against `max_pairs` before any
    pair list is built.
    '''
    counts = _prep(lattice, fs, _tag, pair_universe, max_pairs)
    state = GMeetState(lattice, counts, _pointwise_meet(lattice, counts, fs),
                       *_pair_universe(lattice, pair_universe))
    reductions = 0

    def emit(event):
        if on_event is not None:
            on_event(state, event)

    def reduce_at(x, value):
        nonlocal reductions
        state.sigma[x] = value
        reductions += 1
        state.flush_sup_to_fail(x)
        state.check_supports(x)
        emit('reduce')

    def drain_failures():
        while (pid := state.pop(_FAIL)) is not None:
            z, x, y = state.pair(pid)
            counts['meet'] += 2
            counts['join'] += 1
            for t in (x, y):
                m = lattice.meet(state.sigma[t], state.sigma[z])
                if m != state.sigma[t]:
                    reduce_at(t, m)
            j = lattice.join(state.sigma[x], state.sigma[y])
            state.insert(pid, _SUP if j == state.sigma[z] else _CON)
            emit('move')

    drain_failures()
    while (pid := state.pop(_CON)) is not None:
        w, u, v = state.pair(pid)
        j = lattice.join(state.sigma[u], state.sigma[v])
        counts['join'] += 1
        if j == state.sigma[w]:
            state.insert(pid, _SUP)
            emit('move')
            continue
        if not lattice.le(j, state.sigma[w]):
            state.insert(pid, _FAIL)
            emit('move')
            drain_failures()
            continue
        reduce_at(w, j)
        state.insert(pid, _SUP)
        drain_failures()
    return MeetResult(Endofunction(lattice, state.sigma), _tag, counts, reductions)


def gmeet_plus_modular(lattice, fs, on_event=None, max_pairs=MAX_PAIRS):
    '''GMeet+ over cover pairs only.

    On a modular lattice a bottom-preserving map that preserves joins of
    pairs within each cover set is already a join-endomorphism, so the
    restricted pair universe suffices.
    '''
    check_precondition('gmeet+mod', lattice)
    return gmeet_plus(lattice, fs, pair_universe=COVER_PAIRS, on_event=on_event,
                      max_pairs=max_pairs, _tag='gmeet+mod')


# Route name -> (callable(lattice, fs), the domain it requires).  README's
# "Meet algorithms" table shows the same column.
ROUTES = {
    'brute': (brute_force_meet, 'enumerable'),
    'a1': (a1_naive, 'distributive'),
    'dmeet': (dmeet, 'distributive'),
    'dmeet+': (dmeet_plus, 'distributive'),
    'gmeet': (gmeet, 'any'),
    'gmeet+': (gmeet_plus, 'any'),
    'gmeet+mod': (gmeet_plus_modular, 'modular'),
}


def meet_algorithms():
    'Algorithm name -> callable(lattice, fs) for every implemented route.'
    return {name: fn for name, (fn, _) in ROUTES.items()}


def check_precondition(algorithm, lattice, budget=ENUM_BUDGET):
    '''Raise NotDistributiveError, NotModularError or (for an enumerable
    space of more than `budget` candidates) BudgetExceededError when the
    lattice lies outside the route's domain.'''
    requires = ROUTES[algorithm][1]
    if requires == 'enumerable':
        enumerate_join_endomorphisms(lattice, budget)  # refuses before yielding
    elif requires == 'distributive' and not lattice.is_distributive():
        raise NotDistributiveError(
            f'{algorithm} requires a distributive lattice; {lattice.label} is not')
    elif requires == 'modular' and not lattice.is_modular():
        raise NotModularError(
            f'{algorithm} requires a modular lattice; {lattice.label} is not')


def _pair_count(lattice, kind):
    'len(_pair_universe(lattice, kind)), worked out without building it.'
    if kind == ALL_PAIRS:
        return lattice.n * (lattice.n - 1) // 2
    if kind == COVER_PAIRS:
        k = np.bincount(lattice.lower_covers()[1], minlength=lattice.n)
        return int((k * (k + 1) // 2).sum())
    raise ValueError(f'unknown pair universe {kind!r}')


def _pair_universe(lattice, kind):
    '''The pairs u < v that GMeet+ checks, as int32 arrays (u, v): all of
    them, or those within a cover set (the lower covers of w, plus w).'''
    if kind == ALL_PAIRS:
        u, v = np.triu_indices(lattice.n, 1)
    elif kind == COVER_PAIRS:
        # A pair within the cover set of w joins to w, so no pair lies in
        # two cover sets and none is listed twice.  Besides the edges (lo, up)
        # themselves, edge k pairs its lo with those of the cnt[k] edges
        # after it in its group.
        lo, up = lattice.lower_covers()
        k = np.arange(len(up))
        cnt = np.searchsorted(up, up, side='right') - k - 1
        first = np.repeat(k, cnt)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        a, b = np.concatenate([lo[first], lo]), np.concatenate([lo[second], up])
        u, v = np.minimum(a, b), np.maximum(a, b)
    else:
        raise ValueError(f'unknown pair universe {kind!r}')
    return u.astype(np.int32), v.astype(np.int32)


def verify_01_relations_preserving(lattice, f):
    '''True when f is a join-endomorphism of the lattice.  On a modular
    lattice that is the same as the paper's test: f fixes bottom and preserves
    the join of every pair within every cover set.'''
    return is_join_endomorphism(f)
