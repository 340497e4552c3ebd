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
sound on modular lattices.  ROUTES
is the one table of routes and the domain each requires; check_precondition
raises the typed error for a lattice outside it.  Every algorithm reports
how many binary lattice operations it performed and, for the iterative
ones, how many times sigma strictly decreased at an element.
'''
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from math import comb

import numpy as np

from .endo import (ENUM_BUDGET, Endofunction, enumerate_join_endomorphisms,
                   pointwise_leq, pointwise_meet_many)
from .errors import (BudgetExceededError, EmptySetError, NotDistributiveError,
                     NotModularError)

ALL_PAIRS = 'all'
COVER_PAIRS = 'covers'
MAX_PAIRS = 10 ** 7

_SUP, _CON, _FAIL = 0, 1, 2


@dataclass
class MeetResult:
    endofunction: Endofunction
    algorithm: str
    op_counts: dict = field(default_factory=dict)
    sigma_reductions: int = 0

    @property
    def total_ops(self):
        return sum(self.op_counts.values())


def _prep(lattice, fs, algorithm):
    if not fs:
        raise EmptySetError(f'{algorithm}: the family S must be nonempty')
    for f in fs:
        if len(f.values) != lattice.n:
            raise ValueError(f'{algorithm}: endofunction does not match {lattice.label}')
    return lattice.instrumented_view()


def brute_force_meet(lattice, fs, budget=ENUM_BUDGET):
    '''Join of every join-endomorphism below all of S.  Exponential; the oracle.
    The enumeration itself refuses a space above the budget.'''
    view = _prep(lattice, fs, 'brute')
    bound = pointwise_meet_many(fs)     # g <= every f in S iff g <= their pointwise meet
    vals = [lattice.bottom] * lattice.n
    for g in enumerate_join_endomorphisms(lattice, budget):
        if pointwise_leq(g, bound):
            vals = view.join_many(vals, g.array)
    return MeetResult(Endofunction(lattice, vals), 'brute', view.counts)


def a1_naive(lattice, fs):
    'h(c) = meet of f(a) join g(b) over every pair with a join b >= c.'
    check_precondition('a1', lattice)
    view = _prep(lattice, fs, 'a1')
    out = fs[0]
    for g in fs[1:]:
        out = _a1_pair(view, out, g)
    return MeetResult(out, 'a1', view.counts)


def _a1_pair(view, f, g):
    lat = view.lattice
    n = lat.n
    vals = []
    for c in range(n):
        acc = lat.top
        for a in range(n):
            fa = f.values[a]
            for b in range(n):
                if lat.le(c, view.join(a, b)):
                    acc = view.meet(acc, view.join(fa, g.values[b]))
        vals.append(acc)
    return Endofunction(lat, vals)


def dmeet(lattice, fs):
    'h(c) = meet of f(a) join g(c - a) over a <= c, using co-Heyting subtraction.'
    check_precondition('dmeet', lattice)
    view = _prep(lattice, fs, 'dmeet')
    out = fs[0]
    for g in fs[1:]:
        out = _dmeet_pair(view, out, g)
    return MeetResult(out, 'dmeet', view.counts)


def _dmeet_pair(view, f, g):
    lat = view.lattice
    vals = []
    for c in range(lat.n):
        acc = lat.top
        for a in lat.down_set(c):
            acc = view.meet(acc, view.join(f.values[a], g.values[view.subtraction(c, a)]))
        vals.append(acc)
    return Endofunction(lat, vals)


def dmeet_plus(lattice, fs):
    '''h = f meet g on join-irreducibles, extended by forced joins.

    Per pairwise fold this costs exactly |J(L)| meets and n - |J(L)| - 1
    joins: one meet per irreducible, one join per reducible non-bottom
    element (its value is the join at two covered elements).  The fold runs
    as vector passes, so the view charges those counts in bulk.
    '''
    check_precondition('dmeet+', lattice)
    view = _prep(lattice, fs, 'dmeet+')
    jirr = list(lattice.join_irreducibles)
    out = fs[0]
    for g in fs[1:]:
        met = view.meet_many(out.array[jirr], g.array[jirr])
        out = Endofunction(lattice, view.extend_by_joins(met))
    return MeetResult(out, 'dmeet+', view.counts)


def gmeet(lattice, fs, on_update=None, max_pairs=MAX_PAIRS):
    '''Decrease sigma = pointwise meet of S until it preserves all joins.

    Each round rescans ordered pairs (u <= v) lexicographically and repairs
    the first violation: sigma(u join v) drops to sigma(u) join sigma(v)
    when the latter is strictly below, otherwise sigma(u) and sigma(v) are
    met with sigma(u join v).  `on_update` receives the sigma tuple after
    every update round.
    '''
    view = _prep(lattice, fs, 'gmeet')
    n = lattice.n
    count = _pair_count(lattice, ALL_PAIRS)
    if count > max_pairs:
        raise BudgetExceededError(f'gmeet: {count} pairs exceed max_pairs={max_pairs}')
    sigma = _pointwise_meet(view, fs)
    reductions = 0
    while True:
        hit = None
        for u in range(n):
            su = sigma[u]
            for v in range(u + 1, n):
                w = view.join(u, v)
                j = view.join(su, sigma[v])
                if j != sigma[w]:
                    hit = (u, v, w, j)
                    break
            if hit:
                break
        if hit is None:
            break
        u, v, w, j = hit
        if lattice.le(j, sigma[w]):
            sigma[w] = j
            reductions += 1
        else:
            for t in (u, v):
                m = view.meet(sigma[t], sigma[w])
                if m != sigma[t]:
                    sigma[t] = m
                    reductions += 1
        if on_update is not None:
            on_update(tuple(sigma))
    return MeetResult(Endofunction(lattice, sigma), 'gmeet', view.counts, reductions)


def _pointwise_meet(view, fs):
    'The starting sigma, S met pointwise as a list; |S| meets per element, from top.'
    sigma = np.full(view.n, view.top)
    for f in fs:
        sigma = view.meet_many(sigma, f.array)
    return sigma.tolist()


class GMeetState:
    '''Sigma plus the Support/Conflict/Failure classes of GMeet+.

    Pair ids follow (u join v, u, v) order, so the pair GMeet+ handles next
    (least join, then lexicographically least pair) is the least id of its
    class, and the pairs with join w hold a contiguous id range.  Each pair
    carries one class tag, None while it is in flight; Conflict and Failure
    ids also sit in one min-heap per class.  Those pairs leave their class
    only by being popped, so the heaps hold no stale ids.  Support is never
    popped and needs no heap.
    '''

    def __init__(self, view, sigma, pairs):
        'pairs: ascending (u join v, u, v) triples; a pair\'s id is its index.'
        self.view = view
        self.lattice = view.lattice
        self.sigma = sigma
        self.pairs = pairs
        self.by_elem = [[] for _ in range(self.lattice.n)]
        for pid, (_, u, v) in enumerate(pairs):
            self.by_elem[u].append(pid)
            self.by_elem[v].append(pid)
        self.tag = [None] * len(pairs)
        self.heaps = {_CON: [], _FAIL: []}
        for pid in range(len(pairs)):
            self.insert(pid, self.classify(pid))

    def classify(self, pid):
        'Compare sigma(u) join sigma(v) against sigma(u join v); costs one join.'
        w, u, v = self.pairs[pid]
        j = self.view.join(self.sigma[u], self.sigma[v])
        if j == self.sigma[w]:
            return _SUP
        return _CON if self.lattice.le(j, self.sigma[w]) else _FAIL

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
        self.tag[pid] = None
        return pid

    def flush_sup_to_fail(self, w):
        'All supports of w become failures (sigma(w) just strictly decreased).'
        for pid in range(bisect_left(self.pairs, (w,)), bisect_left(self.pairs, (w + 1,))):
            if self.tag[pid] == _SUP:
                self.insert(pid, _FAIL)

    def check_supports(self, x):
        'Re-test support pairs containing x after sigma(x) decreased.'
        for pid in self.by_elem[x]:
            if self.tag[pid] == _SUP:
                self.insert(pid, self.classify(pid))

    def check_invariants(self):
        '''Raise AssertionError unless every pair but the one possibly in
        flight has one class, each heap holds exactly its class, and every
        Support pair is exact.'''
        assert self.tag.count(None) <= 1, 'more than one pair in flight'
        for kind, heap in self.heaps.items():
            members = [pid for pid, tag in enumerate(self.tag) if tag == kind]
            assert sorted(heap) == members, 'heap does not match its class'
        for pid, tag in enumerate(self.tag):
            if tag == _SUP:
                w, u, v = self.pairs[pid]
                assert self.lattice.join(self.sigma[u], self.sigma[v]) == self.sigma[w]


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
    view = _prep(lattice, fs, _tag)
    count = _pair_count(lattice, pair_universe)
    if count > max_pairs:
        raise BudgetExceededError(f'{_tag}: {count} pairs exceed max_pairs={max_pairs}')
    sigma = _pointwise_meet(view, fs)
    state = GMeetState(view, sigma, sorted(
        (view.join(u, v), u, v) for u, v in _pair_universe(lattice, pair_universe)))
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
            z, x, y = state.pairs[pid]
            for t in (x, y):
                m = view.meet(state.sigma[t], state.sigma[z])
                if m != state.sigma[t]:
                    reduce_at(t, m)
            j = view.join(state.sigma[x], state.sigma[y])
            state.insert(pid, _SUP if j == state.sigma[z] else _CON)
            emit('move')

    drain_failures()
    while (pid := state.pop(_CON)) is not None:
        w, u, v = state.pairs[pid]
        j = view.join(state.sigma[u], state.sigma[v])
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
    return MeetResult(Endofunction(lattice, state.sigma), _tag, view.counts, reductions)


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
        return sum(comb(len(lattice.cover_set(w)), 2) for w in range(lattice.n))
    raise ValueError(f'unknown pair universe {kind!r}')


def _pair_universe(lattice, kind):
    if kind == ALL_PAIRS:
        return [(u, v) for u in range(lattice.n) for v in range(u + 1, lattice.n)]
    if kind == COVER_PAIRS:
        # A pair within cover_set(w) joins to w, so no pair lies in two
        # cover sets and none is listed twice.
        return [(a, b) if a < b else (b, a) for w in range(lattice.n)
                for a, b in combinations(lattice.cover_set(w), 2)]
    raise ValueError(f'unknown pair universe {kind!r}')


def verify_01_relations_preserving(lattice, f):
    'True when f preserves the join of every pair within every cover set.'
    vals = f.values
    return all(vals[lattice.join(a, b)] == lattice.join(vals[a], vals[b])
               for a, b in _pair_universe(lattice, COVER_PAIRS))
