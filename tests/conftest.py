'''Shared corpus, definitional oracles, and frozen example data.

Oracles here are deliberately independent of the library internals they
check: join-endomorphisms are filtered from all n^n self-maps using only
the lattice's binary join, least upper bounds are recomputed from the
order matrix alone, and isomorphism classes are counted by minimizing
over all permutations.  Slow, but trustworthy on small sizes.
'''
from __future__ import annotations

import itertools

import numpy as np
import pytest

from latmeet.lattice import (Lattice, chain, from_cover_relation, m_n,
                             powerset, product)

# -- frozen worked examples ---------------------------------------------------

# Diamond (4-element boolean lattice): two endomorphisms whose pointwise
# meet is not an endomorphism; the true greatest lower bound is (0,2,0,2).
DIAMOND_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]
DIAMOND_F = (0, 2, 1, 3)
DIAMOND_G = (0, 3, 2, 3)
DIAMOND_GLB = (0, 2, 0, 2)
DIAMOND_POINTWISE_MEET = (0, 2, 0, 3)

# M_3 (diamond with three atoms): pointwise meet fails, and even repairing
# it on join-irreducibles only fails; the greatest lower bound collapses
# to the constant-bottom map.
M3_F = (0, 1, 3, 2, 4)
M3_G = (0, 4, 2, 3, 4)
M3_POINTWISE_MEET = (0, 1, 0, 0, 4)
M3_GLB = (0, 0, 0, 0, 0)

# 7-element modular lattice: sigma = pointwise meet differs from the
# greatest lower bound (constant bottom) at exactly three elements.
MODULAR7_COVERS = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (3, 5),
                   (4, 6), (5, 6)]
MODULAR7_F = (0, 0, 4, 4, 0, 4, 4)
MODULAR7_G = (0, 3, 2, 5, 5, 5, 5)
MODULAR7_GLB = (0, 0, 0, 0, 0, 0, 0)
MODULAR7_SIGMA_MISMATCHES = 3

N5_COVERS = [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)]


def n5():
    return from_cover_relation(5, N5_COVERS, label='n5')


def modular7():
    return from_cover_relation(7, MODULAR7_COVERS, label='modular7')


def small_corpus():
    'Small named lattices covering chains, powersets, M_n, and the odd ones.'
    lats = [chain(k) for k in range(1, 7)]
    lats += [powerset(m) for m in range(0, 5)]
    lats += [m_n(k) for k in range(0, 5)]
    lats += [n5(), modular7(), product(chain(2), chain(3))]
    return lats


@pytest.fixture(params=small_corpus(), ids=lambda lat: lat.label)
def corpus_lattice(request):
    return request.param


# -- definitional oracles -----------------------------------------------------


def all_self_maps(n):
    return itertools.product(range(n), repeat=n)


def is_join_endo_by_definition(lat, values):
    'f(bottom) = bottom and f(a join b) = f(a) join f(b) for all pairs.'
    if values[lat.bottom] != lat.bottom:
        return False
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            if values[lat.join(a, b)] != lat.join(values[a], values[b]):
                return False
    return True


def join_endos_by_definition(lat):
    'All join-endomorphisms of lat as value tuples, by n^n filtering.'
    return [vals for vals in all_self_maps(lat.n)
            if is_join_endo_by_definition(lat, vals)]


def lub_from_order(leq, a, b):
    'Least upper bound recomputed from the order matrix; None if absent.'
    uppers = [c for c in range(len(leq)) if leq[a][c] and leq[b][c]]
    for c in uppers:
        if all(leq[c][d] for d in uppers):
            return c
    return None


def glb_from_order(leq, a, b):
    lowers = [c for c in range(len(leq)) if leq[c][a] and leq[c][b]]
    for c in lowers:
        if all(leq[d][c] for d in lowers):
            return c
    return None


def is_lattice_order(leq):
    n = len(leq)
    for a in range(n):
        for b in range(a + 1, n):
            if lub_from_order(leq, a, b) is None:
                return False
            if glb_from_order(leq, a, b) is None:
                return False
    return True


def canonical_order_bytes(leq):
    'Minimum representation of leq over all relabelings.'
    n = len(leq)
    mat = np.asarray(leq, dtype=bool)
    best = None
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        candidate = mat[np.ix_(p, p)].tobytes()
        if best is None or candidate < best:
            best = candidate
    return best


def lattice_classes_by_brute_force(n):
    '''Count isomorphism classes of n-element lattices from scratch.

    Every finite poset has a linear extension, so each class has a
    representative whose order matrix is upper triangular; enumerate all
    strict-pair subsets, keep transitive lattice orders, and quotient by
    the all-permutations canonical form.
    '''
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                leq[i][j] = True
        if not _transitive(leq):
            continue
        if not is_lattice_order(leq):
            continue
        seen.add(canonical_order_bytes(leq))
    return len(seen)


def _transitive(leq):
    n = len(leq)
    return all(not (leq[a][b] and leq[b][c]) or leq[a][c]
               for a in range(n) for b in range(n) for c in range(n))


# -- deterministic randomized glb cases ---------------------------------------


def build_meet_cases():
    '''240 deterministic (lattice, endomorphisms) cases, sizes 2..8,
    one to four endomorphisms each, half arbitrary half distributive.'''
    from latmeet.endo import random_join_endomorphism
    from latmeet.latgen import random_distributive_lattice, random_lattice

    cases = []
    for i in range(240):
        n = 2 + i % 7
        m = 1 + i % 4
        if i % 2:
            lat = random_distributive_lattice(n, seed=10_000 + i)
        else:
            lat = random_lattice(n, seed=20_000 + i)
        fs = [random_join_endomorphism(lat, seed=30_000 + 10 * i + k)
              for k in range(m)]
        cases.append({'lattice': lat, 'fs': fs, 'brute': None})
    return cases


@pytest.fixture(scope='session')
def meet_cases():
    return build_meet_cases()


def route_applies(lat, name):
    'True when the route table in glb admits the lattice for route `name`.'
    from latmeet.errors import (BudgetExceededError, NotDistributiveError,
                                NotModularError)
    from latmeet.glb import check_precondition
    try:
        check_precondition(name, lat)
    except (BudgetExceededError, NotDistributiveError, NotModularError):
        return False
    return True


def brute_of(case):
    from latmeet.glb import brute_force_meet
    if case['brute'] is None:
        case['brute'] = brute_force_meet(case['lattice'], case['fs'])
    return case['brute']
