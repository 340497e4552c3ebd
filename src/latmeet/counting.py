'''Exact sizes of join-endomorphism spaces for the three standard families.

Closed forms:

  powerset of m generators    (2^m)^m
  chain of n+1 elements       binomial(2n, n)
  M_n (antichain of n,        (n+1)^2 + n! L_n(-1)
    plus bottom and top)

L_n is the Laguerre polynomial; n! L_n(-1) also equals the rook-polynomial
sum over k of binomial(n,k)^2 k!, which counts partial injections on n
points.  Both routes are implemented so each can check the other.  The
bounds report compares n^(log2 n) and the M_n-style ceiling against an
exact count; it never asserts.
'''
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .endo import (Endofunction, count_join_endomorphisms,
                   enumerate_join_endomorphisms)
from .errors import OutOfRangeError
from .lattice import m_n


def laguerre_at_minus_one_times_factorial(n):
    '''n! L_n(-1) as an exact integer, via the three-term recurrence

        (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x)

    evaluated at x = -1 over the rationals.'''
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    prev, cur = Fraction(1), Fraction(2)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 2) * cur - k * prev) / (k + 1)
    scaled = (prev if n == 0 else cur) * math.factorial(n)
    assert scaled.denominator == 1
    return scaled.numerator


def rook_coefficient(n, k):
    'Ways to place k non-attacking rooks on an n-by-n board: C(n,k)^2 k!.'
    if not 0 <= k <= n:
        raise OutOfRangeError(f'need 0 <= k <= n, got k={k}, n={n}')
    return math.comb(n, k) ** 2 * math.factorial(k)


def rook_poly_at_one(n):
    'Total partial injections on n points: sum over k of C(n,k)^2 k!.'
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    return sum(rook_coefficient(n, k) for k in range(n + 1))


def count_mn(n):
    'Join-endomorphisms of M_n: (n+1)^2 + n! L_n(-1).'
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    return (n + 1) ** 2 + laguerre_at_minus_one_times_factorial(n)


def count_powerset(m):
    'Join-endomorphisms of the powerset of m generators: (2^m)^m.'
    if m < 0:
        raise OutOfRangeError(f'm must be nonnegative, got {m}')
    return (2 ** m) ** m


def count_linear(n):
    'Join-endomorphisms of a chain of n+1 elements: binomial(2n, n).'
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    return math.comb(2 * n, n)


def construct_families(n):
    '''Four disjoint families that together exhaust the join-endomorphisms
    of M_n, built directly as value tables (bottom 0, atoms 1..n, top n+1):

      1. the constant-bottom map                                       1
      2. top to some atom e, every atom to e except at most one        n^2 + n
         atom dropped to bottom
      3. top preserved, one atom to bottom, the rest to top            n
      4. top preserved, a subset of atoms to top, the remaining        n! L_n(-1)
         atoms mapped injectively into the atoms

    Returns four lists of Endofunction in that order.  The fourth family
    never moves an element strictly down, and it is counted by the rook
    sum: choose the atoms sent to top, inject the rest.
    '''
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    lat = m_n(n)
    top = lat.top
    atoms = range(1, n + 1)

    f1 = [Endofunction(lat, [0] * lat.n)]
    f2 = []
    for e in atoms:
        f2.append(_mn_endo(lat, {a: e for a in atoms}, e))
        for dropped in atoms:
            vals = {a: (0 if a == dropped else e) for a in atoms}
            f2.append(_mn_endo(lat, vals, e))
    f3 = []
    for dropped in atoms:
        vals = {a: (0 if a == dropped else top) for a in atoms}
        f3.append(_mn_endo(lat, vals, top))
    f4 = []
    for rest in itertools.chain.from_iterable(
            itertools.combinations(atoms, size) for size in range(n + 1)):
        for image in itertools.permutations(atoms, len(rest)):
            vals = {a: top for a in atoms}
            vals.update(zip(rest, image))
            f4.append(_mn_endo(lat, vals, top))
    return f1, f2, f3, f4


def _mn_endo(lat, atom_values, top_value):
    vals = [0] * lat.n
    for a, v in atom_values.items():
        vals[a] = v
    vals[lat.top] = top_value
    return Endofunction(lat, vals)


def count_non_reducing_mn(n):
    'Join-endomorphisms of M_n with no f(e) strictly below e, by enumeration.'
    if n < 0:
        raise OutOfRangeError(f'n must be nonnegative, got {n}')
    lat = m_n(n)
    total = 0
    for f in enumerate_join_endomorphisms(lat):
        if not any(v != e and lat.le(v, e) for e, v in enumerate(f.values)):
            total += 1
    return total


@dataclass
class CountReport:
    label: str
    n: int
    exact: int
    lower: int
    upper: int
    distributive_upper: int | None
    lower_holds: bool
    upper_holds: bool


def bounds_check(lattice, budget=10 ** 8):
    '''Exact |E(L)| by enumeration against the general bounds.

    Lower bound n^(log2 n); upper bound (n+1)^2 + n! L_n(-1) with n = |L|;
    distributive lattices also get binomial(2(n-1), n-1).  The report states
    whether each bound held, nothing is asserted.'''
    n = lattice.n
    exact = count_join_endomorphisms(lattice, budget)
    if n & (n - 1) == 0:
        lower = n ** (n.bit_length() - 1)
        lower_holds = lower <= exact
    else:
        bound = n ** math.log2(n)
        lower = math.floor(bound)
        lower_holds = bound <= exact
    upper = (n + 1) ** 2 + laguerre_at_minus_one_times_factorial(n)
    dist_upper = math.comb(2 * (n - 1), n - 1) if lattice.is_distributive() else None
    upper_holds = exact <= upper and (dist_upper is None or exact <= dist_upper)
    return CountReport(lattice.label, n, exact, lower, upper, dist_upper,
                       lower_holds, upper_holds)
