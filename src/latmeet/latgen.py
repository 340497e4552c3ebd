'''Lattice generation by augmentation.

A lattice relation grows two ways: an edge augmentation adds order pairs and
closes transitively; a node augmentation adds a fresh element wedged between
two existing ones.  Exhaustive generation walks node steps then single-pair
edge steps, deduplicating up to isomorphism; random generation walks the same
steps with a seeded generator.  The conjecture hunt compares endomorphism
counts across distributive single-pair augmentations.

Every step closes by one closed form: adding a <= b to a closed order gives
leq | down(a) x up(b), and a node step adds x with down(a) < x < up(b).
Free pairs are the pairs (a,b), a not below b, whose single-pair closure is
a lattice relation.  Candidate closures are tested as stacks, each once, and
exhaustive generation keeps the accepted ones.  An order is a lattice iff
each pair has a common upper bound c with |up(c)| = the number of common
upper bounds (c is their join), and dually.
'''
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .endo import count_join_endomorphisms
from .errors import (AntisymmetryError, AugmentationError, BudgetExceededError,
                     OutOfRangeError, SizeUnreachableError)
from .lattice import (CHUNK_BYTES, TABLE_LIMIT, Lattice, _bool_product, _bound_block_bytes,
                      _covers, _is_lattice_stack, chain, from_leq)

GENERATION_CAP = 8
RANDOM_DRAW_CAP = 64


class OrderRelation:
    'A reflexive antisymmetric boolean relation; transitivity is on demand.'

    __slots__ = ('matrix',)

    def __init__(self, matrix, check=True):
        m = np.array(matrix, dtype=bool)
        if check:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError('relation matrix must be square')
            if not m.diagonal().all():
                raise ValueError('relation must be reflexive')
            if (m & m.T & ~np.eye(len(m), dtype=bool)).any():
                raise AntisymmetryError('relation must be antisymmetric')
        m.setflags(write=False)
        self.matrix = m

    @property
    def n(self):
        return self.matrix.shape[0]

    def le(self, a, b):
        return bool(self.matrix[a, b])

    def __eq__(self, other):
        return (isinstance(other, OrderRelation)
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self):
        return f'OrderRelation(n={self.n})'


@dataclass(frozen=True)
class EdgeStep:
    pairs: frozenset

    def __init__(self, pairs):
        object.__setattr__(self, 'pairs', frozenset(pairs))


@dataclass(frozen=True)
class NodeStep:
    below: int
    above: int


def is_lattice_relation(rel):
    '''True when rel is a complete lattice relation: a transitive partial
    order in which every pair has a unique least upper and greatest lower
    bound (top and bottom follow).'''
    m = rel.matrix
    return (len(m) > 0 and not (_bool_product(m, m) & ~m).any()
            and bool(_is_lattice_stack(m[None])[0]))


def to_lattice(rel, label='generated'):
    return from_leq(rel.matrix, label=label)


def relation_of(lattice):
    return OrderRelation(lattice.leq, check=False)


def free_pairs(rel):
    '''All ordered pairs (a,b), a not below b, whose single-pair closure is
    still a lattice relation, row-major; rel must be transitive.'''
    return [pair for pair, _ in _accepted_steps(rel.matrix)]


def node_steps(rel):
    'All valid node augmentation steps of rel, row-major; rel must be transitive.'
    return [NodeStep(a, b) for (a, b), _ in _accepted_steps(rel.matrix, node=True)]


def augment(rel, step):
    '''Apply an augmentation step to the transitive relation rel, an edge
    step's pairs in turn; the closed result must be a lattice relation.'''
    if isinstance(step, EdgeStep):
        pairs, node = sorted(step.pairs), False
    elif isinstance(step, NodeStep):
        pairs, node = [(step.below, step.above)], True
    else:
        raise TypeError(f'not an augmentation step: {step!r}')
    if not all(0 <= x < rel.n for pair in pairs for x in pair):
        raise AugmentationError(f'step endpoints out of range: {step}')
    m = rel.matrix
    for a, b in pairs:
        m = _step_closures(m, [a], [b], node)[0]
    if (m & m.T & ~np.eye(len(m), dtype=bool)).any():
        raise AugmentationError(f'{step} creates a cycle')
    closed = OrderRelation(m, check=False)
    if not is_lattice_relation(closed):
        raise AugmentationError(f'{step} does not yield a lattice relation')
    return closed


def _step_closures(m, a, b, node=False):
    '''The closures, stacked, of the steps (a[i], b[i]) on the transitive order
    m: adding a <= b gives m | down(a) x up(b) (a cycle iff b < a), and a node
    step adds a last x with down(a) < x < up(b) (a cycle iff b <= a).'''
    closed = m | (m.T[a, :, None] & m[b, None, :])
    if not node:
        return closed
    n = len(m)
    out = np.ones((len(closed), n + 1, n + 1), dtype=bool)
    out[:, :n, :n] = closed
    out[:, :n, n], out[:, n, :n] = m.T[a], m[b]
    return out


def _accepted_steps(m, node=False):
    '''The steps (a, b) on the transitive order m whose closures are lattice
    relations, with those closures, row-major, tested in blocks within CHUNK_BYTES.
    Edge candidates are the incomparable pairs, node candidates those with b not <= a.'''
    pairs = np.argwhere(~m.T if node else ~(m | m.T))
    size = len(m) + node
    per = max(1, CHUNK_BYTES // (size * _bound_block_bytes(size)))
    for chunk in (pairs[p:p + per] for p in range(0, len(pairs), per)):
        closures = _step_closures(m, *chunk.T, node)
        ok = _is_lattice_stack(closures)
        yield from zip(map(tuple, chunk[ok].tolist()), closures[ok])


def canonical_key(rel):
    '''A relabelling-invariant encoding of the order.

    Elements get structural colors (down-set size, up-set size, cover
    degrees) refined by repeated neighbor-profile hashing-free interning;
    the key is the minimum order-matrix byte string over all permutations
    that respect the final color classes.'''
    m = rel.matrix
    n = rel.n
    covers = _covers(m)
    degrees = np.stack([m.sum(0), m.sum(1), covers.sum(0), covers.sum(1)], axis=1)
    colors = _intern(list(map(tuple, degrees.tolist())))
    while True:
        refined = [
            (colors[i],
             tuple(sorted(colors[j] for j in range(n) if covers[j, i])),
             tuple(sorted(colors[j] for j in range(n) if covers[i, j])))
            for i in range(n)
        ]
        refined = _intern(refined)
        if refined == colors:
            break
        colors = refined
    groups = [[i for i in range(n) if colors[i] == c] for c in sorted(set(colors))]
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = [i for part in perm_parts for i in part]
        key = m[np.ix_(order, order)].tobytes()
        if best is None or key < best:
            best = key
    return best


def _intern(values):
    table = {v: i for i, v in enumerate(sorted(set(values)))}
    return [table[v] for v in values]


def generate_all_lattices(n_max):
    '''Every lattice of each size up to n_max, one per isomorphism class.

    Sizes 1 and 2 have a single lattice each and are seeded directly (a node
    step needs two distinct endpoints, so nothing grows out of one element).
    Each larger size is the closure of the previous size's node steps under
    single free-pair edge steps, deduplicated by canonical key.'''
    if n_max > GENERATION_CAP:
        raise BudgetExceededError(f'generation capped at {GENERATION_CAP} elements')
    if n_max < 1:
        raise OutOfRangeError(f'n_max must be positive, got {n_max}')
    by_size = {k: [relation_of(chain(k))] for k in range(1, min(n_max, 2) + 1)}

    def closures(smaller, queue):
        for rel in smaller:
            yield from _accepted_steps(rel.matrix, node=True)
        while queue:
            yield from _accepted_steps(queue.pop().matrix)
    for size in range(3, n_max + 1):
        found, queue = {}, []
        for _, m in closures(by_size[size - 1], queue):
            grown = OrderRelation(m, check=False)
            key = canonical_key(grown)
            if key not in found:
                found[key] = grown
                queue.append(grown)
        by_size[size] = [found[key] for key in sorted(found)]
    return {
        size: [to_lattice(rel, label=f'gen:{size}:{i}')
               for i, rel in enumerate(rels)]
        for size, rels in by_size.items()
    }


def random_lattice(n, seed=None):
    '''A random lattice of exactly n elements.

    Walks augmentation steps from the 2-chain: below the target size, draw
    uniformly among applicable steps (node steps and free-pair edge steps,
    realized by rejection sampling over candidate pairs); once the target
    size is reached, apply extra free-pair edge steps, each with
    probability 1/2.  Valid by construction, not uniform over lattices.'''
    if n < 1:
        raise OutOfRangeError(f'n must be positive, got {n}')
    rng = random.Random(seed)
    if n == 1:
        return chain(1)
    rel = relation_of(chain(2))
    while rel.n < n:
        rel = _random_step(rel, rng)
    while rng.random() < 0.5:
        pairs = free_pairs(rel)
        if not pairs:
            break
        rel = augment(rel, EdgeStep([rng.choice(pairs)]))
    return to_lattice(rel, label=f'random:{n}')


def _random_step(rel, rng):
    m = rel.matrix
    candidates = ([('node', p) for p in np.argwhere(~np.eye(rel.n, dtype=bool)).tolist()]
                  + [('edge', p) for p in np.argwhere(~(m | m.T)).tolist()])
    for _ in range(RANDOM_DRAW_CAP * rel.n):
        kind, (a, b) = rng.choice(candidates)
        step = NodeStep(a, b) if kind == 'node' else EdgeStep([(a, b)])
        try:
            return augment(rel, step)
        except AugmentationError:
            continue
    steps = node_steps(rel) + [EdgeStep([p]) for p in free_pairs(rel)]
    return augment(rel, rng.choice(steps))


def random_distributive_lattice(n, seed=None, strict=False, attempts=200):
    '''A random distributive lattice of exactly n elements.

    Samples a random poset on k points and takes its lattice of down-sets,
    retrying k and the poset until the size lands on n.  A chain poset of
    n - 1 points always gives exactly n down-sets, so after `attempts`
    random posets the sampler falls back to the n-chain (or errors under
    strict mode).  Distributive by construction (Birkhoff); n above
    TABLE_LIMIT is refused before sampling.'''
    if n < 1:
        raise OutOfRangeError(f'n must be positive, got {n}')
    if n > TABLE_LIMIT:
        raise BudgetExceededError(
            f'random_distributive_lattice: n={n} exceeds TABLE_LIMIT={TABLE_LIMIT}')
    rng = random.Random(seed)
    if n == 1:
        return chain(1)
    k_lo = (n - 1).bit_length()
    k_hi = min(n - 1, k_lo + 10)
    for _ in range(attempts):
        k = rng.randint(k_lo, k_hi)
        below = _random_poset(k, rng)
        masks = _downset_masks(below, n)
        if len(masks) == n:
            return _downset_lattice(masks)
    if strict:
        raise SizeUnreachableError(
            f'no sampled poset produced a {n}-element down-set lattice')
    return chain(n, label=f'downsets:{n}')


def _random_poset(k, rng):
    '''A random poset on k points, as the bitmask of the points below each
    point; i below j implies i <= j.'''
    density = rng.random()
    above = [[j for j in range(i + 1, k) if rng.random() < density] for i in range(k)]
    below = [1 << i for i in range(k)]
    for i, ups in enumerate(above):
        for j in ups:
            below[j] |= below[i]
    return below


def _downset_masks(below, cap):
    '''Every down-set of the poset `below` as a sorted bitmask list, built
    point by point, which needs i below j to imply i <= j (see
    _random_poset); cut short and unsorted once past `cap`.'''
    masks = [0]
    for j, down in enumerate(below):
        lower = down ^ 1 << j
        masks += [m | 1 << j for m in masks if m & lower == lower]
        if len(masks) > cap:
            return masks
    return sorted(masks)


def _downset_lattice(masks):
    '''Element i is the down-set masks[i] (sorted).  By Birkhoff, order is
    inclusion, join is OR and meet is AND.  Masks fit int64: n <= TABLE_LIMIT
    keeps them to 22 bits.'''
    m = np.array(masks, dtype=np.int64)
    return Lattice(m[:, None] & ~m[None, :] == 0, label=f'downsets:{len(m)}',
                   join_table=np.searchsorted(m, m[:, None] | m[None, :]),
                   meet_table=np.searchsorted(m, m[:, None] & m[None, :]),
                   distributive=True, modular=True, check=False)


@dataclass
class ConjectureReport:
    n_max: int
    pairs_checked: int
    counterexample: tuple | None

    @property
    def exhausted(self):
        return self.counterexample is None


CONJECTURE_CAP = 10


def conjecture_search(n_max=6, seed=None, budget=10 ** 8):
    '''Hunt for a distributive lattice whose distributive edge augmentation
    does NOT strictly increase the number of join-endomorphisms.

    An edge augmentation of a relation is exactly a lattice relation that
    strictly contains it (close the union with the target and the target
    comes back), and any containment pair can be relabelled so both sides
    are upper triangular.  So the search enumerates all upper-triangular
    lattice relations per size, keeps the distributive ones, and compares
    endomorphism counts across every strict-containment pair.  Exhaustive,
    so `seed` is accepted for interface parity but unused.  Returns the
    lexicographically first offending (before, after, added pairs, count
    before, count after), or an exhaustion report.'''
    del seed
    if n_max > CONJECTURE_CAP:
        raise BudgetExceededError(f'conjecture search capped at {CONJECTURE_CAP}')
    checked = 0
    for size in range(2, n_max + 1):
        dist = []
        for pred in _ut_lattice_preds(size):
            lat = Lattice(_pred_to_leq(pred, size), check=False)
            if lat.is_distributive():
                dist.append((pred, lat))
        counts = {pred: count_join_endomorphisms(lat, budget) for pred, lat in dist}
        for p1, before_lat in dist:
            for p2, after_lat in dist:
                if p1 == p2 or any(a & ~b for a, b in zip(p1, p2)):
                    continue
                checked += 1
                if counts[p2] <= counts[p1]:
                    added = tuple(
                        (i, j)
                        for j in range(size)
                        for i in range(j)
                        if p2[j] >> i & 1 and not p1[j] >> i & 1)
                    before_lat.label = f'conjecture:{size}:before'
                    after_lat.label = f'conjecture:{size}:after'
                    return ConjectureReport(
                        n_max, checked,
                        (before_lat, after_lat, added, counts[p1], counts[p2]))
    return ConjectureReport(n_max, checked, None)


def _ut_lattice_preds(n):
    '''Every lattice relation on 0..n-1 in which the element order is a
    linear extension, produced as tuples of strict-predecessor bitmasks.

    Element 0 is forced to be the bottom and element n-1 the top.  A new
    element's predecessor set must be down-closed, and each pair (i, new)
    must have a greatest lower bound among the elements so far; later
    elements are never below earlier ones, so pairwise meets (and, given
    the top, joins) of the final relation are exactly those established
    here.  Every isomorphism class appears at least once.'''
    if n == 1:
        yield (0,)
        return

    def downsets(down):
        k = len(down)
        masks = [1]
        seen = {1}
        for mask in masks:
            for j in range(1, k):
                if not mask >> j & 1:
                    grown = mask | down[j]
                    if grown not in seen:
                        seen.add(grown)
                        masks.append(grown)
        return masks

    def rec(pred, down):
        k = len(pred)
        if k == n:
            yield tuple(pred)
            return
        choices = downsets(down) if k < n - 1 else [(1 << k) - 1]
        for d in choices:
            dj = d | (1 << k)
            for i in range(k):
                common = down[i] & dj
                if common & ~down[common.bit_length() - 1]:
                    break
            else:
                pred.append(d)
                down.append(dj)
                yield from rec(pred, down)
                pred.pop()
                down.pop()

    yield from rec([0], [1])


def _pred_to_leq(pred, n):
    return np.eye(n, dtype=bool) | (np.array(pred) >> np.arange(n)[:, None] & 1 == 1)
