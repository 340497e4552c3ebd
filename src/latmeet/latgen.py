'''Lattice generation by augmentation.

An order is a square bool matrix, m[a, b] meaning a <= b (`Lattice.leq`).
It grows two ways: an edge augmentation adds order pairs and closes
transitively; a node augmentation adds a fresh element wedged between two
existing ones.  Exhaustive generation walks node steps then single-pair edge
steps, deduplicating up to isomorphism; random generation walks the same
steps with a seeded generator.  The conjecture hunt compares endomorphism
counts across distributive single-pair augmentations.

Every step closes by one closed form: adding a <= b to a closed order gives
m | down(a) x up(b), and a node step adds x with down(a) < x < up(b).
Free pairs are the pairs (a,b), a not below b, whose single-pair closure is
a lattice relation.  Candidate closures are tested as stacks, each once, and
generation keeps the accepted ones; the random walk tests each draw's
closure directly, unless a lemma decides it.

A finite order is a lattice iff it has a bottom and each pair has a lub (a
glb is then the lub of the common lower bounds).  In a transitive order the
lub of a pair is the common upper bound c with |up(c)| = the number of common
upper bounds, so `_is_lattice_stack` finds that c by count, then compares
up(c) with the common upper bounds word for word.  A relation that is not
transitive fails at some pair (if i <= j <= k but not i <= k, only j could
be the lub of i and j, and up(j) holds k), so `is_lattice_relation` and
`augment` reject one with the same test and no matrix product.

Node-step lemma: if a < b in a lattice, wedging x with down(a) < x < up(b)
in gives a lattice, as x join y is x for y <= a and b join y otherwise, and
dually for meets.  A random node draw with a < b is therefore accepted
untested (one with b <= a is a cycle).
'''
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .endo import count_join_endomorphisms
from .errors import (AugmentationError, BudgetExceededError, OutOfRangeError,
                     SizeUnreachableError)
from .lattice import (CHUNK_BYTES, TABLE_LIMIT, Lattice, _covers, _is_lattice_stack,
                      _order_fault, chain)

GENERATION_CAP = 8
RANDOM_DRAW_CAP = 64


@dataclass(frozen=True)
class EdgeStep:
    pairs: frozenset

    def __init__(self, pairs):
        object.__setattr__(self, 'pairs', frozenset(pairs))


@dataclass(frozen=True)
class NodeStep:
    below: int
    above: int


def is_lattice_relation(m):
    '''True when the bool matrix m is a lattice relation: a partial order in
    which every pair has a least upper and a greatest lower bound.  After the
    shape, reflexivity and antisymmetry checks, one bottom-and-lub test also
    rejects a relation that is not transitive.'''
    return _order_fault(m) is None and bool(_is_lattice_stack(m[None])[0])


def free_pairs(m):
    '''All ordered pairs (a,b), a not below b, whose single-pair closure is
    still a lattice relation, row-major; m must be transitive.'''
    return [pair for pair, _ in _accepted_steps(m)]


def node_steps(m):
    'All valid node augmentation steps of the order m, row-major; m must be transitive.'
    return [NodeStep(a, b) for (a, b), _ in _accepted_steps(m, node=True)]


def augment(m, step):
    '''The closed order of a step applied to the transitive order m, an edge
    step's pairs in turn; the result must be a lattice relation.'''
    if isinstance(step, EdgeStep):
        pairs, node = sorted(step.pairs), False
    elif isinstance(step, NodeStep):
        pairs, node = [(step.below, step.above)], True
    else:
        raise TypeError(f'not an augmentation step: {step!r}')
    if not all(0 <= x < len(m) for pair in pairs for x in pair):
        raise AugmentationError(f'step endpoints out of range: {step}')
    for a, b in pairs:
        m = _step_closures(m, [a], [b], node)[0]
    fault = _order_fault(m)
    if fault is not None and fault.pair is not None:    # only a cycle names a pair
        raise AugmentationError(f'{step} creates a cycle')
    if fault is not None or not _is_lattice_stack(m[None])[0]:
        raise AugmentationError(f'{step} does not yield a lattice relation')
    return m


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
    relations, with those closures, row-major, tested in blocks whose closures fit
    CHUNK_BYTES.  Edge candidates are the incomparable pairs, node candidates those
    with b not <= a.'''
    pairs = np.argwhere(~m.T if node else ~(m | m.T))
    size = len(m) + node
    per = max(1, CHUNK_BYTES // (size * size))
    for chunk in (pairs[p:p + per] for p in range(0, len(pairs), per)):
        closures = _step_closures(m, *chunk.T, node)
        ok = _is_lattice_stack(closures)
        yield from zip(map(tuple, chunk[ok].tolist()), closures[ok])


def canonical_key(m):
    '''A relabelling-invariant encoding of the order.

    Elements get structural colors (down-set size, up-set size, cover
    degrees) refined by repeated neighbor-profile hashing-free interning;
    the key is the minimum order-matrix byte string over all permutations
    that respect the final color classes.'''
    n = len(m)
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
    by_size = {k: [chain(k).leq] for k in range(1, min(n_max, 2) + 1)}

    def closures(smaller, queue):
        for m in smaller:
            yield from _accepted_steps(m, node=True)
        while queue:
            yield from _accepted_steps(queue.pop())
    for size in range(3, n_max + 1):
        found, queue = {}, []
        for _, m in closures(by_size[size - 1], queue):
            key = canonical_key(m)
            if key not in found:
                found[key] = m
                queue.append(m)
        by_size[size] = [found[key] for key in sorted(found)]
    return {
        size: [Lattice(m, label=f'gen:{size}:{i}') for i, m in enumerate(orders)]
        for size, orders in by_size.items()
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
    m = chain(2).leq
    while len(m) < n:
        m = _random_step(m, rng)
    while rng.random() < 0.5:
        steps = list(_accepted_steps(m))
        if not steps:
            break
        m = rng.choice(steps)[1]
    # The copy lets go of the stack of closures m came from.
    return Lattice(m.copy(), label=f'random:{n}')


def _random_step(m, rng):
    '''The closure of one random step on the lattice order m.  A draw is an
    index into the node pairs (a, b), a != b, then the incomparable edge pairs,
    both row-major.  A node draw with b <= a is a cycle and one with a < b a
    lattice by the node-step lemma, so only the rest get a lattice test.
    After RANDOM_DRAW_CAP draws per element, pick among the accepted steps.'''
    n = len(m)
    edges = np.argwhere(~(m | m.T))
    nodes = n * (n - 1)
    for _ in range(RANDOM_DRAW_CAP * n):
        k = rng.choice(range(nodes + len(edges)))
        node = k < nodes
        if node:
            a, b = divmod(k, n - 1)
            b += b >= a                         # skip the diagonal
            if m[b, a]:
                continue
        else:
            a, b = edges[k - nodes]
        closed = _step_closures(m, [a], [b], node)
        if (node and m[a, b]) or _is_lattice_stack(closed)[0]:
            return closed[0]
    steps = list(_accepted_steps(m, node=True)) + list(_accepted_steps(m))
    return rng.choice(steps)[1]


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
                   distributive=True, modular=True)


@dataclass
class ConjectureReport:
    n_max: int
    pairs_checked: int
    counterexample: tuple | None

    @property
    def exhausted(self):
        return self.counterexample is None


CONJECTURE_CAP = 10


def conjecture_search(n_max=6, budget=10 ** 8):
    '''Hunt for a distributive lattice whose distributive edge augmentation
    does NOT strictly increase the number of join-endomorphisms.

    An edge augmentation of a relation is exactly a lattice relation that
    strictly contains it (close the union with the target and the target
    comes back), and any containment pair can be relabelled so both sides
    are upper triangular.  So the search enumerates all upper-triangular
    lattice relations per size, keeps the distributive ones, and compares
    endomorphism counts across every strict-containment pair.  Returns the
    lexicographically first offending (before, after, added pairs, count
    before, count after), or an exhaustion report.'''
    if n_max > CONJECTURE_CAP:
        raise BudgetExceededError(f'conjecture search capped at {CONJECTURE_CAP}')
    checked = 0
    for size in range(2, n_max + 1):
        lats = ((pred, Lattice(_pred_to_leq(pred, size)))
                for pred in _ut_lattice_preds(size))
        counts = {pred: count_join_endomorphisms(lat, budget)
                  for pred, lat in lats if lat.is_distributive()}
        for p1 in counts:
            for p2 in counts:
                if p1 == p2 or any(a & ~b for a, b in zip(p1, p2)):
                    continue
                checked += 1
                if counts[p2] <= counts[p1]:
                    added = tuple(
                        (i, j)
                        for j in range(size)
                        for i in range(j)
                        if p2[j] >> i & 1 and not p1[j] >> i & 1)
                    before, after = (Lattice(_pred_to_leq(p, size),
                                             label=f'conjecture:{size}:{side}')
                                     for p, side in ((p1, 'before'), (p2, 'after')))
                    return ConjectureReport(
                        n_max, checked, (before, after, added, counts[p1], counts[p2]))
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
