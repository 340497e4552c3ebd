'''Finite lattices on dense integer elements 0..n-1.

Two interchangeable backends implement the same element-level interface:
`Lattice` stores the order as an n x n boolean matrix with join/meet lookup
tables, `PowersetLattice` represents elements as bitmasks and computes every
operation directly (full tables for 2^16 elements would not fit in memory).
Instances are immutable once built; array operations (`join_many` and kin,
`extend_by_joins`) run as numpy passes.
'''
from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property, reduce

import numpy as np

from .errors import BudgetExceededError, NotALatticeError, NotDistributiveError

# Largest n for which n x n tables/matrices are materialized on demand.
TABLE_LIMIT = 4096
# Bytes of temporaries one block of the vectorised lub/glb test may hold.
CHUNK_BYTES = 1 << 24


class LatticeBase:
    'Shared conveniences; subclasses provide le/join/meet and structure.'

    n: int
    bottom: int
    top: int
    label: str

    def le_many(self, a, b):
        'Elementwise a <= b, as a meet b == a.'
        return self.meet_many(a, b) == np.asarray(a)

    def subtraction(self, c, a):
        '''Least b such that a `join` b >= c (co-Heyting subtraction); raises
        NotDistributiveError on a non-distributive lattice.'''
        return int(self.subtraction_many(c, a))

    def _jvals(self, jvals, dtype):
        jvals = np.asarray(jvals, dtype=dtype)
        if jvals.shape[-1:] != (len(self.join_irreducibles),):
            raise ValueError(f'{self.label}: expected one value per join-irreducible, '
                             f'got shape {jvals.shape}')
        return jvals

    def __repr__(self):
        return f'<{type(self).__name__} {self.label} n={self.n}>'


class Lattice(LatticeBase):
    '''Table-backed finite lattice.

    Built from an order matrix `leq` (leq[a, b] means a <= b).  Join/meet
    tables passed in (by builders with closed forms) are trusted, with leq.
    Derived tables validate `leq`: NotALatticeError names the label and the
    offending pair if it is no partial order (_order_fault) or some lub or
    glb is missing, which also rejects a non-transitive order.
    '''

    def __init__(self, leq, label='lattice', join_table=None, meet_table=None,
                 distributive=None, modular=None):
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        if join_table is None or meet_table is None:
            with _naming(label):
                if (fault := _order_fault(leq)) is not None:
                    raise fault
                join_table, meet_table = _tables_from_leq(leq)
        self.n = leq.shape[0]
        self.label = label
        leq.flags.writeable = False
        self.leq = leq
        self._join_table = np.ascontiguousarray(join_table, dtype=np.int32)
        self._meet_table = np.ascontiguousarray(meet_table, dtype=np.int32)
        self.bottom = int(leq.all(axis=1).argmax())    # unique, as leq is a lattice order
        self.top = int(leq.all(axis=0).argmax())
        self._distributive = distributive
        self._modular = modular

    # -- order and operations -------------------------------------------------

    def le(self, a, b):
        return bool(self.leq[a, b])

    def join(self, a, b):
        return int(self._join_table[a, b])

    def meet(self, a, b):
        return int(self._meet_table[a, b])

    def join_many(self, a, b):
        return self._join_table[a, b]

    def meet_many(self, a, b):
        return self._meet_table[a, b]

    def extend_by_joins(self, jvals):
        '''v[..., e] = join of jvals[..., k] over the irreducibles J[k] <= e,
        by join-table lookups level by level; leading axes are rows.'''
        jvals = self._jvals(jvals, self._join_table.dtype)
        w = np.concatenate([np.full(jvals.shape[:-1] + (self.n,), self.bottom, jvals.dtype),
                            jvals], axis=-1)
        for es, slots in self._join_schedule:
            acc = w[..., slots[:, 0]]
            for col in slots.T[1:]:
                acc = self._join_table[acc, w[..., col]]
            w[..., es] = acc
        return w[..., :self.n]

    @cached_property
    def _join_schedule(self):
        '''Per rank level above bottom: its elements and the slots each joins.
        An irreducible below e is e (slot n + k if e = J[k]) or below a lower
        cover; covers join largest first while they add one (two, if distributive).'''
        n, index = self.n, {j: k for k, j in enumerate(self.join_irreducibles)}
        covers = [[] for _ in range(n)]
        for c, e in zip(*(axis.tolist() for axis in self.lower_covers())):
            covers[e].append(c)
        rank, below, slots = np.zeros(n, dtype=np.intp), [0] * n, [[] for _ in range(n)]
        for e in self.linear_extension():        # below[e]: bit k set iff J[k] <= e
            need = 1 << index[e] if e in index else 0
            for c in covers[e]:
                need |= below[c]
            below[e] = need
            for c in sorted(covers[e], key=lambda c: -below[c].bit_count()):
                rank[e] = max(rank[e], rank[c] + 1)
                if need & below[c]:
                    slots[e].append(c)
                    need &= ~below[c]
            if need:
                slots[e].append(n + index[e])
        levels = [np.flatnonzero(rank == r) for r in range(1, rank[self.top] + 1)]
        width = [max(len(slots[e]) for e in es) for es in levels]    # short rows repeat a slot
        return [(es, np.array([slots[e] + slots[e][:1] * (w - len(slots[e])) for e in es]))
                for es, w in zip(levels, width)]

    @property
    def join_table(self):
        return self._join_table

    @property
    def meet_table(self):
        return self._meet_table

    def subtraction_many(self, c, a):
        return self._subtraction_table[c, a]

    @cached_property
    def _subtraction_table(self):
        '''table[c, a] = c - a.  Subtraction distributes over joins in c, and
        for an irreducible j, j - a is bottom if j <= a and j otherwise, so
        column a is extend_by_joins of those values.  Columns run in blocks of
        about 16 bytes per element and row (the extension's w, jvals and one
        rank level's lookups), within CHUNK_BYTES.'''
        if not self.is_distributive():
            raise NotDistributiveError(f'{self.label}: subtraction needs a distributive lattice')
        js = np.array(self.join_irreducibles, dtype=np.int32)
        out = np.empty((self.n, self.n), dtype=np.int32)
        step = max(1, CHUNK_BYTES // (16 * self.n))
        for a0 in range(0, self.n, step):
            below = self.leq[js, a0:a0 + step].T         # below[a, k]: J[k] <= a
            out[a0:a0 + step] = self.extend_by_joins(np.where(below, self.bottom, js))
        return out.T

    # -- structure -------------------------------------------------------------

    @cached_property
    def _cover_matrix(self):
        return _covers(self.leq)

    def covers_of(self, a):
        'Elements covered by a (lower covers), ascending.'
        return tuple(int(b) for b in np.flatnonzero(self._cover_matrix[:, a]))

    def lower_covers(self):
        '''(lo, up): every cover lo of up, as int arrays grouped by ascending
        up, lo ascending within a group.'''
        up, lo = np.nonzero(self._cover_matrix.T)
        return lo, up

    @cached_property
    def join_irreducibles(self):
        'Elements with exactly one lower cover (equivalently: join-irreducible).'
        counts = self._cover_matrix.sum(axis=0)
        return tuple(int(a) for a in range(self.n)
                     if a != self.bottom and counts[a] == 1)

    def up_set(self, a):
        return tuple(int(b) for b in np.flatnonzero(self.leq[a, :]))

    def linear_extension(self):
        'Elements ordered compatibly with leq (smaller down-sets first).'
        sizes = self.leq.sum(axis=0)
        return tuple(int(a) for a in np.argsort(sizes, kind='stable'))

    @property
    def height(self):
        'Length in edges of the longest chain.'
        return len(self._join_schedule)

    # -- identities ------------------------------------------------------------

    def is_distributive(self):
        '''Whether x -> |J(x)|, the number of join-irreducibles below x, is a
        valuation: as J(x meet y) = J(x) & J(y), exactly when every irreducible
        is join-prime (Davey & Priestley, ch. 5).'''
        if self._distributive is None:
            js = np.array(self.join_irreducibles, dtype=np.intp)
            self._distributive = self._is_valuation(self.leq[js].sum(axis=0))
        return self._distributive

    def is_modular(self):
        '''Whether the lattice is distributive or its rank (longest chain from
        bottom) is a valuation: a lattice is modular exactly when it has a
        strictly monotone valuation, and then its rank is one (Birkhoff).'''
        if self._modular is None:
            self._modular = self.is_distributive()
            if not self._modular:
                rank = np.zeros(self.n, dtype=np.intp)
                for r, (es, _) in enumerate(self._join_schedule, 1):
                    rank[es] = r
                self._modular = self._is_valuation(rank)
        return self._modular

    def _is_valuation(self, v):
        'v[x] + v[y] == v[x join y] + v[x meet y] for all x, y; row blocks within CHUNK_BYTES.'
        v = np.asarray(v, dtype=np.int32)
        step = max(1, CHUNK_BYTES // (32 * self.n))
        for r0 in range(0, self.n, step):
            rows = slice(r0, r0 + step)
            if not np.array_equal(v[rows, None] + v, v[self._join_table[rows]]
                                  + v[self._meet_table[rows]]):
                return False
        return True


class PowersetLattice(LatticeBase):
    '''Lattice of all subsets of {0..m-1}; elements are bitmasks.

    Operations are O(1) bit arithmetic, so no tables are stored; the matrix
    and table properties materialize lazily and refuse above TABLE_LIMIT.
    '''

    def __init__(self, m, label=None):
        if m < 0:
            raise ValueError('m must be >= 0')
        self.m = m
        self.n = 1 << m
        self.bottom = 0
        self.top = self.n - 1
        self.label = label if label is not None else f'powerset:{m}'

    def le(self, a, b):
        return a & ~b == 0

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def subtraction_many(self, c, a):
        return np.asarray(c, np.int64) & ~np.asarray(a, np.int64)

    def join_many(self, a, b):
        return np.asarray(a, np.int64) | np.asarray(b, np.int64)

    def meet_many(self, a, b):
        return np.asarray(a, np.int64) & np.asarray(b, np.int64)

    def extend_by_joins(self, jvals):
        'Bit doubling: masks in [b, 2b) are those in [0, b) plus bit b.'
        jvals = self._jvals(jvals, np.int64)
        v = np.zeros(jvals.shape[:-1] + (self.n,), dtype=np.int64)
        for i in range(self.m):
            b = 1 << i
            v[..., b:2 * b] = v[..., :b] | jvals[..., i, None]
        return v

    def covers_of(self, a):
        return tuple(sorted(a ^ (1 << i) for i in range(self.m) if a >> i & 1))

    def lower_covers(self):
        'As Lattice.lower_covers: up with one bit flipped off, high bits first.'
        bits = 1 << np.arange(self.m)[::-1]
        up, k = np.nonzero(np.arange(self.n)[:, None] & bits)
        return up ^ bits[k], up

    @property
    def join_irreducibles(self):
        return tuple(1 << i for i in range(self.m))

    def up_set(self, a):
        return tuple(b for b in range(a, self.n) if a & ~b == 0)

    def linear_extension(self):
        return tuple(sorted(range(self.n), key=lambda a: (a.bit_count(), a)))

    @property
    def height(self):
        return self.m

    def is_distributive(self):
        return True

    def is_modular(self):
        return True

    def _guard_table(self):
        if self.n > TABLE_LIMIT:
            raise BudgetExceededError(
                f'{self.label}: n={self.n} exceeds TABLE_LIMIT={TABLE_LIMIT}; '
                'use the mask-level operations instead of materialized tables')

    @cached_property
    def leq(self):
        self._guard_table()
        x = np.arange(self.n)
        return np.bitwise_and(x[:, None], ~x[None, :]) == 0

    @cached_property
    def join_table(self):
        self._guard_table()
        x = np.arange(self.n, dtype=np.int32)
        return np.bitwise_or.outer(x, x)

    @cached_property
    def meet_table(self):
        self._guard_table()
        x = np.arange(self.n, dtype=np.int32)
        return np.bitwise_and.outer(x, x)


# -- builders -------------------------------------------------------------------


def chain(k, label=None):
    'Total order on k elements; 0 is bottom.'
    if k < 1:
        raise ValueError('a chain needs at least one element')
    r = np.arange(k, dtype=np.int32)
    return Lattice(
        r[:, None] <= r[None, :],
        label=label if label is not None else f'chain:{k}',
        join_table=np.maximum.outer(r, r),
        meet_table=np.minimum.outer(r, r),
        distributive=True, modular=True)


def powerset(m):
    'Boolean lattice of all subsets of an m-element set.'
    return PowersetLattice(m)


def m_n(k, label=None):
    'Antichain of k elements with a bottom and a top glued on (M_k).'
    if k < 0:
        raise ValueError('k must be >= 0')
    n = k + 2
    bot, top = 0, n - 1
    leq = np.eye(n, dtype=bool)
    leq[bot, :] = True
    leq[:, top] = True
    r, comparable = np.arange(n, dtype=np.int32), leq | leq.T    # labels extend the order
    jt = np.where(comparable, np.maximum.outer(r, r), top)
    mt = np.where(comparable, np.minimum.outer(r, r), bot)
    return Lattice(leq, label=label if label is not None else f'mn:{k}',
                   join_table=jt, meet_table=mt,
                   distributive=k <= 2, modular=True)


def from_cover_relation(n, edges, label='cover-relation'):
    'Lattice from cover edges (a, b) meaning b covers a; validates everything, n first.'
    if n < 1:
        raise NotALatticeError(f'{label}: a lattice needs at least one element, got n={n}')
    if n > TABLE_LIMIT:
        raise BudgetExceededError(f'{label}: n={n} exceeds TABLE_LIMIT={TABLE_LIMIT}')
    rel = np.eye(n, dtype=bool)
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise NotALatticeError(f'{label}: bad cover edge ({a}, {b})', pair=(a, b))
        rel[a, b] = True
    with _naming(label):
        leq = _transitive_closure_matrix(rel)
    return Lattice(leq, label=label)


def product(a, b, label=None):
    'Direct product; element (i, j) is encoded as i * b.n + j.'
    na, nb = a.n, b.n
    if na * nb > TABLE_LIMIT:
        raise BudgetExceededError(f'product size {na * nb} exceeds {TABLE_LIMIT}')

    def pair(op, x, y):
        '''op(x[i, k], y[j, l]) at row (i, j), column (k, l), broadcast into
        one fresh array: no (n, n) temporaries.'''
        return op(x[:, None, :, None], y[None, :, None, :]).reshape(na * nb, na * nb)

    def table(ta, tb):
        return pair(np.add, np.asarray(ta, np.int32) * np.int32(nb), np.asarray(tb, np.int32))

    dist = a.is_distributive() and b.is_distributive()
    mod = a.is_modular() and b.is_modular()
    return Lattice(pair(np.logical_and, a.leq, b.leq),
                   label=label if label is not None else f'product({a.label},{b.label})',
                   join_table=table(a.join_table, b.join_table),
                   meet_table=table(a.meet_table, b.meet_table),
                   distributive=dist, modular=mod)


def from_leq(leq, label='lattice'):
    'Lattice from an explicit order matrix; validates everything.'
    return Lattice(leq, label=label)


def build(spec):
    '''Build a lattice from a descriptor string.

    Grammar: "chain:K", "powerset:M", "mn:K", "file:PATH" (cover-relation
    file), or products joined with "*" (left associative), e.g.
    "chain:2*mn:3".
    '''
    parts = [p.strip() for p in spec.split('*')]
    lats = [_build_atom(p) for p in parts]
    return reduce(product, lats)


def _build_atom(part):
    kind, sep, arg = part.partition(':')
    if not sep:
        raise ValueError(f'bad lattice spec {part!r}')
    if kind == 'chain':
        return chain(int(arg))
    if kind == 'powerset':
        return powerset(int(arg))
    if kind == 'mn':
        return m_n(int(arg))
    if kind == 'file':
        with open(arg, encoding='utf-8') as fh:
            return read_cover_file(fh, label=f'file:{arg}')
    raise ValueError(f'unknown lattice kind {kind!r}')


# -- cover-relation text format ---------------------------------------------------


def read_cover_file(fh, label='cover-file'):
    '''Parse the cover-relation format: first line n, then "a b" edge lines.

    "#" starts a comment; blank lines are ignored; a malformed line is a ValueError.
    '''
    n, edges = None, []
    for lineno, raw in enumerate(fh, 1):
        fields = raw.split('#', 1)[0].split()
        try:
            if fields and n is None:
                (n,) = map(int, fields)
            elif fields:
                a, b = map(int, fields)
                edges.append((a, b))
        except ValueError:
            want = 'the element count n' if n is None else 'an edge "a b"'
            raise ValueError(f'{label}: line {lineno} is not {want}: {raw.strip()!r}') from None
    if n is None:
        raise NotALatticeError(f'{label}: empty cover-relation file')
    return from_cover_relation(n, edges, label=label)


def write_cover_file(fh, lattice, comment=None):
    'Write a lattice in the cover-relation format; edges sorted lexicographically.'
    if comment:
        fh.write(f'# {comment}\n')
    fh.write(f'{lattice.n}\n')
    for a, b in sorted(zip(*(x.tolist() for x in lattice.lower_covers()))):
        fh.write(f'{a} {b}\n')


# -- internals ---------------------------------------------------------------------


@contextmanager
def _naming(label):
    'Prefix the message of a NotALatticeError raised inside with the input label.'
    try:
        yield
    except NotALatticeError as exc:
        raise NotALatticeError(f'{label}: {exc}', pair=exc.pair) from None


def _order_fault(m):
    '''The NotALatticeError for the first of square, nonempty, reflexive and antisymmetric
    (naming the first a != b with a <= b <= a) that the bool matrix m breaks, else None.
    The lub test rejects the rest: if i <= j <= k but not i <= k, the lub of i and j
    could only be j, but k is above j and not above i.'''
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return NotALatticeError('leq must be a square matrix')
    if not len(m):
        return NotALatticeError('a lattice needs at least one element')
    if not m.diagonal().all():
        return NotALatticeError('order is not reflexive')
    if len(bad := np.argwhere(m & m.T & ~np.eye(len(m), dtype=bool))):
        pair = tuple(bad[0].tolist())
        return NotALatticeError(f'order is not antisymmetric at {pair}', pair=pair)
    return None


def _tables_from_leq(leq):
    '''Join/meet tables of a reflexive, antisymmetric order; NotALatticeError
    names the first pair (i <= j, row-major) without a least upper, else
    greatest lower, bound, which a non-transitive order has.'''
    n = leq.shape[0]
    jt, mt = np.empty((2, n, n), dtype=np.int32)
    for r0, lub, glb in _bound_blocks(leq):
        missing = np.argwhere((lub < 0) | (glb < 0))   # symmetric: first has i <= j
        if len(missing):
            i, j = missing[0].tolist()
            bound = 'least upper' if lub[i, j] < 0 else 'greatest lower'
            raise NotALatticeError(f'elements {r0 + i} and {j} have no {bound} bound',
                                   pair=(r0 + i, j))
        jt[r0:r0 + len(lub)], mt[r0:r0 + len(lub)] = lub, glb
    return jt, mt


# The lub of i and j is the c in U = up(i) & up(j) with up(c) = U.  If the order
# is transitive, every c in U has up(c) <= U, so the lub is the c in U with
# |up(c)| = |U|, the largest count in U: the first element of U when the
# elements are listed by descending up-set size.  Up-sets are packed into 64-bit
# words in that listing, so U is one AND and its first element the lowest set
# bit; comparing that element's up-set with U word for word decides the pair
# (a popcount of U would too, but numpy has one only from 2.0).  The test is
# exact on a reflexive, antisymmetric relation that is not transitive as well:
# if i <= j <= k but not i <= k, up(c) = U for c in U would need c <= j <= c,
# and up(j) holds k, so the test refuses the pair i, j.


def _is_lattice_stack(leq):
    '''For each reflexive, antisymmetric relation of the stack leq (k, n, n):
    is it a lattice order?  A finite order with a bottom in which every pair
    has a lub is a lattice (the glb of i and j is the lub of their common lower
    bounds, a set with the bottom in it), so glbs need no test.  Orders and rows
    run in blocks whose temporaries stay within CHUNK_BYTES.'''
    k, n, _ = leq.shape
    row = _bound_block_bytes(n)
    rows, per = max(1, CHUNK_BYTES // row), max(1, CHUNK_BYTES // (n * row))
    ok = leq.all(axis=2).any(axis=1)             # a bottom is below everything
    for s0 in range(0, k, per):
        order, words = _packed_up_sets(leq[s0:s0 + per])
        at = np.arange(len(words))[:, None, None]
        for r0 in range(0, n, rows):
            u = words[:, r0:r0 + rows, None, :] & words[:, None, :, :]
            c = order[at, _first_bit(u)]
            ok[s0:s0 + per] &= (words[at, c] == u).all(axis=(1, 2, 3))
    return ok


def _bound_block_bytes(n):
    'Bytes of temporaries per order and row in a block of lub tests over n elements.'
    return n * (18 * -(-n // 64) + 96)


def _bound_blocks(leq):
    '''Row blocks (r0, lub, glb) of the reflexive, antisymmetric order leq:
    lub[i - r0, j] is the lub of i and j, or -1 if none; glb likewise.  A
    block's temporaries stay within CHUNK_BYTES.'''
    n = len(leq)
    orders, words = _packed_up_sets(np.stack([leq, leq.T]))   # glbs are the lubs of the dual
    step = max(1, CHUNK_BYTES // _bound_block_bytes(n))
    for r0 in range(0, n, step):
        yield r0, *(_lub_block(o, w, slice(r0, r0 + step)) for o, w in zip(orders, words))


def _lub_block(order, words, rows):
    'The lubs of `rows` in _bound_blocks, from one (order, words) pair, or -1.'
    u = words[rows, None, :] & words
    c = order[_first_bit(u)]
    return np.where((words[c] == u).all(axis=-1), c, -1)


def _packed_up_sets(leq):
    '''(order, words) of the stack of orders leq (k, n, n): order[s] lists the
    elements by descending up-set size in leq[s], and words[s, i] packs up(i),
    listed so, into 64-bit words, bit p standing for order[s, p].'''
    k, n, _ = leq.shape
    order = np.argsort(-leq.sum(axis=2), axis=1, kind='stable')
    bits = np.zeros((k, n, -(-n // 64) * 64), dtype=bool)
    bits[..., :n] = np.swapaxes(np.swapaxes(leq, 1, 2)[np.arange(k)[:, None], order], 1, 2)
    return order, np.packbits(bits, axis=-1, bitorder='little').view('<u8')


def _first_bit(u):
    '''The lowest set bit of each word row u (..., W), as an index; -1 where u
    is 0, which names the last element, whose up-set holds it and so is not u.'''
    if u.shape[-1] == 1:        # n <= 64: no gathers, about 2x faster on stacks
        first, w = 0, u[..., 0]
    else:
        first = (u != 0).argmax(axis=-1)
        w = np.take_along_axis(u, first[..., None], axis=-1)[..., 0]
    return first * 64 + np.frexp(w & (~w + np.uint64(1)))[1] - 1


def _bool_product(x, y):
    '''The bool matrix product x @ y by float32 (BLAS) products of row blocks
    within CHUNK_BYTES; numpy's bool matmul has no BLAS path.  Exact, as a sum
    of 0/1 terms stays positive under any rounding.'''
    k, m = y.shape
    yf = y.astype(np.float32)
    out = np.empty((len(x), m), dtype=bool)
    step = max(1, CHUNK_BYTES // max(1, 4 * k + 5 * m))
    for r0 in range(0, len(x), step):
        np.greater(x[r0:r0 + step].astype(np.float32) @ yf, 0, out=out[r0:r0 + step])
    return out


def _covers(leq):
    'cover[a, b] is true when b covers a in the order leq.'
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return lt & ~_bool_product(lt, lt)


def _transitive_closure_matrix(rel):
    '''The transitive closure of the bool relation rel, by one OR pass over
    its rows in reverse topological order (Kahn): each row takes in the
    already closed rows of its successors.  A cycle has no such order;
    NotALatticeError then names the two smallest elements of one.'''
    n = len(rel)
    off = rel & ~np.eye(n, dtype=bool)
    src, dst = np.nonzero(off)
    succ = np.split(dst, np.cumsum(np.bincount(src, minlength=n))[:-1])
    indeg = off.sum(axis=0).tolist()
    order = [a for a in range(n) if indeg[a] == 0]
    for a in order:                     # grows while it is read
        for b in succ[a].tolist():
            indeg[b] -= 1
            if indeg[b] == 0:
                order.append(b)
    if len(order) < n:
        # Each element left has a predecessor left, so walking back meets a cycle.
        left = np.ones(n, dtype=bool)
        left[order] = False
        walk, a = [], int(left.argmax())
        while a not in walk:
            walk.append(a)
            a = int((off[:, a] & left).argmax())
        pair = tuple(sorted(walk[walk.index(a):])[:2])
        raise NotALatticeError(f'order is not antisymmetric at {pair}', pair=pair)
    closed = rel.copy()
    for a in reversed(order):
        if len(succ[a]):
            closed[a] |= closed[succ[a]].any(axis=0)
    return closed
