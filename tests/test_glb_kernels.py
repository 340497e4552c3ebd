'''The vector kernels of a1, dmeet and gmeet.

Each kernel must give what the element-by-element loop it replaced gave:
the same values, the same op counts, the same sigma reductions and, for
gmeet, the same `on_update` stream.  GOLDENS pins all
four on a fixed corpus; they were recorded from the loops, which live on
below as the reference that a Hypothesis test checks the kernels against.
'''
from __future__ import annotations

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmeet import latgen, morphology
from latmeet.endo import Endofunction, random_join_endomorphism
from latmeet.glb import a1_naive, dmeet, gmeet
from latmeet.lattice import CHUNK_BYTES, build, chain, m_n, powerset, product

ROUTES = {'a1': a1_naive, 'dmeet': dmeet, 'gmeet': gmeet}


def _digest(obj):
    'First 16 hex digits of the sha256 of repr(obj).'
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _random_family(lat, k):
    return [random_join_endomorphism(lat, seed=s) for s in range(k)]


def _dilations(w, h, *names):
    grid = morphology.PixelGrid(w, h)
    return grid.lattice, [morphology.dilation_as_endofunction(grid, morphology.SE_CATALOG[s])
                          for s in names]


# Case name -> (lattice, family).  The distributive cases serve all three
# routes, the others gmeet only; a1 skips the 3x3 grid, where the loop it
# replaced makes 2.7 * 10^8 joins.
DISTRIBUTIVE = {
    'chain:6': lambda: (chain(6), _random_family(chain(6), 3)),
    'powerset:5': lambda: (powerset(5), _random_family(powerset(5), 2)),
    'chain:2*powerset:3': lambda: (build('chain:2*powerset:3'),
                                   _random_family(build('chain:2*powerset:3'), 3)),
    'chain:3*chain:4': lambda: (build('chain:3*chain:4'),
                                _random_family(build('chain:3*chain:4'), 2)),
    'downsets:16': lambda: _with_family(latgen.random_distributive_lattice(16, seed=5), 3),
    'downsets:64': lambda: _with_family(latgen.random_distributive_lattice(64, seed=4), 2),
    'grid:2x2 hline+vpair': lambda: _dilations(2, 2, 'hline', 'vpair'),
    'grid:3x3 hline+vline': lambda: _dilations(3, 3, 'hline', 'vline'),
    'grid:3x3 hpair+vpair+diag': lambda: _dilations(3, 3, 'hpair', 'vpair', 'diag'),
}
GENERAL = {
    'random:16 seed 1': lambda: _with_family(latgen.random_lattice(16, seed=1), 3),
    'random:16 seed 2': lambda: _with_family(latgen.random_lattice(16, seed=2), 2),
    'random:20 seed 1': lambda: _with_family(latgen.random_lattice(20, seed=1), 3),
    'random:20 seed 3': lambda: _with_family(latgen.random_lattice(20, seed=3), 2),
    'mn:3*mn:3': lambda: (build('mn:3*mn:3'), _random_family(build('mn:3*mn:3'), 3)),
    'grid:2x2 hline+vline': lambda: _dilations(2, 2, 'hline', 'vline'),
}


def _with_family(lat, k):
    return lat, _random_family(lat, k)


def _record(route, lat, fs):
    '(values digest, joins, meets, subtractions, reductions, update-stream digest).'
    stream = hashlib.sha256()
    kwargs = {'on_update': lambda s: stream.update(repr(s).encode())} if route == 'gmeet' else {}
    result = ROUTES[route](lat, fs, **kwargs)
    ops = result.op_counts
    return (_digest(result.endofunction.values), ops['join'], ops['meet'],
            ops['subtraction'], result.sigma_reductions,
            stream.hexdigest()[:16] if route == 'gmeet' else None)


def _golden_cases():
    for name in DISTRIBUTIVE:
        for route in ('a1', 'dmeet', 'gmeet'):
            if not (route == 'a1' and name.startswith('grid:3x3')):
                yield route, name
    for name in GENERAL:
        yield 'gmeet', name


# (route, case) -> _record(...), as the element loops gave it.
GOLDENS = {
    ('a1', 'chain:6'): ('a099da758b743938', 754, 322, 0, 0, None),
    ('dmeet', 'chain:6'): ('a099da758b743938', 42, 42, 42, 0, None),
    ('gmeet', 'chain:6'): ('a099da758b743938', 30, 18, 0, 0, 'e3b0c44298fc1c14'),
    ('a1', 'powerset:5'): ('b63ad9c1c1d797b1', 49575, 16807, 0, 0, None),
    ('dmeet', 'powerset:5'): ('b63ad9c1c1d797b1', 243, 243, 243, 0, None),
    ('gmeet', 'powerset:5'): ('b63ad9c1c1d797b1', 2030, 64, 0, 9, '026809860143120b'),
    ('a1', 'chain:2*powerset:3'): ('766219a26b799474', 12994, 4802, 0, 0, None),
    ('dmeet', 'chain:2*powerset:3'): ('766219a26b799474', 162, 162, 162, 0, None),
    ('gmeet', 'chain:2*powerset:3'): ('766219a26b799474', 660, 48, 0, 6, 'da565b3d58e5869c'),
    ('a1', 'chain:3*chain:4'): ('4dafeaca942c4f0c', 2828, 1100, 0, 0, None),
    ('dmeet', 'chain:3*chain:4'): ('4dafeaca942c4f0c', 60, 60, 60, 0, None),
    ('gmeet', 'chain:3*chain:4'): ('4dafeaca942c4f0c', 256, 24, 0, 2, '3c653488410f894e'),
    ('a1', 'downsets:16'): ('92c6c8b94020ccd7', 13196, 5004, 0, 0, None),
    ('dmeet', 'downsets:16'): ('92c6c8b94020ccd7', 208, 208, 208, 0, None),
    ('gmeet', 'downsets:16'): ('92c6c8b94020ccd7', 890, 48, 0, 7, 'b1b3bb347a98e54c'),
    ('a1', 'downsets:64'): ('c2cb7a6f13cec757', 395522, 133378, 0, 0, None),
    ('dmeet', 'downsets:64'): ('c2cb7a6f13cec757', 1032, 1032, 1032, 0, None),
    ('gmeet', 'downsets:64'): ('c2cb7a6f13cec757', 19094, 128, 0, 23, '55391055ff9a458a'),
    ('a1', 'grid:2x2 hline+vpair'): ('f564ce1656cb7499', 6497, 2401, 0, 0, None),
    ('dmeet', 'grid:2x2 hline+vpair'): ('f564ce1656cb7499', 81, 81, 81, 0, None),
    ('gmeet', 'grid:2x2 hline+vpair'): ('f564ce1656cb7499', 434, 32, 0, 4, '3c1efe1c89979485'),
    ('dmeet', 'grid:3x3 hline+vline'): ('67f4e0773871a18b', 19683, 19683, 19683, 0, None),
    ('gmeet', 'grid:3x3 hline+vline'): ('67f4e0773871a18b', 2082328, 1024, 0, 596, '5a253cb364fc4faa'),
    ('dmeet', 'grid:3x3 hpair+vpair+diag'): ('67f4e0773871a18b', 39366, 39366, 39366, 0, None),
    ('gmeet', 'grid:3x3 hpair+vpair+diag'): ('67f4e0773871a18b', 582352, 1536, 0, 128, '6553f13b0a925b7a'),
    ('gmeet', 'random:16 seed 1'): ('7f0467af4951059a', 394, 48, 0, 1, '7f0467af4951059a'),
    ('gmeet', 'random:16 seed 2'): ('c3fd365e29e62141', 240, 32, 0, 0, 'e3b0c44298fc1c14'),
    ('gmeet', 'random:20 seed 1'): ('2522801a52b0dea2', 4238, 102, 0, 31, '62b98808f29fbf6d'),
    ('gmeet', 'random:20 seed 3'): ('419318eb95a54053', 1536, 56, 0, 10, '93a101a060c17da9'),
    ('gmeet', 'mn:3*mn:3'): ('a7c71af32e15009b', 3730, 93, 0, 37, 'ed566cbc60046a5e'),
    ('gmeet', 'grid:2x2 hline+vline'): ('f564ce1656cb7499', 564, 32, 0, 6, 'bec757a1b4f173f0'),
}


@pytest.mark.parametrize('route,name', list(_golden_cases()))
def test_kernel_matches_the_golden(route, name):
    lat, fs = {**DISTRIBUTIVE, **GENERAL}[name]()
    assert _record(route, lat, fs) == GOLDENS[route, name]


# -- the element loops the kernels replaced ---------------------------------------


class _Counter:
    'A lattice whose join, meet and subtraction each count one call.'

    def __init__(self, lat):
        self.lat, self.counts = lat, {'join': 0, 'meet': 0, 'subtraction': 0}

    def join(self, a, b):
        self.counts['join'] += 1
        return self.lat.join(a, b)

    def meet(self, a, b):
        self.counts['meet'] += 1
        return self.lat.meet(a, b)

    def subtraction(self, c, a):
        self.counts['subtraction'] += 1
        return self.lat.subtraction(c, a)


def reference_a1(lat, fs):
    'a1 as one loop per (c, a, b): (values, op counts).'
    view, f = _Counter(lat), fs[0].values
    for g in (h.values for h in fs[1:]):
        vals = []
        for c in range(lat.n):
            acc = lat.top
            for a in range(lat.n):
                for b in range(lat.n):
                    if lat.le(c, view.join(a, b)):
                        acc = view.meet(acc, view.join(f[a], g[b]))
            vals.append(acc)
        f = tuple(vals)
    return f, view.counts


def reference_dmeet(lat, fs):
    'dmeet as one loop per (c, a) with a <= c: (values, op counts).'
    view, f = _Counter(lat), fs[0].values
    for g in (h.values for h in fs[1:]):
        vals = []
        for c in range(lat.n):
            acc = lat.top
            for a in (a for a in range(lat.n) if lat.le(a, c)):
                acc = view.meet(acc, view.join(f[a], g[view.subtraction(c, a)]))
            vals.append(acc)
        f = tuple(vals)
    return f, view.counts


def reference_gmeet(lat, fs):
    '''gmeet rescanning pair by pair: (values, op counts, reductions, the
    on_update stream).'''
    view, n = _Counter(lat), lat.n
    sigma = [lat.top] * n
    for f in fs:
        sigma = [view.meet(s, x) for s, x in zip(sigma, f.values)]
    reductions, stream = 0, []
    while True:
        hit = None
        for u in range(n):
            for v in range(u + 1, n):
                w = view.join(u, v)
                j = view.join(sigma[u], sigma[v])
                if j != sigma[w]:
                    hit = (u, v, w, j)
                    break
            if hit:
                break
        if hit is None:
            return tuple(sigma), view.counts, reductions, stream
        u, v, w, j = hit
        if lat.le(j, sigma[w]):
            sigma[w] = j
            reductions += 1
        else:
            for t in (u, v):
                m = view.meet(sigma[t], sigma[w])
                if m != sigma[t]:
                    sigma[t] = m
                    reductions += 1
        stream.append(tuple(sigma))


SMALL_DISTRIBUTIVE = st.one_of(
    st.integers(1, 6).map(chain),
    st.integers(0, 3).map(powerset),
    st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
        lambda p: product(chain(p[0]), chain(p[1]))),
    st.tuples(st.integers(1, 14), st.integers(0, 99)).map(
        lambda p: latgen.random_distributive_lattice(p[0], seed=p[1])),
)
SMALL_ANY = st.one_of(
    SMALL_DISTRIBUTIVE,
    st.integers(0, 5).map(m_n),
    st.tuples(st.integers(1, 12), st.integers(0, 99)).map(
        lambda p: latgen.random_lattice(p[0], seed=p[1])),
)


def _family(data, lat):
    '''One to three maps: random join-endomorphisms, or arbitrary maps,
    which send gmeet's scan and repairs down other paths.'''
    if data.draw(st.booleans(), label='join-endomorphisms'):
        seeds = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=3), label='seeds')
        return [random_join_endomorphism(lat, seed=s) for s in seeds]
    maps = st.lists(st.integers(0, lat.n - 1), min_size=lat.n, max_size=lat.n)
    return [Endofunction(lat, vals)
            for vals in data.draw(st.lists(maps, min_size=1, max_size=3), label='maps')]


@settings(max_examples=60, deadline=None)
@given(st.data(), SMALL_DISTRIBUTIVE)
def test_a1_and_dmeet_match_their_loops(data, lat):
    fs = _family(data, lat)
    for kernel, reference in ((a1_naive, reference_a1), (dmeet, reference_dmeet)):
        result = kernel(lat, fs)
        assert (result.endofunction.values, result.op_counts) == reference(lat, fs)
        assert result.sigma_reductions == 0


@settings(max_examples=80, deadline=None)
@given(st.data(), SMALL_ANY)
def test_gmeet_matches_its_loop(data, lat):
    fs = _family(data, lat)
    stream = []
    result = gmeet(lat, fs, on_update=stream.append)
    assert (result.endofunction.values, result.op_counts, result.sigma_reductions,
            stream) == reference_gmeet(lat, fs)
    assert all(type(v) is int for sigma in stream for v in sigma)


# -- memory ------------------------------------------------------------------------


@pytest.mark.parametrize('route,lat,live', [
    ('a1', latgen.random_distributive_lattice(64, seed=4), 2),
    ('dmeet', powerset(12), 6),
])
def test_kernel_peak_is_a_few_blocks(route, lat, live):
    '''A block's temporaries hold at most CHUNK_BYTES >> 4 bytes each, and
    at most `live` of them are alive at once: a1's value table and mask,
    and dmeet's candidates, their two lookups, the subtraction and its
    operand, and the join.'''
    fs = _random_family(lat, 2)
    tracemalloc.start()
    try:
        ROUTES[route](lat, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= live * (CHUNK_BYTES >> 4), peak
