'''The vector join-extension and the code that runs on it.

`extend_by_joins` is checked against its definition, the join of the given
values over jdown(e), and `is_join_endomorphism` against the pairwise
definition.  The sha256 goldens of `random_join_endomorphism` were recorded
with the element-by-element extension that the vector passes replaced.
'''
from __future__ import annotations

import hashlib
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_join_endo_by_definition, modular7, n5
from latmeet.endo import (Endofunction, is_join_endomorphism, pointwise_join,
                          pointwise_leq, pointwise_meet_many,
                          random_join_endomorphism)
from latmeet.glb import dmeet_plus
from latmeet.latgen import random_distributive_lattice, random_lattice
from latmeet.lattice import build, chain, m_n, powerset, product


def distributive_lattices():
    'Powersets up to 2^7, chains, chain products and random down-set lattices (n <= 64).'
    return st.one_of(
        st.integers(min_value=0, max_value=7).map(powerset),
        st.integers(min_value=1, max_value=12).map(chain),
        st.builds(lambda a, b: product(chain(a), chain(b)),
                  st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)),
        st.builds(random_distributive_lattice, st.integers(min_value=1, max_value=64),
                  seed=st.integers(min_value=0, max_value=10 ** 6)))


def other_lattices():
    'Non-distributive lattices: the extension is defined there too.'
    return st.one_of(
        st.sampled_from([m_n(3), m_n(6), n5(), modular7(), build('mn:4*chain:2')]),
        st.builds(random_lattice, st.integers(min_value=3, max_value=14),
                  seed=st.integers(min_value=0, max_value=10 ** 6)))


def extension_by_definition(lat, jvals):
    index = {j: k for k, j in enumerate(lat.join_irreducibles)}
    return [reduce(lat.join, [jvals[index[j]] for j in lat.jdown(e)], lat.bottom)
            for e in range(lat.n)]


def draw_jvals(data, lat, rows=None):
    elements = st.integers(min_value=0, max_value=lat.n - 1)
    m = len(lat.join_irreducibles)
    if rows is None:
        return data.draw(st.lists(elements, min_size=m, max_size=m))
    return [data.draw(st.lists(elements, min_size=m, max_size=m)) for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(distributive_lattices(), other_lattices()), st.data())
def test_extend_by_joins_is_the_join_over_jdown(lat, data):
    jvals = draw_jvals(data, lat)
    assert lat.extend_by_joins(jvals).tolist() == extension_by_definition(lat, jvals)


@settings(max_examples=30, deadline=None)
@given(st.one_of(distributive_lattices(), other_lattices()), st.data())
def test_extend_by_joins_rows_are_independent(lat, data):
    rows = draw_jvals(data, lat, rows=3)
    got = lat.extend_by_joins(np.array(rows, dtype=np.int64).reshape(3, -1))
    assert got.shape == (3, lat.n)
    assert got.tolist() == [lat.extend_by_joins(r).tolist() for r in rows]


@settings(max_examples=60, deadline=None)
@given(distributive_lattices(), st.data())
def test_is_join_endomorphism_matches_definition_near_endomorphisms(lat, data):
    f = random_join_endomorphism(lat, seed=data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    assert is_join_endomorphism(f)
    assert is_join_endo_by_definition(lat, f.values)
    e = data.draw(st.integers(min_value=0, max_value=lat.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=lat.n - 1))
    perturbed = list(f.values)
    perturbed[e] = v
    assert is_join_endomorphism(Endofunction(lat, perturbed)) == \
        is_join_endo_by_definition(lat, perturbed)


@settings(max_examples=60, deadline=None)
@given(st.one_of(distributive_lattices(), other_lattices()), st.data())
def test_array_operations_match_the_scalar_ones(lat, data):
    elements = st.lists(st.integers(min_value=0, max_value=lat.n - 1), min_size=1, max_size=20)
    a = data.draw(elements)
    b = data.draw(st.lists(st.integers(min_value=0, max_value=lat.n - 1),
                           min_size=len(a), max_size=len(a)))
    assert lat.join_many(a, b).tolist() == [lat.join(x, y) for x, y in zip(a, b)]
    assert lat.meet_many(a, b).tolist() == [lat.meet(x, y) for x, y in zip(a, b)]
    assert lat.le_many(a, b).tolist() == [lat.le(x, y) for x, y in zip(a, b)]


def test_pointwise_helpers_match_elementwise_definitions():
    for lat in (powerset(4), random_distributive_lattice(40, seed=3), m_n(4)):
        fs = [random_join_endomorphism(lat, seed=s) for s in range(3)]
        f, g = fs[0], fs[1]
        assert pointwise_join(f, g).values == tuple(lat.join(a, b)
                                                    for a, b in zip(f.values, g.values))
        assert pointwise_meet_many(fs).values == tuple(
            lat.meet(lat.meet(a, b), c) for a, b, c in zip(*(h.values for h in fs)))
        assert pointwise_meet_many(fs[:1]) == f
        assert pointwise_leq(f, g) == all(lat.le(a, b) for a, b in zip(f.values, g.values))
        assert pointwise_leq(pointwise_meet_many(fs), g)


@pytest.mark.parametrize('n', [64, 100, 512])
def test_dmeet_plus_fold_counts_on_tables(n):
    lat = random_distributive_lattice(n, seed=7)
    fs = [random_join_endomorphism(lat, seed=s) for s in range(3)]
    m = len(lat.join_irreducibles)
    result = dmeet_plus(lat, fs)
    assert result.op_counts == {'join': 2 * (n - m - 1), 'meet': 2 * m, 'subtraction': 0}


# -- goldens -----------------------------------------------------------------------

# sha256 of repr(random_join_endomorphism(lattice, seed=s).values).
GOLDEN_SHA256 = {
    ('powerset', 16): (
        'c3e2006c83611a9495e837541260c53e17efc027002a93438d4268259b6196e1',
        '6d02f24f25a7175bb481f80a51fe7397c7b92960525562abf730b17391cba49b',
        'd8e3826aede7309edc6b8672a5e138abceb39e08f72e808bf19570a7e2a7e689',
    ),
    ('downsets', 64): (
        'ab0459f9fd8b830c5176cc0df830a0c876e55e79905cb5b5a1d53a297739965d',
        '153e77de4b6fe4ff0aaa2d2b488cea9a55071ddbf58ef5a251a40a5bf37ec282',
        '1cc316487f96a62266f49fe462cb0deb0e0ecf05c677ca7c2afdc31b6a134663',
    ),
    ('downsets', 512): (
        '21f8e07259b3b7819093765de8caf2337fb3c87571d9d2a800c2ee660c818fed',
        '459a81248b870f69fc1489783118329897fb18c8062da957f36568d722a8e5b0',
        '40e54803586b0acc7d095e56f6261608af05737aece5e50ae8ee026c0e450de8',
    ),
}


@pytest.mark.parametrize('source', list(GOLDEN_SHA256), ids=lambda s: f'{s[0]}:{s[1]}')
def test_random_join_endomorphism_goldens(source):
    kind, size = source
    lat = powerset(size) if kind == 'powerset' else random_distributive_lattice(size, seed=5)
    for seed, digest in enumerate(GOLDEN_SHA256[source]):
        f = random_join_endomorphism(lat, seed=seed)
        assert hashlib.sha256(repr(f.values).encode()).hexdigest() == digest, seed


# -- Endofunction construction -----------------------------------------------------


def test_endofunction_from_array_generator_and_list_are_equal():
    lat = chain(4)
    vals = [0, 2, 2, 3]
    built = [Endofunction(lat, np.array(vals, dtype=np.int32)),
             Endofunction(lat, (v for v in vals)), Endofunction(lat, vals)]
    assert all(f == built[0] and hash(f) == hash(built[0]) for f in built)
    assert all(type(v) is int for v in built[0].values)
    assert not built[0].array.flags.writeable


def test_endofunction_keeps_its_own_copy_of_an_array():
    lat = chain(3)
    vals = np.array([0, 1, 2])
    f = Endofunction(lat, vals)
    vals[1] = 0
    assert f.values == (0, 1, 2) and f.array.tolist() == [0, 1, 2]
    assert vals.flags.writeable


@pytest.mark.parametrize('values, message', [
    ((0, 1), 'expected 3 values, got 2'),
    ((0, 1, 2, 2), 'expected 3 values, got 4'),
    ((0, -1, 2), 'value -1 out of range for chain:3'),
    ((0, 1, 7), 'value 7 out of range for chain:3'),
    ((0, 5, -2), 'value 5 out of range for chain:3'),
])
def test_endofunction_rejections_name_the_value(values, message):
    for given_as in (tuple, list, np.array, iter):
        with pytest.raises(ValueError, match=f'^{message}$'):
            Endofunction(chain(3), given_as(values))


def test_powerset_of_nothing():
    lat = powerset(0)
    assert (lat.n, lat.join_irreducibles) == (1, ())
    assert lat.extend_by_joins([]).tolist() == [0]
    assert lat.extend_by_joins(np.zeros((2, 0), dtype=np.int64)).tolist() == [[0], [0]]
    f = random_join_endomorphism(lat, seed=0)
    assert f.values == (0,) and is_join_endomorphism(f)
    result = dmeet_plus(lat, [f, f])
    assert result.endofunction == f
    assert result.op_counts == {'join': 0, 'meet': 0, 'subtraction': 0}


def test_extend_by_joins_refuses_the_wrong_number_of_values():
    for lat in (powerset(3), chain(4)):
        with pytest.raises(ValueError, match='one value per join-irreducible'):
            lat.extend_by_joins([0] * (len(lat.join_irreducibles) + 1))
