from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import glb_from_order, lub_from_order, modular7, n5, small_corpus
from latmeet import lattice
from latmeet.errors import (BudgetExceededError, NotALatticeError,
                            NotDistributiveError)
from latmeet.latgen import generate_all_lattices, random_distributive_lattice
from latmeet.lattice import (CHUNK_BYTES, Lattice, PowersetLattice, build, chain,
                             from_cover_relation, from_leq, m_n, powerset,
                             product, read_cover_file, write_cover_file)


def test_builder_shapes():
    assert chain(1).n == 1
    assert chain(5).n == 5
    assert powerset(0).n == 1
    assert powerset(3).n == 8
    assert m_n(0).n == 2
    assert m_n(3).n == 5
    assert product(chain(2), chain(3)).n == 6


def test_bottom_and_top(corpus_lattice):
    lat = corpus_lattice
    for a in range(lat.n):
        assert lat.le(lat.bottom, a)
        assert lat.le(a, lat.top)


def test_join_meet_match_order_oracle(corpus_lattice):
    lat = corpus_lattice
    if lat.n > 10:
        pytest.skip('oracle is cubic per pair')
    leq = [[lat.le(a, b) for b in range(lat.n)] for a in range(lat.n)]
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.join(a, b) == lub_from_order(leq, a, b)
            assert lat.meet(a, b) == glb_from_order(leq, a, b)


def test_mask_backed_powerset_matches_table_backed():
    for m in range(4):
        masked = powerset(m)
        tabled = from_leq(np.array(
            [[a | b == b for b in range(1 << m)] for a in range(1 << m)]))
        assert isinstance(masked, PowersetLattice)
        for a in range(masked.n):
            assert masked.covers_of(a) == tabled.covers_of(a)
            for b in range(masked.n):
                assert masked.join(a, b) == tabled.join(a, b)
                assert masked.meet(a, b) == tabled.meet(a, b)
                assert masked.le(a, b) == tabled.le(a, b)
        assert masked.join_irreducibles == tabled.join_irreducibles
        assert masked.is_distributive() and tabled.is_distributive()


def test_covers_are_immediate_predecessors(corpus_lattice):
    lat = corpus_lattice
    lo, up = lat.lower_covers()
    assert list(zip(lo.tolist(), up.tolist())) == [
        (a, b) for b in range(lat.n) for a in lat.covers_of(b)]
    for b in range(lat.n):
        covers = lat.covers_of(b)
        assert list(covers) == sorted(covers)
        for a in covers:
            assert lat.le(a, b) and a != b
            between = [c for c in range(lat.n) if c not in (a, b)
                       and lat.le(a, c) and lat.le(c, b)]
            assert not between
        for a in range(lat.n):
            if a != b and lat.le(a, b) and a not in covers:
                assert any(lat.le(a, c) for c in covers
                           ), f'{a} below {b} but under no cover'


def test_join_irreducibles_match_definition(corpus_lattice):
    lat = corpus_lattice
    expected = []
    for c in range(lat.n):
        strictly_below = [a for a in range(lat.n) if a != c and lat.le(a, c)]
        reducible = c == lat.bottom or any(
            lat.join(a, b) == c
            for a in strictly_below for b in strictly_below)
        if not reducible:
            expected.append(c)
    assert sorted(lat.join_irreducibles) == expected


def test_down_up_sets_and_jdown(corpus_lattice):
    lat = corpus_lattice
    for c in range(lat.n):
        assert lat.up_set(c) == tuple(
            a for a in range(lat.n) if lat.le(c, a))
        assert lat.jdown(c) == tuple(
            a for a in lat.join_irreducibles if lat.le(a, c))


def test_linear_extension_and_height(corpus_lattice):
    lat = corpus_lattice
    order = lat.linear_extension()
    assert sorted(order) == list(range(lat.n))
    pos = {c: i for i, c in enumerate(order)}
    for a in range(lat.n):
        for b in range(lat.n):
            if a != b and lat.le(a, b):
                assert pos[a] < pos[b]
    longest = {c: 0 for c in range(lat.n)}
    for c in order:
        for a in lat.covers_of(c):
            longest[c] = max(longest[c], longest[a] + 1)
    assert lat.height == max(longest.values())


def test_height_known_values():
    assert chain(1).height == 0
    assert chain(6).height == 5
    assert powerset(3).height == 3
    assert m_n(4).height == 2


def _unhinted(lat):
    'lat rebuilt from its order alone, so its class values are computed.'
    return Lattice(lat.leq, label=f'unhinted {lat.label}')


@pytest.mark.parametrize('corpus_lattice', small_corpus() + [
    _unhinted(lat) for lats in generate_all_lattices(7).values() for lat in lats] + [
    _unhinted(build('mn:3*chain:2')), _unhinted(product(n5(), chain(2)))],
    ids=lambda lat: lat.label)
def test_distributive_modular_flags(corpus_lattice):
    lat = corpus_lattice
    assert lat.is_distributive() == _distributive_scan(lat)
    assert lat.is_modular() == _modular_scan(lat)


def _distributive_scan(lat):
    return all(lat.meet(a, lat.join(b, c))
               == lat.join(lat.meet(a, b), lat.meet(a, c))
               for a in range(lat.n) for b in range(lat.n)
               for c in range(lat.n))


def _modular_scan(lat):
    return all(not lat.le(a, b)
               or lat.join(a, lat.meet(c, b)) == lat.meet(lat.join(a, c), b)
               for a in range(lat.n) for b in range(lat.n)
               for c in range(lat.n))


def test_known_flag_values():
    assert m_n(3).is_modular() and not m_n(3).is_distributive()
    pent = n5()
    assert not pent.is_modular() and not pent.is_distributive()
    mod7 = modular7()
    assert mod7.is_modular() and not mod7.is_distributive()
    assert chain(5).is_distributive()
    assert powerset(4).is_distributive()


def test_subtraction_galois_property():
    '''c <= a join b iff c - a <= b, for every a, b, c: on chains, powersets,
    products, mask-built down-set lattices, the chain fallback of
    random_distributive_lattice and the 13 distributive lattices up to n = 6.'''
    generated = [lat for lats in generate_all_lattices(6).values()
                 for lat in lats if lat.is_distributive()]
    fallback = random_distributive_lattice(7, seed=0, attempts=0)
    assert len(generated) == 13 and fallback.label == 'downsets:7'
    masked = [random_distributive_lattice(n, seed=s) for n in (5, 16, 33, 64) for s in range(2)]
    for lat in (chain(5), powerset(3), product(chain(2), chain(4)),
                product(chain(3), powerset(2)), fallback, *generated, *masked):
        r = np.arange(lat.n)
        sub = np.array([[lat.subtraction(c, a) for a in r] for c in r])
        holds = lat.leq[r[:, None, None], lat.join_table[None]]     # [c, a, b]: c <= a join b
        assert np.array_equal(holds, lat.leq[sub[:, :, None], r]), lat.label


def test_subtraction_rejects_non_distributive():
    '''Every (c, a) is refused with the lattice named, even where a least b
    exists: on mn:3, 1 - 0 would be 1.'''
    with pytest.raises(NotDistributiveError, match='mn:3'):
        m_n(3).subtraction(1, 0)
    for lat in (m_n(3), n5(), modular7()):
        for c in range(lat.n):
            for a in range(lat.n):
                with pytest.raises(NotDistributiveError, match=lat.label):
                    lat.subtraction(c, a)


def test_subtraction_table_peaks_at_the_table_plus_two_chunk_budgets():
    '''chain(2048)'s table takes 16 MiB; one unblocked extend_by_joins pass
    over all of its n x n jvals (and n x 2n w) peaks at about 64 MiB.'''
    lat = chain(2048)
    lat._join_schedule                  # the structure the derivation reads
    tracemalloc.start()
    try:
        assert lat.subtraction(5, 3) == 5 and lat.subtraction(3, 5) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * lat.n ** 2 + 2 * CHUNK_BYTES


def test_from_cover_relation_round_trip(corpus_lattice):
    lat = corpus_lattice
    buf = io.StringIO()
    write_cover_file(buf, lat, comment='round trip')
    clone = read_cover_file(io.StringIO(buf.getvalue()))
    assert clone.n == lat.n
    for a in range(lat.n):
        for b in range(lat.n):
            assert clone.le(a, b) == lat.le(a, b)


def test_from_leq_validation():
    bad = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotALatticeError):
        from_leq(bad)
    missing_reflexive = np.zeros((2, 2), dtype=bool)
    with pytest.raises(NotALatticeError):
        from_leq(missing_reflexive)
    no_meet = np.eye(2, dtype=bool)
    with pytest.raises(NotALatticeError):
        from_leq(no_meet)
    not_transitive = np.triu(np.ones((4, 4), dtype=bool))
    not_transitive[0, 2] = False        # 0 <= 1 <= 2 without 0 <= 2
    with pytest.raises(NotALatticeError, match='no least upper bound'):
        from_leq(not_transitive)
    with pytest.raises(NotALatticeError) as cycle:
        from_cover_relation(3, [(0, 1), (1, 2), (2, 0)])
    assert cycle.value.pair is not None


def test_build_spec_strings():
    assert build('chain:4').n == 4
    assert build('powerset:3').n == 8
    assert build('mn:3').n == 5
    assert build('chain:2*chain:3').n == 6
    with pytest.raises(ValueError):
        build('mystery:3')


def test_build_file_spec(tmp_path):
    path = tmp_path / 'pentagon.txt'
    with open(path, 'w') as fh:
        write_cover_file(fh, from_cover_relation(
            5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)]))
    lat = build(f'file:{path}')
    assert lat.n == 5 and not lat.is_modular()


def test_powerset_table_guard():
    big = powerset(13)
    with pytest.raises(BudgetExceededError):
        big.join_table


def test_product_order_is_componentwise():
    left, right = chain(3), powerset(2)
    prod = product(left, right)
    assert prod.n == left.n * right.n
    for a in range(prod.n):
        for b in range(prod.n):
            la, ra = divmod(a, right.n)
            lb, rb = divmod(b, right.n)
            assert prod.le(a, b) == (left.le(la, lb) and right.le(ra, rb))


def test_product_builds_its_tables_without_n_by_n_temporaries():
    '''The order and both tables are broadcast straight into their bool and
    int32 arrays, so the peak stays within what the lattice keeps plus
    1.5 * 4n^2 bytes.'''
    tracemalloc.start()
    try:
        lat = build('mn:30*mn:30')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = lat.leq.nbytes + lat.join_table.nbytes + lat.meet_table.nbytes
    assert lat.n == 1024 and kept == 9 * lat.n ** 2
    assert peak <= kept + 1.5 * 4 * lat.n ** 2, (peak, kept)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_powerset_ops_are_bitwise(m, data):
    lat = powerset(m)
    a = data.draw(st.integers(min_value=0, max_value=lat.n - 1))
    b = data.draw(st.integers(min_value=0, max_value=lat.n - 1))
    assert lat.join(a, b) == a | b
    assert lat.meet(a, b) == a & b
    assert lat.subtraction(a, b) == a & ~b
    assert lat.le(a, b) == (a | b == b)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(0, 40)] * 3).flatmap(
    lambda shape: st.tuples(arrays(bool, shape[:2]), arrays(bool, shape[1:]))),
    st.sampled_from([CHUNK_BYTES, 1]))
def test_bool_product_matches_numpy(xy, budget):
    '''The float32 block product is numpy's bool matmul, empty sides included;
    a budget of one byte puts every row in a block of its own.'''
    x, y = xy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, 'CHUNK_BYTES', budget)
        got = lattice._bool_product(x, y)
    assert got.dtype == bool and np.array_equal(got, x @ y)


def test_table_derivation_peaks_at_two_tables_plus_the_chunk_budget():
    '''At n = 1024 the tables take 8 MiB; an n^3 broadcast would need about a
    GiB, and the blocks of the vectorised test stay within CHUNK_BYTES.'''
    source = random_distributive_lattice(1024, seed=1)
    n = source.n
    tracemalloc.start()
    try:
        lat = Lattice(source.leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1024
    assert peak <= 2 * 4 * n * n + CHUNK_BYTES
    assert np.array_equal(lat.join_table, source.join_table)
    assert np.array_equal(lat.meet_table, source.meet_table)
