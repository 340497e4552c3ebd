from __future__ import annotations

import gc
import itertools
import random
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DIAMOND_F, DIAMOND_G, DIAMOND_POINTWISE_MEET,
                      is_join_endo_by_definition, join_endos_by_definition,
                      modular7, n5)
from latmeet.endo import (Endofunction, _join_pairs, _joins_preserved, _randrange_batch,
                          count_join_endomorphisms, enumerable,
                          enumerate_join_endomorphisms, format_endofunction,
                          is_join_endomorphism, parse_endofunction,
                          pointwise_join, pointwise_leq, pointwise_meet_many,
                          random_join_endomorphism)
from latmeet.errors import BudgetExceededError, EmptySetError, RetryExhaustedError
from latmeet.glb import ALL_PAIRS, COVER_PAIRS, _pair_count, _pair_universe, gmeet
from latmeet.latgen import random_distributive_lattice, random_lattice
from latmeet.lattice import build, chain, m_n, powerset, product


def test_endofunction_validation():
    lat = chain(3)
    f = Endofunction(lat, (0, 1, 2))
    assert f.values == (0, 1, 2)
    with pytest.raises(ValueError):
        Endofunction(lat, (0, 1))
    with pytest.raises(ValueError):
        Endofunction(lat, (0, 1, 7))


def test_is_join_endomorphism_matches_definition(corpus_lattice):
    lat = corpus_lattice
    if lat.n > 5:
        pytest.skip('n^n scan')
    for vals in itertools.product(range(lat.n), repeat=lat.n):
        f = Endofunction(lat, vals)
        assert is_join_endomorphism(f) == \
            is_join_endo_by_definition(lat, vals)


def test_pointwise_meet_counterexample_is_rejected():
    lat = powerset(2)
    assert is_join_endomorphism(Endofunction(lat, DIAMOND_F))
    assert is_join_endomorphism(Endofunction(lat, DIAMOND_G))
    assert not is_join_endomorphism(Endofunction(lat, DIAMOND_POINTWISE_MEET))


def test_enumeration_equals_definition_filter(corpus_lattice):
    lat = corpus_lattice
    if lat.n > 5:
        pytest.skip('n^n scan')
    expected = set(join_endos_by_definition(lat))
    got = {f.values for f in enumerate_join_endomorphisms(lat)}
    assert got == expected
    assert count_join_endomorphisms(lat) == len(expected)


def test_enumeration_on_larger_lattices_is_consistent():
    for lat in (chain(6), powerset(3), m_n(4), product(chain(2), chain(3))):
        fs = list(enumerate_join_endomorphisms(lat))
        assert len(fs) == count_join_endomorphisms(lat)
        assert len({f.values for f in fs}) == len(fs)
        for f in fs[:50]:
            assert is_join_endomorphism(f)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_join_endomorphisms(powerset(4), budget=10)


def test_pointwise_order_helpers():
    lat = chain(4)
    small = Endofunction(lat, (0, 0, 1, 2))
    big = Endofunction(lat, (0, 1, 2, 3))
    assert pointwise_leq(small, big)
    assert not pointwise_leq(big, small)
    joined = pointwise_join(small, big)
    assert joined.values == (0, 1, 2, 3)
    met = pointwise_meet_many([small, big])
    assert met.values == (0, 0, 1, 2)
    with pytest.raises(EmptySetError):
        pointwise_meet_many([])


def test_random_endomorphism_is_valid_and_deterministic(corpus_lattice):
    lat = corpus_lattice
    f = random_join_endomorphism(lat, seed=11)
    g = random_join_endomorphism(lat, seed=11)
    h = random_join_endomorphism(lat, seed=12)
    assert f.values == g.values
    assert is_join_endomorphism(f)
    assert is_join_endomorphism(h)


def test_random_endomorphism_covers_non_distributive():
    for seed in range(25):
        for lat in (m_n(3), n5(), modular7()):
            f = random_join_endomorphism(lat, seed=seed)
            assert is_join_endomorphism(f)


def test_format_parse_round_trip(corpus_lattice):
    lat = corpus_lattice
    f = random_join_endomorphism(lat, seed=3)
    text = format_endofunction(f)
    assert parse_endofunction(text, lat).values == f.values


def test_parse_rejects_garbage():
    lat = chain(3)
    with pytest.raises(ValueError):
        parse_endofunction('0 1', lat)
    with pytest.raises(ValueError):
        parse_endofunction('0 one 2', lat)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_random_endomorphism_property(seed):
    lat = m_n(3)
    f = random_join_endomorphism(lat, seed=seed)
    assert is_join_endomorphism(f)
    assert f.values[lat.bottom] == lat.bottom


# -- batched rejection sampling ------------------------------------------------


def scalar_draws(lat, seed, retry_cap):
    '''Reference for random_join_endomorphism: one draw at a time, each
    extended by joins over the irreducibles below and tested by the definition.  Returns
    (values, accepted); on exhaustion the values are the last draw.'''
    rng = random.Random(seed)
    jirr = lat.join_irreducibles
    vals = None
    for _ in range(max(1, retry_cap)):
        g = {j: rng.randrange(lat.n) for j in jirr}
        vals = [reduce(lat.join, [g[j] for j in jirr if lat.le(j, e)], lat.bottom)
                for e in range(lat.n)]
        if is_join_endo_by_definition(lat, vals):
            return tuple(vals), True
    return tuple(vals), False


def corrective_descent(lat, vals):
    '''Reference repair: rescan pairs u <= v lexicographically and fix the
    first violated join, lowering values until every join is preserved.'''
    vals = list(vals)
    n = lat.n
    while True:
        hit = None
        for u in range(n):
            for v in range(u, n):
                w = lat.join(u, v)
                j = lat.join(vals[u], vals[v])
                if j != vals[w]:
                    hit = (u, v, w, j)
                    break
            if hit:
                break
        if hit is None:
            return tuple(vals)
        u, v, w, j = hit
        if lat.le(j, vals[w]):
            vals[w] = j
        else:
            vals[u] = lat.meet(vals[u], vals[w])
            vals[v] = lat.meet(vals[v], vals[w])


def scalar_sample(lat, seed, retry_cap):
    vals, accepted = scalar_draws(lat, seed, retry_cap)
    return vals if accepted else corrective_descent(lat, vals)


# random_join_endomorphism(lattice, seed=s).values as returned by the
# one-draw-at-a-time sampler; the comments give the accepted draw's number.
GOLDEN_DRAWS = {
    ('random', 16, 7): {
        0: (0, 7, 12, 7, 7, 8, 7, 7, 7, 11, 7, 8, 7, 7, 7, 12),                  # 84
        1: (0, 8, 8, 8, 8, 8, 8, 8, 8, 13, 8, 8, 8, 8, 8, 8),                    # 51
        2: (0, 1, 1, 1, 1, 1, 1, 1, 1, 11, 1, 1, 1, 1, 1, 1),                    # 9
    },
    ('random', 20, 1): {
        0: (0, 1, 1, 14, 1, 14, 15, 1, 15, 14, 15, 1, 1, 14, 1, 11, 14, 19, 16, 1),  # 685
        1: (0, 1, 1, 1, 1, 1, 14, 1, 12, 1, 14, 1, 1, 1, 1, 14, 1, 1, 1, 9),      # 603
        2: (0, 1, 1, 9, 1, 9, 17, 1, 9, 1, 9, 1, 1, 1, 1, 1, 1, 1, 1, 18),        # 803
    },
    ('build', 'mn:3*mn:3'): {
        0: (0, 12, 18, 9, 24, 0, 12, 18, 9, 24, 4, 14, 19, 9, 24,
            4, 14, 19, 9, 24, 4, 14, 19, 9, 24),                                  # 67
        1: (0, 23, 10, 23, 23, 22, 24, 22, 24, 24, 16, 24, 21, 24, 24,
            13, 23, 13, 23, 23, 24, 24, 24, 24, 24),                              # 12
        2: (0, 22, 24, 1, 24, 1, 24, 24, 1, 24, 11, 24, 24, 11, 24,
            11, 24, 24, 11, 24, 11, 24, 24, 11, 24),                              # 24
    },
    ('build', 'mn:4*chain:3'): {
        0: (0, 2, 17, 16, 17, 17, 13, 14, 17, 16, 17, 17, 9, 11, 17, 16, 17, 17),  # 86
        1: (0, 16, 17, 11, 17, 17, 14, 17, 17, 8, 17, 17, 17, 17, 17, 17, 17, 17),  # 16
        2: (0, 16, 17, 17, 17, 17, 14, 17, 17, 16, 16, 17, 8, 17, 17, 17, 17, 17),  # 3
        3: (0, 0, 10, 11, 11, 11, 17, 17, 17, 8, 8, 17, 3, 3, 16, 17, 17, 17),      # 54
    },
    # Every one of the 10^4 draws fails; corrective descent repairs the last.
    ('build', 'mn:14*chain:2'): {
        0: (0, 17) * 16,
        1: (0, 25) * 16,
    },
}


def golden_lattice(source):
    return random_lattice(source[1], seed=source[2]) if source[0] == 'random' \
        else build(source[1])


@pytest.mark.parametrize('source', list(GOLDEN_DRAWS), ids=str)
def test_random_endomorphism_golden_draws(source):
    lat = golden_lattice(source)
    assert not lat.is_distributive()
    for seed, values in GOLDEN_DRAWS[source].items():
        assert random_join_endomorphism(lat, seed=seed).values == values, seed


def small_lattices():
    randoms = st.builds(random_lattice, st.integers(min_value=3, max_value=14),
                        seed=st.integers(min_value=0, max_value=10 ** 6))
    factors = st.sampled_from(['chain:2', 'chain:3', 'mn:2', 'mn:3', 'mn:4', 'powerset:2'])
    products = st.builds(lambda a, b: build(f'{a}*{b}'), factors, factors)
    return st.one_of(randoms, products)


@settings(max_examples=60, deadline=None)
@given(small_lattices(), st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=150))
def test_batched_sampler_matches_scalar_loop(lat, seed, retry_cap):
    got = random_join_endomorphism(lat, seed=seed, retry_cap=retry_cap)
    assert got.values == scalar_sample(lat, seed, retry_cap)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gmeet_repairs_any_bottom_fixed_map_like_corrective_descent(data):
    lat = data.draw(small_lattices())
    vals = data.draw(st.lists(st.integers(min_value=0, max_value=lat.n - 1),
                              min_size=lat.n, max_size=lat.n))
    vals[lat.bottom] = lat.bottom
    got = gmeet(lat, [Endofunction(lat, vals)]).endofunction
    assert got.values == corrective_descent(lat, vals)
    assert is_join_endomorphism(got)


def test_retry_exhausted_names_lattice_and_cap():
    lat = build('mn:14*chain:2')
    with pytest.raises(RetryExhaustedError,
                       match=r'product\(mn:14,chain:2\): .* in 5 draws'):
        random_join_endomorphism(lat, seed=3, retry_cap=5, repair=False)


def test_retry_cap_zero_still_draws_once():
    lat = build('mn:3*mn:3')
    first, accepted = scalar_draws(lat, 1, 1)
    assert not accepted
    f = random_join_endomorphism(lat, seed=1, retry_cap=0)
    assert f.values == corrective_descent(lat, first)
    assert f.values == (0, 4, 18, 19, 19, 0, 4, 18, 19, 19, 3, 4, 18, 19, 19,
                        3, 4, 18, 19, 19, 3, 4, 18, 19, 19)
    with pytest.raises(RetryExhaustedError, match='in 0 draws'):
        random_join_endomorphism(lat, seed=1, retry_cap=0, repair=False)
    # A first draw that passes is returned even with no retries left.
    lat = random_lattice(20, seed=0)
    first, accepted = scalar_draws(lat, 0, 1)
    assert accepted
    assert random_join_endomorphism(lat, seed=0, retry_cap=0, repair=False).values == first


def test_cap_inside_a_batch_repairs_the_cap_th_draw():
    # mn:3*mn:3 at seed 1 first accepts draw 12, inside the third batch
    # (draws 6..21).  Caps 11 and 12 cut that batch short.
    lat = build('mn:3*mn:3')
    draw11, accepted = scalar_draws(lat, 1, 11)
    assert not accepted
    repaired = random_join_endomorphism(lat, seed=1, retry_cap=11)
    assert repaired.values == corrective_descent(lat, draw11)
    assert repaired.values == (0, 0, 5, 5, 5, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
                               3, 3, 8, 8, 8, 8, 8, 8, 8, 8)
    for cap in (12, 13):
        assert random_join_endomorphism(lat, seed=1, retry_cap=cap).values \
            == GOLDEN_DRAWS[('build', 'mn:3*mn:3')][1]
    # Batches of 1, 4 and 16 rows: a cap of 7 draws cuts the third to two.
    lat = build('mn:14*chain:2')
    repaired = random_join_endomorphism(lat, seed=3, retry_cap=7)
    assert repaired.values == (0, 24) * 16 == scalar_sample(lat, 3, 7)


def test_joins_preserved_rows_match_definition():
    # The modular lattices among these take the cover-pair test.
    rng = np.random.default_rng(5)
    for lat in (n5(), modular7(), m_n(3), product(chain(2), m_n(3)),
                build('mn:4*chain:3'), build('mn:14*chain:2')):
        if enumerable(lat):
            endos = [f.values for f in itertools.islice(enumerate_join_endomorphisms(lat), 100)]
        else:
            endos = [random_join_endomorphism(lat, seed=s).values for s in range(20)]
        # Constant maps preserve joins but move bottom unless they are bottom.
        constants = np.repeat(np.arange(lat.n)[:, None], lat.n, axis=1)
        # Extensions by joins are the rows the sampler tests; a changed value
        # in an endomorphism is the near miss.
        extended = lat.extend_by_joins(
            rng.integers(0, lat.n, size=(100, len(lat.join_irreducibles))))
        near = np.array(endos)[rng.integers(0, len(endos), 100)]
        near[np.arange(100), rng.integers(0, lat.n, 100)] = rng.integers(0, lat.n, 100)
        rows = np.vstack([endos, constants, extended, near,
                          rng.integers(0, lat.n, size=(200, lat.n))])
        rows[-100:, lat.bottom] = lat.bottom
        want = [is_join_endo_by_definition(lat, tuple(r)) for r in rows]
        assert _joins_preserved(lat, rows).tolist() == want, lat.label
        assert True in want and False in want


def test_join_pairs_are_the_cover_pairs_when_modular_and_live_with_the_lattice():
    for spec, kind in (('mn:14*chain:2', COVER_PAIRS), ('n5', ALL_PAIRS)):
        lat = n5() if spec == 'n5' else build(spec)
        u, v, w = _join_pairs(lat)
        # Pairs with bottom are left to the bottom check.
        a, b = _pair_universe(lat, kind)
        keep = (a != lat.bottom) & (b != lat.bottom)
        assert (u.tolist(), v.tolist()) == (a[keep].tolist(), b[keep].tolist())
        assert len(w) < _pair_count(lat, kind)
        assert w.tolist() == [lat.join(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert _join_pairs(lat)[2] is w
        ref = weakref.ref(lat)
        del lat
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize('n', [1, 2, 3, 31, 32, 33, 1000, 4096])
def test_randrange_batch_matches_the_scalar_loop(n):
    for count in (0, 1, 7, 10 ** 4):
        for seed in (0, 1, 12345):
            batched, scalar = random.Random(seed), random.Random(seed)
            got = _randrange_batch(batched, n, count)
            assert got.tolist() == [scalar.randrange(n) for _ in range(count)]
            assert batched.getstate() == scalar.getstate()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=2 ** 64))
def test_randrange_batch_matches_the_scalar_loop_anywhere(n, count, seed):
    batched, scalar = random.Random(seed), random.Random(seed)
    assert _randrange_batch(batched, n, count).tolist() == \
        [scalar.randrange(n) for _ in range(count)]
    assert batched.getstate() == scalar.getstate()


def test_randrange_batch_refuses_what_one_word_cannot_draw():
    for n in (0, -1, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError, match=f'got n={n}'):
            _randrange_batch(random.Random(0), n, 3)


def test_is_join_endomorphism_agrees_with_joins_preserved_on_distributive_lattices():
    # The irreducible-extension test runs on every distributive lattice, not
    # only on powersets; a non-monotone chain map fails it.
    assert not is_join_endomorphism(Endofunction(chain(3), (0, 2, 1)))
    rng = np.random.default_rng(11)
    seen = set()
    for n in (1, 2, 5, 16, 33, 64):
        for seed in range(3):
            lat = random_distributive_lattice(n, seed=seed)
            endos = [random_join_endomorphism(lat, seed=10 * seed + k).array for k in range(5)]
            arbitrary = rng.integers(0, lat.n, size=(10, lat.n))
            arbitrary[:5, lat.bottom] = lat.bottom
            rows = np.vstack([endos, arbitrary])
            perturbed = rows.copy()
            perturbed[np.arange(len(rows)), rng.integers(0, lat.n, len(rows))] = \
                rng.integers(0, lat.n, len(rows))
            for row in np.vstack([rows, perturbed]):
                want = bool(_joins_preserved(lat, row[None])[0])
                assert is_join_endomorphism(Endofunction(lat, row)) == want, (lat.label, row)
                seen.add(want)
    assert seen == {True, False}
