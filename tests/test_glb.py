from __future__ import annotations

import re
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import (DIAMOND_F, DIAMOND_G, DIAMOND_GLB, M3_F, M3_G, M3_GLB,
                      M3_POINTWISE_MEET, MODULAR7_F, MODULAR7_G, MODULAR7_GLB,
                      MODULAR7_SIGMA_MISMATCHES, brute_of, modular7, n5,
                      route_applies, small_corpus)
from latmeet.endo import (Endofunction, is_join_endomorphism,
                          pointwise_leq, random_join_endomorphism)
from latmeet.errors import (BudgetExceededError, EmptySetError,
                            NotDistributiveError, NotModularError)
from latmeet.glb import (ALL_PAIRS, COVER_PAIRS, ROUTES, MeetResult, _pair_count,
                         _pair_universe, a1_naive, brute_force_meet,
                         check_precondition, dmeet, dmeet_plus, gmeet,
                         gmeet_plus, gmeet_plus_modular, meet_algorithms,
                         verify_01_relations_preserving)
from latmeet.lattice import build, chain, from_cover_relation, m_n, powerset

ALL_ALGS = ('brute', 'a1', 'dmeet', 'dmeet+', 'gmeet', 'gmeet+', 'gmeet+mod')


def _run(lat, name, fs):
    return meet_algorithms()[name](lat, fs)


def test_algorithm_registry():
    assert set(meet_algorithms()) == set(ALL_ALGS)


def test_diamond_example_all_algorithms():
    lat = powerset(2)
    fs = [Endofunction(lat, DIAMOND_F), Endofunction(lat, DIAMOND_G)]
    for name in ALL_ALGS:
        result = _run(lat, name, fs)
        assert isinstance(result, MeetResult)
        assert result.endofunction.values == DIAMOND_GLB, name
        assert is_join_endomorphism(result.endofunction)


def test_three_atom_example():
    lat = m_n(3)
    fs = [Endofunction(lat, M3_F), Endofunction(lat, M3_G)]
    assert not is_join_endomorphism(Endofunction(lat, M3_POINTWISE_MEET))
    for name in ('brute', 'gmeet', 'gmeet+', 'gmeet+mod'):
        assert _run(lat, name, fs).endofunction.values == M3_GLB, name
    for name in ('a1', 'dmeet', 'dmeet+'):
        with pytest.raises(NotDistributiveError):
            _run(lat, name, fs)


def test_seven_element_modular_example():
    lat = modular7()
    fs = [Endofunction(lat, MODULAR7_F), Endofunction(lat, MODULAR7_G)]
    sigma = tuple(lat.meet(a, b) for a, b in zip(MODULAR7_F, MODULAR7_G))
    assert sum(s != h for s, h in zip(sigma, MODULAR7_GLB)) \
        == MODULAR7_SIGMA_MISMATCHES
    for name in ('brute', 'gmeet', 'gmeet+', 'gmeet+mod'):
        result = _run(lat, name, fs)
        assert result.endofunction.values == MODULAR7_GLB, name
    assert gmeet(lat, fs).sigma_reductions == MODULAR7_SIGMA_MISMATCHES


def test_result_below_inputs_and_greatest(meet_cases):
    for case in meet_cases[:40]:
        lat, fs = case['lattice'], case['fs']
        got = brute_of(case).endofunction
        for f in fs:
            assert pointwise_leq(got, f)
        for name in ('gmeet', 'gmeet+'):
            assert _run(lat, name, fs).endofunction.values == got.values


def test_all_algorithms_match_brute_on_named_lattices():
    lats = [chain(4), powerset(2), powerset(3), m_n(2), m_n(3), m_n(4),
            n5(), modular7()]
    for lat in lats:
        for seed in range(6):
            fs = [random_join_endomorphism(lat, seed=100 * seed + k)
                  for k in range(1 + seed % 3)]
            expected = brute_force_meet(lat, fs).endofunction.values
            for name in ALL_ALGS[1:]:
                if route_applies(lat, name):
                    got = _run(lat, name, fs).endofunction.values
                    assert got == expected, (lat.label, name, seed)


def test_single_function_meet_is_identity_on_that_function():
    lat = powerset(3)
    f = random_join_endomorphism(lat, seed=5)
    for name in ALL_ALGS:
        assert _run(lat, name, [f]).endofunction.values == f.values


def test_empty_family_rejected():
    lat = chain(3)
    for name in ALL_ALGS:
        with pytest.raises(EmptySetError):
            _run(lat, name, [])


def test_gmeet_plus_modular_requires_modularity():
    lat = n5()
    f = random_join_endomorphism(lat, seed=1)
    with pytest.raises(NotModularError):
        gmeet_plus_modular(lat, [f, f])


def test_pair_budget_guard():
    lat = powerset(3)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    with pytest.raises(BudgetExceededError):
        gmeet(lat, fs, max_pairs=3)
    with pytest.raises(BudgetExceededError):
        gmeet_plus(lat, fs, max_pairs=3)


def test_gmeet_pair_guard_counts_the_pairs_it_scans():
    '''chain(4) has 6 pairs u < v, the pairs gmeet scans, so 6 runs and 5 is
    refused with gmeet+'s message.'''
    lat = chain(4)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    assert gmeet(lat, fs, max_pairs=6).endofunction == gmeet(lat, fs).endofunction
    with pytest.raises(BudgetExceededError, match=r'^gmeet: 6 pairs exceed max_pairs=5$'):
        gmeet(lat, fs, max_pairs=5)


def test_gmeet_plus_refuses_all_pairs_before_building_them():
    lat = powerset(10)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=r'^gmeet\+: 523776 pairs exceed max_pairs=1000$'):
            gmeet_plus(lat, fs, max_pairs=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_gmeet_plus_modular_refuses_cover_pairs_before_building_them():
    lat = powerset(12)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=r'^gmeet\+mod: 92160 pairs exceed max_pairs=1000$'):
            gmeet_plus_modular(lat, fs, max_pairs=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _unsorted_cover_lattices():
    'Lattices whose element indices are not a linear extension of the order.'
    n5_shuffled = from_cover_relation(5, [(4, 3), (3, 1), (1, 0), (4, 2), (2, 0)], 'n5-shuffled')
    cube_upside = from_cover_relation(
        8, [(7 - a, 7 - (a | 1 << i)) for a in range(8) for i in range(3) if not a >> i & 1],
        'powerset:3-upside')
    return [n5_shuffled, cube_upside]


def test_pair_count_matches_the_built_universe():
    for lat in small_corpus() + _unsorted_cover_lattices():
        for kind in (ALL_PAIRS, COVER_PAIRS):
            u, v = _pair_universe(lat, kind)
            pairs = set(zip(u.tolist(), v.tolist()))
            assert _pair_count(lat, kind) == len(u) == len(v) == len(pairs), (lat.label, kind)
            assert all(a < b for a, b in pairs), (lat.label, kind)


def test_cover_pair_universe_matches_the_cover_set_comprehension():
    # small_corpus holds powerset:0 and chain:1, whose universes are empty.
    for lat in small_corpus() + _unsorted_cover_lattices():
        want = [(a, b) if a < b else (b, a) for w in range(lat.n)
                for a, b in combinations(lat.covers_of(w) + (w,), 2)]
        u, v = _pair_universe(lat, COVER_PAIRS)
        assert sorted(zip(u.tolist(), v.tolist())) == sorted(want), lat.label


def test_meet_algorithms_is_a_view_of_the_route_table():
    algorithms = meet_algorithms()
    assert list(algorithms) == list(ALL_ALGS) == list(ROUTES)
    assert [algorithms[name] for name in ALL_ALGS] == [
        brute_force_meet, a1_naive, dmeet, dmeet_plus, gmeet, gmeet_plus,
        gmeet_plus_modular]
    assert all(algorithms[name] is fn for name, (fn, _) in ROUTES.items())


def test_route_table_matches_readme_needs_column():
    text = (Path(__file__).resolve().parents[1] / 'README.md').read_text(encoding='utf-8')
    table = text.split('### Meet algorithms', 1)[1].split('\n\n')[1]
    needs = {}
    for row in table.splitlines()[2:]:
        cells = [c.strip() for c in row.strip().strip('|').split('|')]
        needs[cells[0].strip('`')] = cells[1].split()[0]
    assert needs == {name: requires for name, (_, requires) in ROUTES.items()}
    assert set(needs.values()) == {'enumerable', 'distributive', 'modular', 'any'}


# A lattice outside each domain, the typed error, and its exact message
# (the enumerable space is checked against a budget of 1000).
OUTSIDE_DOMAIN = {
    'distributive': (lambda: m_n(3), NotDistributiveError,
                     '{name} requires a distributive lattice; mn:3 is not'),
    'modular': (n5, NotModularError,
                '{name} requires a modular lattice; n5 is not'),
    'enumerable': (lambda: build('mn:14*chain:2'), BudgetExceededError,
                   'product(mn:14,chain:2): n^|J| = 32^15 exceeds budget 1000'),
}


@pytest.mark.parametrize('name', ALL_ALGS)
def test_route_outside_its_domain_raises_the_typed_error(name):
    fn, requires = ROUTES[name]
    if requires == 'any':
        for lat in (m_n(3), n5(), build('mn:14*chain:2')):
            check_precondition(name, lat, budget=1000)
            identity = Endofunction(lat, range(lat.n))
            assert fn(lat, [identity]).endofunction == identity
        return
    make, error, message = OUTSIDE_DOMAIN[requires]
    lat = make()
    message = '^' + re.escape(message.format(name=name)) + '$'
    identity = Endofunction(lat, range(lat.n))
    with pytest.raises(error, match=message):
        check_precondition(name, lat, budget=1000)
    if requires == 'enumerable':
        with pytest.raises(error, match=message):
            fn(lat, [identity], budget=1000)
        return
    with pytest.raises(error, match=message):
        fn(lat, [identity])
    # The domain is checked before the family.
    with pytest.raises(error, match=message):
        fn(lat, [])


def test_dmeet_plus_fold_cost_model():
    '''One pairwise fold costs exactly one meet per join-irreducible and
    one join per remaining non-bottom element.'''
    for m in (2, 3, 4, 5, 6):
        lat = powerset(m)
        fs = [random_join_endomorphism(lat, seed=40 + k) for k in range(2)]
        result = dmeet_plus(lat, fs)
        n, j = lat.n, len(lat.join_irreducibles)
        assert result.op_counts.get('meet', 0) == j
        assert result.op_counts.get('join', 0) == n - j - 1
        assert result.op_counts.get('subtraction', 0) == 0


def test_dmeet_plus_on_chain_costs_no_joins():
    lat = chain(6)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    result = dmeet_plus(lat, fs)
    assert result.op_counts.get('meet', 0) == 5
    assert result.op_counts.get('join', 0) == 0


def test_fold_costs_scale_with_family_size():
    lat = powerset(3)
    fs = [random_join_endomorphism(lat, seed=60 + k) for k in range(4)]
    result = dmeet_plus(lat, fs)
    n, j = lat.n, len(lat.join_irreducibles)
    assert result.op_counts['meet'] == 3 * j
    assert result.op_counts['join'] == 3 * (n - j - 1)


def test_gmeet_updates_decrease_and_stay_above_answer(meet_cases):
    for case in meet_cases[:60]:
        lat, fs = case['lattice'], case['fs']
        answer = brute_of(case).endofunction.values
        trace = []
        result = gmeet(lat, fs, on_update=trace.append)
        prev = tuple(_big_meet(lat, fs, u) for u in range(lat.n))
        for snapshot in trace:
            assert snapshot != prev
            for old, new in zip(prev, snapshot):
                assert lat.le(new, old)
            for new, floor in zip(snapshot, answer):
                assert lat.le(floor, new)
            prev = snapshot
        assert result.endofunction.values == answer
        assert result.sigma_reductions <= lat.n * lat.height


def _big_meet(lat, fs, u):
    acc = lat.top
    for f in fs:
        acc = lat.meet(acc, f.values[u])
    return acc


def test_gmeet_plus_bucket_invariants(meet_cases):
    for case in meet_cases[:40]:
        lat, fs = case['lattice'], case['fs']
        routes = (gmeet_plus, gmeet_plus_modular) if lat.is_modular() else (gmeet_plus,)
        for route in routes:
            events = []

            def watch(state, event):
                state.check_invariants()
                events.append(event)

            result = route(lat, fs, on_event=watch)
            assert result.endofunction.values == brute_of(case).endofunction.values
            assert set(events) <= {'reduce', 'move'}
            assert events.count('reduce') == result.sigma_reductions


def test_gmeet_plus_cover_pairs_on_modular():
    for lat in (m_n(3), m_n(4), modular7(), chain(5), powerset(3)):
        for seed in range(4):
            fs = [random_join_endomorphism(lat, seed=200 + seed + k)
                  for k in range(2)]
            full = gmeet_plus(lat, fs).endofunction.values
            restricted = gmeet_plus_modular(lat, fs)
            assert restricted.endofunction.values == full
            assert restricted.algorithm == 'gmeet+mod'


def test_cover_pair_universe_is_smaller():
    lat = m_n(4)
    fs = [random_join_endomorphism(lat, seed=k) for k in range(2)]
    full = gmeet_plus(lat, fs, pair_universe=ALL_PAIRS)
    restricted = gmeet_plus(lat, fs, pair_universe=COVER_PAIRS)
    assert restricted.endofunction.values == full.endofunction.values


def test_verify_01_relations_on_known_maps():
    lat = m_n(3)
    good = Endofunction(lat, M3_F)
    assert verify_01_relations_preserving(lat, good)
    bad = Endofunction(lat, M3_POINTWISE_MEET)
    assert not verify_01_relations_preserving(lat, bad)
    # On N5 this map fixes bottom and preserves the joins within every cover
    # set, but f(1 join 2) = 4 while f(1) join f(2) = 3.
    lat = n5()
    assert not verify_01_relations_preserving(lat, Endofunction(lat, (0, 3, 3, 4, 4)))


def test_a1_and_dmeet_agree_with_dmeet_plus(meet_cases):
    for case in meet_cases:
        lat, fs = case['lattice'], case['fs']
        if not lat.is_distributive():
            continue
        base = dmeet_plus(lat, fs).endofunction.values
        assert dmeet(lat, fs).endofunction.values == base
        assert a1_naive(lat, fs).endofunction.values == base


def test_op_counts_only_contain_lattice_ops(meet_cases):
    for case, name in product(meet_cases[:2], ALL_ALGS):
        if route_applies(case['lattice'], name):
            result = _run(case['lattice'], name, case['fs'])
            assert set(result.op_counts) <= {'join', 'meet', 'subtraction'}
            assert list(result.op_counts) == ['join', 'meet', 'subtraction']
            assert all(type(v) is int for v in result.op_counts.values())
            assert all(v >= 0 for v in result.op_counts.values())
            assert result.total_ops == sum(result.op_counts.values())
