'''Acceptance gate: eleven end-to-end checks, one terminal line each.

Each test prints `acceptance NN <name>: PASS` (or FAIL) past the capture,
so the full-suite log always shows the eleven verdicts.
'''
from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager

from conftest import (brute_of, join_endos_by_definition,
                      lattice_classes_by_brute_force, route_applies)
from latmeet.counting import (construct_families, count_linear, count_mn,
                              count_non_reducing_mn, count_powerset,
                              laguerre_at_minus_one_times_factorial,
                              rook_poly_at_one)
from latmeet.endo import (Endofunction, count_join_endomorphisms,
                          enumerate_join_endomorphisms, is_join_endomorphism,
                          random_join_endomorphism)
from latmeet.glb import (brute_force_meet, dmeet_plus, gmeet, meet_algorithms,
                         verify_01_relations_preserving)
from latmeet.latgen import conjecture_search, free_pairs, generate_all_lattices
from latmeet.lattice import chain, m_n, powerset
from latmeet.morphology import (SE_CATALOG, PixelGrid, dilate,
                                meet_of_dilations)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f'acceptance {num:02d} {name}: FAIL')
        raise
    else:
        with capsys.disabled():
            print(f'acceptance {num:02d} {name}: PASS')


def test_01_mn_count_formula_vs_enumeration(capsys):
    with criterion(capsys, 1, 'mn count formula'):
        expected = {1: 6, 2: 16, 3: 50, 4: 234}
        assert expected[1] == math.comb(4, 2)
        assert expected[2] == 4 ** 2
        assert expected[4] == 25 + laguerre_at_minus_one_times_factorial(4)
        for n, value in expected.items():
            assert count_mn(n) == value
            assert count_join_endomorphisms(m_n(n)) == value


def test_02_powerset_and_chain_counts(capsys):
    with criterion(capsys, 2, 'powerset and chain counts'):
        for m, value in ((2, 16), (3, 512)):
            lat = powerset(m)
            assert count_powerset(m) == value
            assert count_join_endomorphisms(lat) == value
            assert value == lat.n ** round(math.log2(lat.n))
        for size, value in ((3, 6), (4, 20), (5, 70)):
            assert count_linear(size - 1) == value
            assert count_join_endomorphisms(chain(size)) == value
            assert value == math.comb(2 * (size - 1), size - 1)


def test_03_family_partition(capsys):
    with criterion(capsys, 3, 'four-family partition'):
        for n in (2, 3, 4):
            fams = construct_families(n)
            sizes = tuple(len(f) for f in fams)
            assert sizes == (1, n * n + n, n, rook_poly_at_one(n))
            groups = [{f.values for f in fam} for fam in fams]
            assert all(not a & b for a, b in itertools.combinations(groups, 2))
            union = set().union(*groups)
            assert union == {f.values
                             for f in enumerate_join_endomorphisms(m_n(n))}


def test_04_non_reducing_counts(capsys):
    with criterion(capsys, 4, 'non-reducing counts'):
        assert count_non_reducing_mn(2) == 7
        assert count_non_reducing_mn(3) == 34


def test_05_fold_op_counts(capsys):
    with criterion(capsys, 5, 'fold op counts 16..1024'):
        for m in range(4, 11):
            lat = powerset(m)
            fs = [random_join_endomorphism(lat, seed=500 + m * 2 + k)
                  for k in range(2)]
            start = time.perf_counter()
            result = dmeet_plus(lat, fs)
            elapsed = time.perf_counter() - start
            n = lat.n
            assert result.op_counts.get('meet', 0) == m
            assert result.op_counts.get('join', 0) == n - m - 1
            assert result.op_counts.get('subtraction', 0) == 0
            if n == 1024:
                assert elapsed < 10.0


def test_06_all_algorithms_match_brute_oracle(capsys, meet_cases):
    with criterion(capsys, 6, 'oracle equivalence on 240 random cases'):
        assert len(meet_cases) >= 200
        algorithms = meet_algorithms()
        ran = {name: 0 for name in algorithms}
        mismatches = 0
        for case in meet_cases:
            lat, fs = case['lattice'], case['fs']
            expected = brute_of(case).endofunction.values
            for name, algorithm in algorithms.items():
                if name == 'brute' or not route_applies(lat, name):
                    continue
                ran[name] += 1
                got = algorithm(lat, fs).endofunction.values
                mismatches += got != expected
        assert mismatches == 0
        assert all(ran[name] > 0 for name in algorithms if name != 'brute')


def test_07_update_invariants(capsys, meet_cases):
    with criterion(capsys, 7, 'update invariants and reduction bound'):
        for case in meet_cases:
            lat, fs = case['lattice'], case['fs']
            answer = brute_of(case).endofunction.values
            prev = [lat.top] * lat.n
            for u in range(lat.n):
                for f in fs:
                    prev[u] = lat.meet(prev[u], f.values[u])
            snapshots = []
            result = gmeet(lat, fs, on_update=snapshots.append)
            for snap in snapshots:
                strict = False
                for old, new in zip(prev, snap):
                    assert lat.le(new, old), 'update went up'
                    strict = strict or new != old
                assert strict, 'update changed nothing'
                for new, floor in zip(snap, answer):
                    assert lat.le(floor, new), 'update fell below the answer'
                prev = list(snap)
            assert result.endofunction.values == answer
            assert result.sigma_reductions <= lat.n * lat.height


def test_08_modular_cover_test_equivalence(capsys):
    with criterion(capsys, 8, 'cover-based membership test on modular lattices'):
        lats = [chain(k) for k in range(1, 6)]
        lats += [powerset(m) for m in range(0, 3)]
        lats += [m_n(k) for k in range(0, 4)]
        for size, generated in generate_all_lattices(5).items():
            lats += [lat for lat in generated if lat.is_modular()]
        assert any(not lat.is_distributive() for lat in lats)
        for lat in lats:
            assert lat.n <= 5 and lat.is_modular()
            for vals in itertools.product(range(lat.n), repeat=lat.n):
                f = Endofunction(lat, vals)
                predicted = (vals[lat.bottom] == lat.bottom
                             and verify_01_relations_preserving(lat, f))
                assert predicted == is_join_endomorphism(f), (lat.label, vals)


def test_09_generation_matches_oracle(capsys):
    with criterion(capsys, 9, 'generation vs brute-force classes'):
        generated = generate_all_lattices(6)
        counts = {size: len(lats) for size, lats in generated.items()}
        assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
        for size in range(1, 6):
            assert counts[size] == lattice_classes_by_brute_force(size)
        for size, lats in generated.items():
            for lat in lats:
                total = all(lat.le(a, b) or lat.le(b, a)
                            for a in range(size) for b in range(size))
                if not total:
                    assert free_pairs(lat.leq), lat.label


def test_10_dilation_meets_on_full_grid(capsys):
    with criterion(capsys, 10, 'dilation meets on the 2x2 grid'):
        grid = PixelGrid(2, 2)
        names = sorted(SE_CATALOG)
        for mask in range(16):
            image = grid.mask_to_image(mask)
            for a, b in itertools.product(names, repeat=2):
                se_a, se_b = SE_CATALOG[a], SE_CATALOG[b]
                via_lattice, direct = meet_of_dilations(image, [se_a, se_b])
                assert via_lattice == direct, (mask, a, b)
                assert direct == dilate(image, se_a.intersection(se_b))


def test_11_conjecture_search_reproducible(capsys):
    with criterion(capsys, 11, 'augmentation conjecture search'):
        first = conjecture_search(6)
        second = conjecture_search(6)
        assert (first.n_max, first.pairs_checked) == \
            (second.n_max, second.pairs_checked) == (6, 21)
        assert (first.counterexample is None) == \
            (second.counterexample is None)
        if first.counterexample is None:
            assert first.exhausted and second.exhausted
        else:
            before, after, added, count_before, count_after = \
                first.counterexample
            assert len(join_endos_by_definition(before)) == count_before
            assert len(join_endos_by_definition(after)) == count_after
            assert count_after <= count_before
