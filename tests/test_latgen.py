from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_order_bytes, lattice_classes_by_brute_force
from latmeet import latgen
from latmeet.errors import (AntisymmetryError, AugmentationError,
                            BudgetExceededError, SizeUnreachableError)
from latmeet.latgen import (ConjectureReport, EdgeStep, NodeStep,
                            OrderRelation, augment, canonical_key,
                            conjecture_search, free_pairs,
                            generate_all_lattices, is_lattice_relation,
                            node_steps, random_distributive_lattice,
                            random_lattice, relation_of, to_lattice,
                            transitive_closure)
from latmeet.lattice import TABLE_LIMIT, Lattice, chain, m_n, powerset

KNOWN_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def test_transitive_closure_and_cycle_detection():
    m = np.eye(3, dtype=bool)
    m[0, 1] = m[1, 2] = True
    closed = transitive_closure(OrderRelation(m))
    assert closed.matrix[0, 2]
    cyc = np.eye(2, dtype=bool)
    cyc[0, 1] = cyc[1, 0] = True
    with pytest.raises(AntisymmetryError):
        transitive_closure(OrderRelation(cyc, check=False))


def test_is_lattice_relation():
    assert is_lattice_relation(relation_of(chain(4)))
    assert is_lattice_relation(relation_of(m_n(3)))
    two_tops = np.eye(3, dtype=bool)
    two_tops[0, 1] = two_tops[0, 2] = True
    assert not is_lattice_relation(OrderRelation(two_tops))


def test_free_pairs_definition_is_self_consistent():
    for size, lats in generate_all_lattices(6).items():
        for lat in lats:
            rel = relation_of(lat)
            free = set(free_pairs(rel))
            incomparable = {(a, b)
                            for a in range(size) for b in range(size)
                            if a != b and not lat.le(a, b)
                            and not lat.le(b, a)}
            assert free <= incomparable
            for pair in incomparable:
                grew = True
                try:
                    grown = to_lattice(augment(rel, EdgeStep([pair])))
                    assert grown.n == size
                except AugmentationError:
                    grew = False
                assert grew == (pair in free)


def free_pairs_bowtie(rel):
    '''The structural characterization: (a,b) incomparable with no witness
    pair x strictly below b and y strictly above a such that x is strictly
    below y but x is not below a and b is not below y.  Unproven; compare
    against free_pairs.'''
    m = rel.matrix
    lt = m & ~np.eye(rel.n, dtype=bool)
    out = []
    for a in range(rel.n):
        for b in range(rel.n):
            if a == b or rel.le(a, b) or rel.le(b, a):
                continue
            xs = lt[:, b] & ~lt[:, a]
            ys = lt[a, :] & ~lt[b, :]
            if not (lt & np.outer(xs, ys)).any():
                out.append((a, b))
    return out


def test_bowtie_criterion_agrees_up_to_six():
    for size, lats in generate_all_lattices(6).items():
        for lat in lats:
            rel = relation_of(lat)
            assert set(free_pairs(rel)) == set(free_pairs_bowtie(rel)), \
                lat.label


def test_bowtie_criterion_over_accepts_at_seven():
    '''Recorded divergence: the pattern check admits pairs whose closure
    is not a lattice, first at size 7, on exactly two classes.'''
    offenders = []
    for lat in generate_all_lattices(7)[7]:
        rel = relation_of(lat)
        definitional = set(free_pairs(rel))
        pattern = set(free_pairs_bowtie(rel))
        assert definitional <= pattern, lat.label
        if definitional != pattern:
            offenders.append(lat)
            for pair in pattern - definitional:
                with pytest.raises(AugmentationError):
                    augment(rel, EdgeStep([pair]))
    assert len(offenders) == 2


def test_augment_edge_node_mixed():
    rel = relation_of(chain(3))
    bigger = augment(rel, NodeStep(below=0, above=2))
    lat = to_lattice(bigger)
    assert lat.n == 4
    diamond = relation_of(powerset(2))
    with pytest.raises(AugmentationError):
        augment(diamond, NodeStep(below=3, above=0))


def test_node_steps_grow_by_one():
    rel = relation_of(powerset(2))
    steps = node_steps(rel)
    assert steps
    for step in steps:
        grown = to_lattice(augment(rel, step))
        assert grown.n == 5


def test_canonical_key_is_isomorphism_invariant():
    lat = m_n(3)
    rel = relation_of(lat)
    base = canonical_key(rel)
    rng = np.random.default_rng(7)
    for _ in range(10):
        perm = rng.permutation(lat.n)
        shuffled = OrderRelation(rel.matrix[np.ix_(perm, perm)], check=False)
        assert canonical_key(shuffled) == base


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_canonical_key_invariance_property(seed, data):
    lat = random_lattice(6, seed=seed)
    rel = relation_of(lat)
    perm = data.draw(st.permutations(range(lat.n)))
    shuffled = OrderRelation(
        rel.matrix[np.ix_(list(perm), list(perm))], check=False)
    assert canonical_key(shuffled) == canonical_key(rel)


def test_canonical_key_separates_corpus():
    keys = {canonical_key(relation_of(lat))
            for lat in (chain(5), m_n(3), powerset(2), m_n(2))}
    assert len(keys) == 3  # powerset(2) and m_n(2) are the same lattice


def test_generate_all_lattices_counts():
    generated = generate_all_lattices(6)
    assert {size: len(lats) for size, lats in generated.items()} == {
        size: KNOWN_CLASS_COUNTS[size] for size in range(1, 7)}
    for size, lats in generated.items():
        for lat in lats:
            assert lat.n == size
            Lattice(np.array(
                [[lat.le(a, b) for b in range(size)] for a in range(size)]))


def test_generate_all_matches_brute_force_classes():
    for size in range(1, 6):
        assert len(generate_all_lattices(size)[size]) == \
            lattice_classes_by_brute_force(size)


def test_generated_lattices_are_pairwise_non_isomorphic():
    for size in range(1, 6):
        lats = generate_all_lattices(size)[size]
        keys = {canonical_order_bytes(
            [[lat.le(a, b) for b in range(size)] for a in range(size)])
            for lat in lats}
        assert len(keys) == len(lats)


def test_generation_cap():
    with pytest.raises(BudgetExceededError):
        generate_all_lattices(latgen.GENERATION_CAP + 1)


def test_random_lattice_is_valid_and_deterministic():
    for n in (1, 2, 5, 8, 12):
        lat = random_lattice(n, seed=42)
        again = random_lattice(n, seed=42)
        other = random_lattice(n, seed=43)
        assert lat.n == n
        assert np.array_equal(_leq_matrix(lat), _leq_matrix(again))
        if n >= 5:
            assert not np.array_equal(_leq_matrix(lat), _leq_matrix(other))
        Lattice(_leq_matrix(lat))


def test_random_distributive_lattice():
    for n in (1, 2, 4, 7, 11):
        for seed in range(4):
            lat = random_distributive_lattice(n, seed=seed)
            assert lat.n == n
            assert lat.is_distributive()
    a = random_distributive_lattice(9, seed=5)
    b = random_distributive_lattice(9, seed=5)
    assert np.array_equal(_leq_matrix(a), _leq_matrix(b))


def test_random_distributive_strict_mode_raises_when_starved():
    with pytest.raises(SizeUnreachableError):
        random_distributive_lattice(7, seed=0, strict=True, attempts=0)


@pytest.mark.parametrize('n', [2, 5, 8, 16, 33, 64])
def test_random_distributive_matches_generic_derivation(n):
    '''The mask-built tables, preset structure flags and subtraction agree
    with what the generic table-backed code derives from the same order.'''
    for seed in range(3):
        lat = random_distributive_lattice(n, seed=seed)
        generic = Lattice(lat.leq, label=lat.label)
        assert np.array_equal(lat.join_table, generic.join_table)
        assert np.array_equal(lat.meet_table, generic.meet_table)
        assert generic._scan_distributive() is None
        assert generic._scan_modular() is None
        for a in range(n):
            for c in range(n):
                candidates = np.flatnonzero(lat.leq[c, generic.join_table[a]])
                assert lat.subtraction(c, a) == generic.big_meet(candidates)


def test_downset_masks_cap_stops_early():
    '''Each point at most doubles the count, so a cut-short list holds more
    than `cap` masks but at most twice as many, not 2**20.'''
    antichain = [1 << i for i in range(20)]
    assert 64 < len(latgen._downset_masks(antichain, cap=64)) <= 128
    assert latgen._downset_masks(antichain[:5], cap=32) == list(range(32))


def test_random_poset_downsets_match_subset_filter():
    rng = random.Random(5)
    for k in range(1, 11):
        below = latgen._random_poset(k, rng)
        assert all(below[i] & ~below[j] == 0
                   for j in range(k) for i in range(k) if below[j] >> i & 1)
        closed = [s for s in range(1 << k)
                  if all(below[j] & ~s == 0 for j in range(k) if s >> j & 1)]
        assert latgen._downset_masks(below, cap=1 << k) == closed


def test_random_distributive_when_every_draw_overshoots(monkeypatch):
    '''Antichain posets on k >= bit_length(n - 1) points have 2**k > n
    down-sets for these n; at n = 1000 that reaches 2**20 without the cap.'''
    monkeypatch.setattr(latgen, '_random_poset',
                        lambda k, rng: [1 << i for i in range(k)])
    for n in (7, 1000):
        with pytest.raises(SizeUnreachableError):
            random_distributive_lattice(n, seed=0, strict=True, attempts=20)
    fallback = random_distributive_lattice(7, seed=0, attempts=20)
    assert fallback.label == 'downsets:7'
    assert np.array_equal(fallback.leq, chain(7).leq)


def test_random_distributive_refuses_oversized_n_before_sampling(monkeypatch):
    def no_sampling(k, rng):
        raise AssertionError('sampled a poset for an oversized n')

    monkeypatch.setattr(latgen, '_random_poset', no_sampling)
    n = TABLE_LIMIT + 1
    with pytest.raises(BudgetExceededError) as err:
        random_distributive_lattice(n, seed=0)
    assert str(n) in str(err.value) and str(TABLE_LIMIT) in str(err.value)


def _leq_matrix(lat):
    return np.array([[lat.le(a, b) for b in range(lat.n)]
                     for a in range(lat.n)])


# -- upper-triangular enumeration and the conjecture hunt ----------------------


def test_ut_enumeration_counts():
    got = [sum(1 for _ in latgen._ut_lattice_preds(n)) for n in range(1, 8)]
    assert got == [1, 1, 1, 2, 7, 39, 320]


def test_ut_enumeration_yields_only_lattices():
    for n in range(1, 7):
        for pred in latgen._ut_lattice_preds(n):
            leq = latgen._pred_to_leq(pred, n)
            Lattice(leq)
            assert leq[0].all() and leq[:, n - 1].all()


def test_ut_enumeration_covers_every_class():
    for n in range(1, 7):
        classes = {canonical_order_bytes(latgen._pred_to_leq(pred, n).tolist())
                   for pred in latgen._ut_lattice_preds(n)}
        assert len(classes) == KNOWN_CLASS_COUNTS[n]


def test_conjecture_search_exhausts_small_sizes():
    report = conjecture_search(6)
    assert isinstance(report, ConjectureReport)
    assert report.exhausted
    assert report.counterexample is None
    assert report.pairs_checked == 21
    again = conjecture_search(6)
    assert (again.n_max, again.pairs_checked, again.counterexample) == \
        (report.n_max, report.pairs_checked, None)


def test_conjecture_search_reports_planted_counterexample(monkeypatch):
    monkeypatch.setattr(latgen, 'count_join_endomorphisms',
                        lambda lat, budget: 7)
    report = conjecture_search(5)
    assert not report.exhausted
    before, after, added, count_before, count_after = report.counterexample
    assert count_before == count_after == 7
    assert added
    assert before.n == after.n
    for a in range(before.n):
        for b in range(before.n):
            if before.le(a, b):
                assert after.le(a, b)
    for i, j in added:
        assert after.le(i, j) and not before.le(i, j)


def test_conjecture_search_cap():
    with pytest.raises(BudgetExceededError):
        conjecture_search(latgen.CONJECTURE_CAP + 1)
