from __future__ import annotations

import hashlib
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_order_bytes, lattice_classes_by_brute_force
from latmeet import latgen, lattice
from latmeet.errors import (AugmentationError, BudgetExceededError,
                            NotALatticeError, SizeUnreachableError)
from latmeet.latgen import (ConjectureReport, EdgeStep, NodeStep, augment,
                            canonical_key, conjecture_search, free_pairs,
                            generate_all_lattices, is_lattice_relation,
                            node_steps, random_distributive_lattice,
                            random_lattice)
from latmeet.lattice import (TABLE_LIMIT, Lattice, _transitive_closure_matrix, chain,
                             from_cover_relation, from_leq, m_n, powerset)

KNOWN_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


class AntisymmetryError(Exception):
    'The reference closure below found a cycle.'


def transitive_closure(rel):
    'Close the bool matrix rel under composition; a cycle is an error.'
    try:
        return _transitive_closure_matrix(rel)
    except NotALatticeError as exc:
        raise AntisymmetryError(str(exc)) from None


def squaring_closure(rel):
    'Reference: close rel by repeated bool squaring, cycles included.'
    m = np.asarray(rel, dtype=bool)
    while not np.array_equal(nxt := m | (m @ m), m):
        m = nxt
    return m


def test_transitive_closure_and_cycle_detection():
    m = np.eye(3, dtype=bool)
    m[0, 1] = m[1, 2] = True
    closed = transitive_closure(m)
    assert closed[0, 2]
    cyc = np.eye(2, dtype=bool)
    cyc[0, 1] = cyc[1, 0] = True
    with pytest.raises(AntisymmetryError):
        transitive_closure(cyc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 4)),
             max_size=3 * n))))
def test_closure_pass_matches_repeated_squaring(labels_and_edges):
    '''Edges go up a random labelling, except about one in five that keeps
    its drawn direction, so some relations are cyclic: the one-pass closure
    matches repeated squaring, or names two elements on a common cycle.'''
    perm, edges = labels_and_edges
    n = len(perm)
    rel = np.eye(n, dtype=bool)
    for a, b, up in edges:
        if up:
            a, b = min(a, b), max(a, b)
        rel[perm[a], perm[b]] = True
    want = squaring_closure(rel)
    if (want & want.T & ~np.eye(n, dtype=bool)).any():
        with pytest.raises(NotALatticeError) as err:
            _transitive_closure_matrix(rel)
        a, b = err.value.pair
        assert a < b and want[a, b] and want[b, a]
        assert str(err.value) == f'order is not antisymmetric at {(a, b)}'
    else:
        assert np.array_equal(_transitive_closure_matrix(rel), want)


def test_is_lattice_relation():
    assert is_lattice_relation(chain(4).leq)
    assert is_lattice_relation(m_n(3).leq)
    two_tops = np.eye(3, dtype=bool)
    two_tops[0, 1] = two_tops[0, 2] = True
    assert not is_lattice_relation(two_tops)
    assert not is_lattice_relation(np.zeros((0, 0), dtype=bool))
    assert not is_lattice_relation(np.ones((2, 3), dtype=bool))


def test_free_pairs_definition_is_self_consistent():
    for size, lats in generate_all_lattices(6).items():
        for lat in lats:
            rel = lat.leq
            free = set(free_pairs(rel))
            incomparable = {(a, b)
                            for a in range(size) for b in range(size)
                            if a != b and not lat.le(a, b)
                            and not lat.le(b, a)}
            assert free <= incomparable
            for pair in incomparable:
                grew = True
                try:
                    grown = from_leq(augment(rel, EdgeStep([pair])))
                    assert grown.n == size
                except AugmentationError:
                    grew = False
                assert grew == (pair in free)


def free_pairs_bowtie(rel):
    '''The structural characterization: (a,b) incomparable with no witness
    pair x strictly below b and y strictly above a such that x is strictly
    below y but x is not below a and b is not below y.  Unproven; compare
    against free_pairs.'''
    n = len(rel)
    lt = rel & ~np.eye(n, dtype=bool)
    out = []
    for a in range(n):
        for b in range(n):
            if a == b or rel[a, b] or rel[b, a]:
                continue
            xs = lt[:, b] & ~lt[:, a]
            ys = lt[a, :] & ~lt[b, :]
            if not (lt & np.outer(xs, ys)).any():
                out.append((a, b))
    return out


def test_bowtie_criterion_agrees_up_to_six():
    for size, lats in generate_all_lattices(6).items():
        for lat in lats:
            rel = lat.leq
            assert set(free_pairs(rel)) == set(free_pairs_bowtie(rel)), \
                lat.label


def test_bowtie_criterion_over_accepts_at_seven():
    '''Recorded divergence: the pattern check admits pairs whose closure
    is not a lattice, first at size 7, on exactly two classes.'''
    offenders = []
    for lat in generate_all_lattices(7)[7]:
        rel = lat.leq
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
    rel = chain(3).leq
    bigger = augment(rel, NodeStep(below=0, above=2))
    lat = from_leq(bigger)
    assert lat.n == 4
    diamond = powerset(2).leq
    with pytest.raises(AugmentationError):
        augment(diamond, NodeStep(below=3, above=0))
    for step in (EdgeStep([(0, 4)]), EdgeStep([(-1, 1)]), NodeStep(0, 4)):
        with pytest.raises(AugmentationError, match='out of range'):
            augment(diamond, step)


def test_augment_refuses_a_non_transitive_relation():
    '''augment needs a transitive order.  The 4-chain without 0 <= 3 is refused
    by steps that do not add 0 <= 3; a step that does, such as 1 <= 2 (which
    brings down(1) x up(2)), closes it, and augment returns the closure.'''
    m = np.eye(4, dtype=bool)
    for a, b in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]:
        m[a, b] = True
    for step in (EdgeStep([]), EdgeStep([(0, 0)]), EdgeStep([(3, 3)])):
        with pytest.raises(AugmentationError, match='does not yield a lattice'):
            augment(m, step)
    assert augment(m, EdgeStep([(1, 2)])).tolist() == chain(4).leq.tolist()
    for a in range(4):
        for b in range(4):
            for step, matrix in ((EdgeStep([(a, b)]), _edge_matrix(m, [(a, b)])),
                                 (NodeStep(a, b), _node_matrix(m, a, b))):
                got = _augment_or_none(m, step)
                assert got is None or got == _reference_closure(matrix), step


def test_node_steps_grow_by_one():
    rel = powerset(2).leq
    steps = node_steps(rel)
    assert steps
    for step in steps:
        grown = from_leq(augment(rel, step))
        assert grown.n == 5


def test_canonical_key_is_isomorphism_invariant():
    lat = m_n(3)
    rel = lat.leq
    base = canonical_key(rel)
    rng = np.random.default_rng(7)
    for _ in range(10):
        perm = rng.permutation(lat.n)
        shuffled = rel[np.ix_(perm, perm)]
        assert canonical_key(shuffled) == base


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_canonical_key_invariance_property(seed, data):
    lat = random_lattice(6, seed=seed)
    rel = lat.leq
    perm = data.draw(st.permutations(range(lat.n)))
    shuffled = rel[np.ix_(list(perm), list(perm))]
    assert canonical_key(shuffled) == canonical_key(rel)


def test_canonical_key_separates_corpus():
    keys = {canonical_key(lat.leq)
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
        assert generic.is_distributive() and generic.is_modular()
        for a in range(n):
            for c in range(n):
                candidates = np.flatnonzero(lat.leq[c, generic.join_table[a]])
                assert lat.subtraction(c, a) == reduce(generic.meet, candidates, generic.top)


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


# -- the vectorised lattice test against the per-candidate code it replaced -----

# sha256 prefixes of leq (bool), the join and meet tables (int32, C order) and
# the label of random_lattice(n, seed), recorded with the code that built a
# Lattice per candidate pair.
RANDOM_LATTICE_DIGESTS = {
    (8, 0): ('c30bfcb6169bf42d', '28e91fa26bc86e29', '0878b43147d68095', 'b419a14dd3a2cbf2'),
    (8, 1): ('64040fbd783c2c24', '5d676c9e722e2908', 'd06874ffa332c41c', 'b419a14dd3a2cbf2'),
    (8, 2): ('e3003cdd6be7cd58', '36845ae2d041759e', 'a6d99c1d2c25cbc5', 'b419a14dd3a2cbf2'),
    (8, 3): ('f63410a7d824b48f', 'dd8bb3b7dabade61', '4f7f778b7261b71d', 'b419a14dd3a2cbf2'),
    (8, 4): ('f2f2dd6181f19889', '21077c1480b41559', '93e48f259358ba6a', 'b419a14dd3a2cbf2'),
    (8, 5): ('3d27f989f1b076f9', '6f85f89f936e7b67', '06dadcf36b8b2292', 'b419a14dd3a2cbf2'),
    (16, 0): ('43279c2415dd3cdd', 'b356bda840d0987c', '0512a612ee28f020', 'ee9d03d1110fb5c7'),
    (16, 1): ('a1d90edbbe7b67fb', '9a6448ed8333e156', '228550fcc88fbd98', 'ee9d03d1110fb5c7'),
    (16, 2): ('6a8861b8e29938d0', '6b051a7f39043bde', '6e186a59db71e67c', 'ee9d03d1110fb5c7'),
    (16, 3): ('aac1045e5d5cb157', '8c943107e6a75c5c', '307e74587c6283e0', 'ee9d03d1110fb5c7'),
    (16, 4): ('5b77002be1ec0950', '357ea1dd03549137', 'f938fef06c25b3a0', 'ee9d03d1110fb5c7'),
    (16, 5): ('ecab90d261e6bda2', '9cbcb0161041d095', '6ca7f2892ff2eda9', 'ee9d03d1110fb5c7'),
    (20, 0): ('354d2dbf123c75a1', '3c5223fc07f30292', '34b059201c3c02c2', '9364998798e44711'),
    (20, 1): ('f0de90f7af1bf7ee', '1a9b601935b4b090', 'b7b9f6135d8ff615', '9364998798e44711'),
    (20, 2): ('beec75f392b3c1b3', '657a34969b5b08f2', 'ece9b474029d2591', '9364998798e44711'),
    (20, 3): ('91675b2f918129a2', 'df1cbb142543efde', '2684acb1899fa268', '9364998798e44711'),
    (20, 4): ('82413a9a31a21796', '0643394bd8a39ce4', '9171800d1f0b1fe2', '9364998798e44711'),
    (20, 5): ('e78a3f451523b303', 'cf34c14faf93fe38', 'd4aff58fc912abe7', '9364998798e44711'),
    (24, 0): ('61c36e27be7d8709', 'aa67d38871165e09', '119725f3d97941c9', 'e143bd2f8ce590e0'),
    (24, 1): ('718e08e794d75bab', '4d9a718cca7c3575', '7fd96ac1c7fdc9c6', 'e143bd2f8ce590e0'),
    (24, 2): ('16e6b9d3d0739dc5', '73d5c06d69bf0225', 'c37a3ccd5bb38930', 'e143bd2f8ce590e0'),
    (24, 3): ('4f19734d5e4f8015', '4846487e72e85544', '9ef6037178a7fe3b', 'e143bd2f8ce590e0'),
    (24, 4): ('9d83131857e5aa9e', '0a98f9b86c9ed587', '075a808a1fabc1d1', 'e143bd2f8ce590e0'),
    (24, 5): ('3baa843e631d4fd7', '0ddbd88cbe38d3fa', '424f9a340e0ccd5f', 'e143bd2f8ce590e0'),
    (32, 0): ('c08a71baf180d7dc', 'bd958c598abb1c1f', 'dd5e081bd51d1ac8', '6957502e24321151'),
    (32, 1): ('49b7c0b7f9b030a1', 'cbcf230c4151b119', '1da3cfb19c72506d', '6957502e24321151'),
    (32, 2): ('3729ae4f2495a352', 'f4a9d193aa094a10', '884c97edc9823fb5', '6957502e24321151'),
    (32, 3): ('192330dfccaa1511', '8186fd4808187f2a', 'f8db95715f752e95', '6957502e24321151'),
    (32, 4): ('2173a32223062e20', 'af3e108465eebc43', 'db6db84fa00858c6', '6957502e24321151'),
    (32, 5): ('1502570db4297ab9', '86e3b046bd13d011', '922ef83f280b1482', '6957502e24321151'),
    (48, 0): ('a05f99ab7c974034', '3f18aa47bc7d5d6c', '2af61e243c899c32', '26d5d2935fe3d980'),
    (48, 1): ('185703f48be2bb0c', '0ddf14dc55e7bdbf', 'cf8fcf6e44d1fbac', '26d5d2935fe3d980'),
    (48, 2): ('e33975ad13c40881', '6285f6e3aef6078c', 'f3c1291735b2b51b', '26d5d2935fe3d980'),
    (48, 3): ('d8fee3acacbb0ec2', '6b61c885499bb712', '3961320d6feb7e83', '26d5d2935fe3d980'),
    (48, 4): ('38ed7ccb3845f6e6', '608ea62d29895981', 'dffb4ef51e72dfc7', '26d5d2935fe3d980'),
    (48, 5): ('a6ce03bb7ed5dc0b', '947706b9f5df3316', 'c72dd23dd983ef09', '26d5d2935fe3d980'),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _lattice_digest(lat):
    return (_sha(np.ascontiguousarray(lat.leq, bool).tobytes()),
            _sha(np.ascontiguousarray(lat.join_table, np.int32).tobytes()),
            _sha(np.ascontiguousarray(lat.meet_table, np.int32).tobytes()),
            _sha(lat.label.encode()))


@pytest.mark.parametrize('n', [8, 16, 20, 24, 32, 48])
def test_random_lattice_goldens(n):
    for seed in range(6):
        assert _lattice_digest(random_lattice(n, seed=seed)) == \
            RANDOM_LATTICE_DIGESTS[n, seed], (n, seed)


# The same digests with RANDOM_DRAW_CAP = 0, so every step below the target
# size picks among all accepted node and edge steps; recorded with the code
# that applied each step through augment.
FALLBACK_DIGESTS = {
    (8, 0): ('3283b4014da45e3e', '532631435ca061d0', '125b71bb64fb1b17', 'b419a14dd3a2cbf2'),
    (8, 1): ('7e506f32778b98b6', '90f0d1ab796d8831', 'a612760678c03b50', 'b419a14dd3a2cbf2'),
    (8, 2): ('c7de86612e15e337', '9deecf229b6c64f4', 'de846b2892c53318', 'b419a14dd3a2cbf2'),
    (16, 0): ('451af54d022af005', '156c85cd2d5958aa', '011bebe6ac8204c7', 'ee9d03d1110fb5c7'),
    (16, 1): ('21ee45f7d1bcae45', 'd413cafa508fe7d0', '7110dbaeaeccfa54', 'ee9d03d1110fb5c7'),
    (16, 2): ('717ed2af34439995', '44c599897a0e5816', '068f7693647d79f9', 'ee9d03d1110fb5c7'),
}


@pytest.mark.parametrize('n, seed', sorted(FALLBACK_DIGESTS))
def test_random_lattice_fallback_goldens(monkeypatch, n, seed):
    monkeypatch.setattr(latgen, 'RANDOM_DRAW_CAP', 0)
    assert _lattice_digest(random_lattice(n, seed=seed)) == FALLBACK_DIGESTS[n, seed]


def scalar_tables_from_leq(leq):
    '''The per-pair loop that derived join/meet tables before the vectorised
    test: lub(a, b) is the element whose up-set is up(a) & up(b).'''
    n = leq.shape[0]
    up_id = {leq[i].tobytes(): i for i in range(n)}
    geq = np.ascontiguousarray(leq.T)
    dn_id = {geq[i].tobytes(): i for i in range(n)}
    jt = np.empty((n, n), dtype=np.int32)
    mt = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        up_i, dn_i = leq[i], geq[i]
        for j in range(i, n):
            lub = up_id.get((up_i & leq[j]).tobytes())
            if lub is None:
                raise NotALatticeError(f'elements {i} and {j} have no least upper bound',
                                       pair=(i, j))
            glb = dn_id.get((dn_i & geq[j]).tobytes())
            if glb is None:
                raise NotALatticeError(f'elements {i} and {j} have no greatest lower bound',
                                       pair=(i, j))
            jt[i, j] = jt[j, i] = lub
            mt[i, j] = mt[j, i] = glb
    return jt, mt


def scalar_is_lattice_relation(m):
    'Transitive, nonempty, and the scalar loop finds every lub and glb.'
    if len(m) == 0 or ((m @ m) & ~m).any():
        return False
    try:
        scalar_tables_from_leq(m)
    except NotALatticeError:
        return False
    return True


def _reference_closure(matrix):
    '''The closure of matrix, as nested lists, or None
    if it has a cycle or the scalar check finds no lattice relation.'''
    try:
        closed = transitive_closure(matrix)
    except AntisymmetryError:
        return None
    return closed.tolist() if scalar_is_lattice_relation(closed) else None


def _augment_or_none(rel, step):
    try:
        return augment(rel, step).tolist()
    except AugmentationError:
        return None


def _edge_matrix(rel, pairs):
    m = rel.copy()
    for a, b in pairs:
        m[a, b] = True
    return m


def _node_matrix(rel, a, b):
    'A new last element x with a <= x <= b, unclosed.'
    n = len(rel)
    m = np.eye(n + 1, dtype=bool)
    m[:n, :n] = rel
    m[a, n] = m[n, b] = True
    return m


def definitional_free_pairs(rel):
    'Add each pair, close it by repeated squaring, and run the scalar check.'
    return [(a, b) for a in range(len(rel)) for b in range(len(rel))
            if a != b and not rel[a, b]
            and _reference_closure(_edge_matrix(rel, [(a, b)])) is not None]


def definitional_node_steps(rel):
    'Wedge a new element between each pair, close it, and run the scalar check.'
    return [NodeStep(a, b) for a in range(len(rel)) for b in range(len(rel))
            if a != b and _reference_closure(_node_matrix(rel, a, b)) is not None]


def test_free_pairs_and_node_steps_match_the_definition_up_to_seven():
    '''free_pairs and node_steps are the definitional loops.  augment returns
    the reference closure, or raises exactly when that is no lattice relation,
    for the edge and node step of every (a, b), a == b and b < a included,
    and for one two-pair edge step per lattice (first and last incomparable
    pair), which over the corpus both grows and fails.'''
    two_pair_outcomes = set()
    for size, lats in generate_all_lattices(7).items():
        for lat in lats:
            rel = lat.leq
            assert free_pairs(rel) == definitional_free_pairs(rel), lat.label
            assert node_steps(rel) == definitional_node_steps(rel), lat.label
            for a in range(size):
                for b in range(size):
                    for step, matrix in ((EdgeStep([(a, b)]), _edge_matrix(rel, [(a, b)])),
                                         (NodeStep(a, b), _node_matrix(rel, a, b))):
                        assert _augment_or_none(rel, step) == _reference_closure(matrix), \
                            (lat.label, step)
            incomparable = np.argwhere(~(rel | rel.T)).tolist()
            if len(incomparable) >= 2:
                pairs = [tuple(incomparable[0]), tuple(incomparable[-1])]
                want = _reference_closure(_edge_matrix(rel, pairs))
                assert _augment_or_none(rel, EdgeStep(pairs)) == want, (lat.label, pairs)
                two_pair_outcomes.add(want is None)
    assert two_pair_outcomes == {False, True}


@pytest.mark.parametrize('n, seed', [(16, 0), (16, 3), (20, 1), (24, 2), (32, 4)])
def test_free_pairs_match_the_definition_on_random_lattices(n, seed):
    rel = random_lattice(n, seed=seed).leq
    assert free_pairs(rel) == definitional_free_pairs(rel)


@st.composite
def closed_relations(draw, n=None):
    '''A transitive closure of random pairs under a random labelling, with a
    bottom and a top glued on half the time, so lattices are drawn often.'''
    n = draw(st.integers(1, 8)) if n is None else n
    m = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = draw(st.booleans())
    if draw(st.booleans()):
        m[0, :] = m[:, n - 1] = True
    perm = np.array(draw(st.permutations(range(n))))
    return transitive_closure(m[np.ix_(perm, perm)])


def _tables_or_error(derive, leq):
    try:
        jt, mt = derive(leq)
    except NotALatticeError as exc:
        return str(exc), exc.pair
    return jt.tolist(), mt.tolist()


@settings(max_examples=300, deadline=None)
@given(closed_relations(), st.sampled_from([lattice.CHUNK_BYTES, 1]))
def test_tables_match_the_scalar_loop(leq, budget):
    '''Same tables, or the same error message and pair; a budget of one byte
    puts every row in a block of its own.'''
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, 'CHUNK_BYTES', budget)
        assert (_tables_or_error(lattice._tables_from_leq, leq)
                == _tables_or_error(scalar_tables_from_leq, leq))
        assert is_lattice_relation(leq) == scalar_is_lattice_relation(leq)


def definitional_is_lattice_relation(m):
    '''Reflexive, antisymmetric and transitive, with a least common upper
    bound and a greatest common lower bound for every pair, by the definition.'''
    pts = range(len(m))
    if (len(m) == 0 or not all(m[i][i] for i in pts)
            or any(m[i][j] and m[j][i] for i in pts for j in pts if i != j)
            or any(m[i][j] and m[j][k] and not m[i][k] for i in pts for j in pts for k in pts)):
        return False

    def has_least(bounds, le):
        return any(all(le(c, d) for d in bounds) for c in bounds)
    return all(has_least([c for c in pts if m[i][c] and m[j][c]], lambda x, y: m[x][y])
               and has_least([c for c in pts if m[c][i] and m[c][j]], lambda x, y: m[y][x])
               for i in pts for j in pts)


def test_is_lattice_relation_matches_the_definition_on_four_points():
    '''All 4096 reflexive relations on 4 points, non-antisymmetric and
    non-transitive ones included; 36 are labelled lattices (24 chains and
    12 diamonds).'''
    off = np.argwhere(~np.eye(4, dtype=bool))
    kinds = {'lattice': 0, 'cyclic': 0, 'not transitive': 0}
    for bits in range(1 << len(off)):
        m = np.eye(4, dtype=bool)
        m[tuple(off[[k for k in range(len(off)) if bits >> k & 1]].T)] = True
        want = definitional_is_lattice_relation(m.tolist())
        assert is_lattice_relation(m) == want, m.astype(int).tolist()
        if want:
            kinds['lattice'] += 1
        elif (m & m.T).sum() > 4:
            kinds['cyclic'] += 1
        elif ((m @ m) & ~m).any():
            kinds['not transitive'] += 1
    assert kinds['lattice'] == 36
    assert kinds['cyclic'] and kinds['not transitive']


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(closed_relations(n), min_size=1, max_size=6)))
def test_stacked_lattice_test_matches_one_at_a_time(stack):
    got = lattice._is_lattice_stack(np.array(stack))
    assert got.tolist() == [scalar_is_lattice_relation(m) for m in stack]


def test_table_errors_name_the_first_pair_lub_before_glb():
    with pytest.raises(NotALatticeError) as err:
        from_leq(np.eye(2, dtype=bool))
    assert str(err.value) == 'lattice: elements 0 and 1 have no least upper bound'
    assert err.value.pair == (0, 1)
    with pytest.raises(NotALatticeError) as err:
        from_cover_relation(3, [(0, 2), (1, 2)])
    assert str(err.value) == 'cover-relation: elements 0 and 1 have no greatest lower bound'
    assert err.value.pair == (0, 1)


def test_is_lattice_relation_lets_internal_errors_through(monkeypatch):
    def broken(leq):
        raise TypeError('a bug, not a verdict')

    monkeypatch.setattr(latgen, '_is_lattice_stack', broken)
    with pytest.raises(TypeError):
        is_lattice_relation(chain(3).leq)
