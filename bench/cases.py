'''The benchmark's workloads, their cases, and the correctness gate.

A case is one user job run through latmeet's public API: get a lattice,
classify it, get one or more families S of join-endomorphisms, run a meet
route on each, and verify the result.  Each call into a latmeet module runs
inside a span named after the module's layer (`latgen.generate`,
`lattice.build`, `lattice.classify`, `endo.sample`, `morphology.tabulate`,
`glb.<route>`, `endo.verify`, `morphology.apply`).

Every workload is a fixed rotation of slots; case i fills slot i mod the
rotation length with inputs drawn from a generator seeded by the workload
name, the run seed and i.  A run executes whole rotations, so every run
carries the same mix of sizes and routes and only the random inputs differ.
'''
from __future__ import annotations

import random
from dataclasses import dataclass, field

from latmeet import endo, glb, latgen, lattice, morphology

from tracing import metric_route

ROUTES = {name: fn for name, fn in glb.meet_algorithms().items() if name != 'brute'}
DISTRIBUTIVE_ROUTES = ('a1', 'dmeet', 'dmeet+')
# Same cap as the CLI's --verify: brute force runs where n^|J(L)| <= ENUM_CAP.
ENUM_CAP = 10 ** 6
FAMILY_SIZE = 3
SE_NAMES = tuple(name for name in morphology.SE_CATALOG if name != 'empty')

WORKLOADS = ('dist-fresh', 'nondist-reuse', 'dilation')

# dist-fresh slots: (n, route, |S|).  64..512 are the CLI bench's powers of
# two; random posets rarely have exactly 100 down-sets, so n=100 often burns
# all 200 poset draws before the chain fallback.  A case's time varies
# tenfold with the poset draws, so about nine cases in ten are n=64: the
# median then sits inside one dense group and a run holds over a hundred
# cases.  The larger sizes come in a fixed number per rotation, spread
# through it.
_DIST_SMALL = (
    (64, 'dmeet+', 2), (64, 'gmeet+mod', 4), (64, 'dmeet', 4), (64, 'dmeet+', 4),
    (64, 'gmeet+mod', 2), (64, 'dmeet', 2), (64, 'dmeet+', 2), (64, 'gmeet+mod', 4),
)
_DIST_LARGE = (
    (100, 'dmeet+', 4), (128, 'dmeet+', 2), (64, 'a1', 2), (100, 'gmeet+mod', 2),
    (128, 'gmeet+mod', 4), (256, 'dmeet+', 4), (100, 'dmeet+', 2), (128, 'dmeet', 2),
    (512, 'gmeet+mod', 4), (100, 'gmeet+mod', 4), (128, 'dmeet', 4), (256, 'gmeet+mod', 2),
)
_DIST = tuple(slot for i in range(13)
              for slot in _DIST_SMALL + _DIST_LARGE[i:i + 1])
# nondist-reuse slots: (lattice source, number of families).  Every
# random_lattice call may take the free-pairs tail.  mn:14*chain:2 makes
# random_join_endomorphism exhaust its retry cap on every draw and fall back
# to corrective descent, at a nearly fixed cost per case.  Random lattices
# stop at n=20: from n=24 on, an occasional draw gives a lattice on which
# sampling exhausts the retry cap (up to 20 s per case), too rarely for a
# 25 s run to average out; mn:14*chain:2 measures that path in every run
# instead.  The random lattices and small products take about half of a
# rotation, so that the single long mn:14*chain:2 case does not set the
# rate alone.  mn:3*chain:2 is small enough for the brute-force oracle.
_NONDIST_MIX = tuple((source, 3) for source in (
    ('random', 16), ('build', 'mn:4*chain:3'), ('random', 20), ('random', 16),
    ('build', 'mn:3*powerset:2'), ('random', 20), ('random', 16), ('build', 'mn:3*mn:3'),
    ('random', 20), ('random', 16), ('build', 'mn:3*chain:4'), ('random', 20)))
_NONDIST = (_NONDIST_MIX * 10 + ((('build', 'mn:3*chain:2'), 3),)
            + _NONDIST_MIX * 10 + ((('build', 'mn:14*chain:2'), 2),))
# dilation slots: ((width, height), route, SEs): a tuple of catalog names,
# or a count of SEs drawn from the seed.  The general routes get fixed
# families, because their cost depends on the family tenfold: with a
# "nested" family (one member inside all others) the pointwise meet is
# already a dilation; with a "crossing" one sigma must be repaired.  The
# 4x4 cases are the majority, so the median and p75 fall inside them.
_DILATION_4X4 = (((4, 4), 'dmeet+', 2), ((4, 4), 'dmeet+', 3))
_DILATION_SMALL = (
    ((3, 4), 'dmeet+', 3), ((3, 4), 'dmeet', 2), ((3, 3), 'dmeet+', 2), ((3, 3), 'dmeet', 3),
    ((3, 3), 'gmeet', ('hline', 'vline')), ((3, 3), 'gmeet+', ('hpair', 'vpair')),
    ((3, 3), 'gmeet+', ('cross', 'square')), ((3, 3), 'gmeet+mod', ('cross', 'diag', 'hline')),
    ((2, 3), 'gmeet+', ('hpair', 'vline', 'diag')), ((2, 2), 'gmeet', ('hline', 'vpair')),
    ((3, 4), 'dmeet+', 2), ((3, 3), 'dmeet+', 3), ((2, 3), 'dmeet', 2), ((2, 3), 'dmeet+', 3),
    ((2, 2), 'dmeet', 2), ((2, 2), 'dmeet+', 2),
)
_DILATION = tuple(slot for i in range(16)
                  for slot in (_DILATION_4X4 if i < 14 else ()) + _DILATION_SMALL[i:i + 1])

ROTATIONS = {
    'dist-fresh': _DIST,
    'nondist-reuse': _NONDIST,
    'dilation': _DILATION,
}
# Tiny variants for smoke tests: same code paths, small inputs.
SMOKE_ROTATIONS = {
    'dist-fresh': ((16, 'dmeet+', 2), (16, 'gmeet+mod', 4), (16, 'dmeet', 2),
                   (16, 'a1', 2), (10, 'dmeet+', 2)),
    'nondist-reuse': ((('random', 10), 3), (('build', 'mn:3*chain:2'), 3)),
    'dilation': (((2, 2), 'dmeet+', 2), ((2, 2), 'dmeet', 3),
                 ((2, 2), 'gmeet', ('hpair', 'vpair')), ((2, 3), 'gmeet+', ('dot', 'cross')),
                 ((2, 3), 'gmeet+mod', ('hline', 'vline', 'diag'))),
}


@dataclass(frozen=True)
class Case:
    '''Inputs of one case.  `source` names the lattice: ("distributive", n),
    ("random", n), ("build", spec) or ("grid", width, height).  Each entry
    of `families` is (route or None, endomorphism seeds or SE names); a
    None route is chosen after classification.'''
    workload: str
    index: int
    source: tuple
    lattice_seed: int
    families: tuple
    image: frozenset = frozenset()


@dataclass
class Family:
    route: str
    fs: list
    result: glb.MeetResult
    verified: bool
    ses: tuple = ()


@dataclass
class Outcome:
    lattice: object
    families: list = field(default_factory=list)
    applied: object = None


def rotation(workload, smoke=False):
    return (SMOKE_ROTATIONS if smoke else ROTATIONS)[workload]


def make_case(workload, seed, index, smoke=False):
    'The inputs of case `index`; a pure function of its arguments.'
    slots = rotation(workload, smoke)
    slot = slots[index % len(slots)]
    rng = random.Random(f'{workload}:{seed}:{index}')
    if workload == 'dist-fresh':
        n, route, k = slot
        return Case(workload, index, ('distributive', n), rng.getrandbits(63),
                    ((route, _seeds(rng, k)),))
    if workload == 'nondist-reuse':
        source, families = slot
        return Case(workload, index, source, rng.getrandbits(63),
                    tuple((None, _seeds(rng, FAMILY_SIZE)) for _ in range(families)))
    if workload == 'dilation':
        (w, h), route, ses = slot
        if isinstance(ses, int):
            ses = tuple(rng.sample(SE_NAMES, ses))
        image = frozenset((x, y) for y in range(h) for x in range(w)
                          if rng.random() < 0.5)
        return Case(workload, index, ('grid', w, h), 0, ((route, ses),), image)
    raise ValueError(f'unknown workload {workload!r}')


def _seeds(rng, k):
    return tuple(rng.getrandbits(63) for _ in range(k))


def shared_inputs(workload, smoke=False):
    '''Inputs built once and shared by every case: the pixel grids of the
    dilation workload.'''
    if workload != 'dilation':
        return {}
    return {(w, h): morphology.PixelGrid(w, h)
            for (w, h), *_ in rotation(workload, smoke)}


# -- running a case ------------------------------------------------------------


def run_case(case, shared, tr):
    'Run one case under tracer `tr`; returns its Outcome.'
    kind = case.source[0]
    if kind == 'grid':
        return _dilation_case(case, shared[case.source[1:]], tr)
    if kind == 'distributive':
        with tr.span('latgen.generate'):
            lat = latgen.random_distributive_lattice(case.source[1], seed=case.lattice_seed)
        routes = [route for route, _ in case.families]
        _classify(lat, routes, tr)
    else:
        lat = _nondistributive_lattice(case, tr)
        with tr.span('lattice.classify'):
            lat.join_irreducibles
            modular = lat.is_modular()
        candidates = ('gmeet', 'gmeet+', 'gmeet+mod') if modular else ('gmeet', 'gmeet+')
        routes = [candidates[(case.index + j) % len(candidates)]
                  for j in range(len(case.families))]
    out = Outcome(lat)
    for route, (_, seeds) in zip(routes, case.families):
        fs = []
        for s in seeds:
            with tr.span('endo.sample'):
                fs.append(endo.random_join_endomorphism(lat, seed=s))
        result = _meet(lat, fs, route, tr)
        out.families.append(Family(route, fs, result, _verify(result, fs, tr)))
    return out


def _nondistributive_lattice(case, tr):
    '''The case's lattice; a random lattice that happens to be distributive
    is redrawn with the next seed, since this workload is about lattices
    the distributive routes cannot handle.'''
    kind, arg = case.source
    if kind == 'build':
        with tr.span('lattice.build'):
            lat = lattice.build(arg)
        with tr.span('lattice.classify'):
            distributive = lat.is_distributive()
        if distributive:
            raise ValueError(f'{arg} is distributive')
        return lat
    seed = case.lattice_seed
    while True:
        with tr.span('latgen.generate'):
            lat = latgen.random_lattice(arg, seed=seed)
        with tr.span('lattice.classify'):
            distributive = lat.is_distributive()
        if not distributive:
            return lat
        seed += 1


def _classify(lat, routes, tr):
    '''The precondition queries the routes need.  dmeet's first subtraction
    fills the lattice's lazy subtraction table, so the glb span of dmeet
    measures the route alone.'''
    with tr.span('lattice.classify'):
        lat.join_irreducibles
        if any(r in DISTRIBUTIVE_ROUTES for r in routes) and not lat.is_distributive():
            raise ValueError(f'{lat.label} is not distributive')
        if 'gmeet+mod' in routes and not lat.is_modular():
            raise ValueError(f'{lat.label} is not modular')
        if 'dmeet' in routes:
            lat.subtraction(lat.top, lat.bottom)


def _meet(lat, fs, route, tr):
    key = metric_route(route)
    callbacks = tr.callbacks(route)
    with tr.span(f'glb.{key}'):
        result = ROUTES[route](lat, fs, **callbacks)
    tr.count(f'glb.{key}.sigma_reductions', result.sigma_reductions)
    for op, k in result.op_counts.items():
        tr.count(f'glb.{key}.{op}', k)
    return result


def _verify(result, fs, tr):
    h = result.endofunction
    with tr.span('endo.verify'):
        return endo.is_join_endomorphism(h) and all(endo.pointwise_leq(h, f) for f in fs)


def _dilation_case(case, grid, tr):
    (route, ses), = case.families
    with tr.span('morphology.tabulate'):
        fs = [morphology.dilation_as_endofunction(grid, morphology.SE_CATALOG[s])
              for s in ses]
    _classify(grid.lattice, [route], tr)
    result = _meet(grid.lattice, fs, route, tr)
    out = Outcome(grid.lattice, [Family(route, fs, result, _verify(result, fs, tr), ses)])
    image = morphology.BinaryImage(grid.width, grid.height, case.image)
    with tr.span('morphology.apply'):
        out.applied = grid.mask_to_image(result.endofunction(grid.image_to_mask(image)))
    return out


# -- correctness gate ------------------------------------------------------------


def gate(case, out, shared):
    '''Failures of one case, as strings; empty when the case is correct.

    Every result must be a join-endomorphism below every member of S and
    equal an independent answer: on pixel grids the dilation by the
    intersected structuring element; elsewhere brute force where
    n^|J(L)| <= ENUM_CAP, else a route from another family.  Every dmeet+
    fold on a pixel-grid powerset must cost exactly m meets and n - m - 1
    joins.'''
    failures = []
    lat = out.lattice
    for fam in out.families:
        if not fam.verified:
            failures.append(f'{fam.route}: result is not a join-endomorphism '
                            'below every member of S')
        if case.source[0] == 'grid':
            expected, how = _direct_dilation(shared[case.source[1:]], fam.ses), 'direct dilation'
        else:
            expected, how = _independent(lat, fam.fs, fam.route)
        if fam.result.endofunction != expected:
            failures.append(f'{fam.route}: result differs from {how}')
        if case.source[0] == 'grid' and fam.route == 'dmeet+':
            failures += _fold_pin(lat, fam)
    if case.source[0] == 'grid':
        grid = shared[case.source[1:]]
        image = morphology.BinaryImage(grid.width, grid.height, case.image)
        common = _intersection(out.families[0].ses)
        if out.applied != morphology.dilate(image, common):
            failures.append('image: lattice path differs from the direct dilation')
    return failures


def _independent(lat, fs, route):
    if lat.n ** len(lat.join_irreducibles) <= ENUM_CAP:
        return glb.brute_force_meet(lat, fs).endofunction, 'brute'
    if lat.is_distributive():
        other = 'gmeet+mod' if route == 'dmeet+' else 'dmeet+'
    elif lat.is_modular():
        other = 'gmeet+' if route == 'gmeet+mod' else 'gmeet+mod'
    else:
        other = 'gmeet+' if route == 'gmeet' else 'gmeet'
    return ROUTES[other](lat, fs).endofunction, other


def _intersection(ses):
    common = morphology.SE_CATALOG[ses[0]]
    for s in ses[1:]:
        common = common.intersection(morphology.SE_CATALOG[s])
    return common


def _direct_dilation(grid, ses):
    return morphology.dilation_as_endofunction(grid, _intersection(ses))


def _fold_pin(lat, fam):
    folds = len(fam.fs) - 1
    m = lat.n.bit_length() - 1
    expected = {'join': folds * (lat.n - m - 1), 'meet': folds * m, 'subtraction': 0}
    if fam.result.op_counts != expected:
        return [f'dmeet+: op counts {fam.result.op_counts} != pinned {expected}']
    return []


def signature(out):
    'Op counts and sigma reductions of every meet in a case, for repeat checks.'
    return tuple((fam.route, tuple(sorted(fam.result.op_counts.items())),
                  fam.result.sigma_reductions) for fam in out.families)
