'''Golden GMeet+ runs: results, op counts, sigma reductions and the full
on_event stream of gmeet+ and gmeet+mod on a fixed set of cases.

The pinned records were produced by the bucket-list implementation that
preceded the join-ordered pair ids (the 3x3 grids by the tuple-list
implementation that preceded the array bookkeeping), so any change to the
pop order, the op count or the moment a sigma reduction fires shows up
here.  The event digest hashes each event kind together with the sigma
after it.  On the 3x3 grids (512 elements, tens of thousands of events) it
hashes sigma after each reduce event only: a move never changes sigma, so
that pins the same stream at a fraction of the hashing.
'''
from __future__ import annotations

import hashlib

import pytest

from conftest import n5
from latmeet.endo import random_join_endomorphism
from latmeet.glb import gmeet_plus, gmeet_plus_modular
from latmeet.latgen import random_distributive_lattice, random_lattice
from latmeet.lattice import build, chain, product
from latmeet.morphology import SE_CATALOG, PixelGrid, dilation_as_endofunction


def _family(lat, seeds):
    return lat, [random_join_endomorphism(lat, seed=s) for s in seeds]


def _dilations(width, height, names):
    grid = PixelGrid(width, height)
    return grid.lattice, [dilation_as_endofunction(grid, SE_CATALOG[name]) for name in names]


# Products, random lattices, random distributive lattices and a crossing
# dilation family (sigma must be repaired); gmeet+mod is pinned where modular.
CASES = {
    'mn:3*chain:3': lambda: _family(build('mn:3*chain:3'), (4, 5)),
    'mn:3*mn:3': lambda: _family(build('mn:3*mn:3'), (3, 4, 5)),
    'n5*chain:2': lambda: _family(product(n5(), chain(2)), (7, 8, 9)),
    'random:10/3': lambda: _family(random_lattice(10, seed=3), (13, 14)),
    'random:14/5': lambda: _family(random_lattice(14, seed=5), (13, 14)),
    'random:16/2': lambda: _family(random_lattice(16, seed=2), (7, 8, 9)),
    'downsets:20/4': lambda: _family(random_distributive_lattice(20, seed=4), (25, 26, 27)),
    'downsets:32/9': lambda: _family(random_distributive_lattice(32, seed=9), (17, 18, 19)),
    'grid:2x3/hpair,vpair': lambda: _dilations(2, 3, ('hpair', 'vpair')),
    'grid:2x3/hpair,vline,diag': lambda: _dilations(2, 3, ('hpair', 'vline', 'diag')),
    'grid:3x3/hpair,vpair': lambda: _dilations(3, 3, ('hpair', 'vpair')),
    'grid:3x3/cross,diag,hline': lambda: _dilations(3, 3, ('cross', 'diag', 'hline')),
}
# Cases whose digest hashes sigma after reduce events only.
REDUCE_DIGEST = {'grid:3x3/hpair,vpair', 'grid:3x3/cross,diag,hline'}


def record(case, route):
    'The pinned fields of one run.'
    lat, fs = CASES[case]()
    fn = gmeet_plus if route == 'gmeet+' else gmeet_plus_modular
    digest = hashlib.sha256()
    kinds = []
    moves_too = case not in REDUCE_DIGEST

    def watch(state, event):
        kinds.append(event)
        if moves_too or event == 'reduce':
            digest.update(f'{event}:{",".join(map(str, state.sigma))}\n'.encode())
        else:
            digest.update(b'move\n')

    result = fn(lat, fs, on_event=watch)
    return {
        'values': result.endofunction.values,
        'op_counts': dict(sorted(result.op_counts.items())),
        'sigma_reductions': result.sigma_reductions,
        'events': (kinds.count('reduce'), kinds.count('move')),
        'digest': digest.hexdigest()[:16],
    }


GOLDEN = {
    ('mn:3*chain:3', 'gmeet+'): dict(
        values=(0, 0, 7, 1, 1, 7, 1, 1, 7, 0, 0, 7, 1, 1, 7),
        op_counts={'join': 327, 'meet': 108, 'subtraction': 0},
        sigma_reductions=6, events=(6, 75), digest='bae9272ff2c6c767'),
    ('mn:3*chain:3', 'gmeet+mod'): dict(
        values=(0, 0, 7, 1, 1, 7, 1, 1, 7, 0, 0, 7, 1, 1, 7),
        op_counts={'join': 150, 'meet': 62, 'subtraction': 0},
        sigma_reductions=6, events=(6, 26), digest='ebc67ede089370ba'),
    ('mn:3*mn:3', 'gmeet+'): dict(
        values=(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0),
        op_counts={'join': 1048, 'meet': 295, 'subtraction': 0},
        sigma_reductions=17, events=(17, 270), digest='5c9e975880d6393a'),
    ('mn:3*mn:3', 'gmeet+mod'): dict(
        values=(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0),
        op_counts={'join': 440, 'meet': 181, 'subtraction': 0},
        sigma_reductions=17, events=(17, 98), digest='91d7ffe8ecd770d8'),
    ('n5*chain:2', 'gmeet+'): dict(
        values=(0, 1, 2, 3, 0, 1, 0, 1, 2, 3),
        op_counts={'join': 159, 'meet': 88, 'subtraction': 0},
        sigma_reductions=6, events=(6, 40), digest='fe88736134b29666'),
    ('random:10/3', 'gmeet+'): dict(
        values=(0, 8, 8, 4, 8, 4, 8, 8, 8, 8),
        op_counts={'join': 132, 'meet': 88, 'subtraction': 0},
        sigma_reductions=5, events=(5, 36), digest='2352b6a7da9b958f'),
    ('random:14/5', 'gmeet+'): dict(
        values=(0, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 0),
        op_counts={'join': 290, 'meet': 202, 'subtraction': 0},
        sigma_reductions=11, events=(11, 88), digest='9dc1407e71116528'),
    ('random:16/2', 'gmeet+'): dict(
        values=(0, 5, 5, 11, 11, 5, 5, 5, 6, 5, 5, 5, 5, 5, 5, 9),
        op_counts={'join': 492, 'meet': 474, 'subtraction': 0},
        sigma_reductions=21, events=(21, 215), digest='abfbb8dae670e5f6'),
    ('downsets:20/4', 'gmeet+'): dict(
        values=(0, 6, 6, 6, 6, 6, 12, 12, 13, 13, 15, 15, 15, 15, 15, 15, 15, 15, 15,
                15),
        op_counts={'join': 489, 'meet': 162, 'subtraction': 0},
        sigma_reductions=5, events=(5, 60), digest='41877261fa7ad8d4'),
    ('downsets:20/4', 'gmeet+mod'): dict(
        values=(0, 6, 6, 6, 6, 6, 12, 12, 13, 13, 15, 15, 15, 15, 15, 15, 15, 15, 15,
                15),
        op_counts={'join': 107, 'meet': 82, 'subtraction': 0},
        sigma_reductions=5, events=(5, 13), digest='97aefb7fe041b6a8'),
    ('downsets:32/9', 'gmeet+'): dict(
        values=(0, 2, 3, 3, 4, 6, 7, 7, 16, 18, 19, 19, 20, 22, 23, 23, 2, 2, 3, 3, 6,
                6, 7, 7, 18, 18, 19, 19, 22, 22, 23, 23),
        op_counts={'join': 1815, 'meet': 450, 'subtraction': 0},
        sigma_reductions=19, events=(19, 426), digest='6943904ce27c8f65'),
    ('downsets:32/9', 'gmeet+mod'): dict(
        values=(0, 2, 3, 3, 4, 6, 7, 7, 16, 18, 19, 19, 20, 22, 23, 23, 2, 2, 3, 3, 6,
                6, 7, 7, 18, 18, 19, 19, 22, 22, 23, 23),
        op_counts={'join': 573, 'meet': 214, 'subtraction': 0},
        sigma_reductions=19, events=(19, 109), digest='cbdd8267386a1439'),
    ('grid:2x3/hpair,vpair', 'gmeet+'): dict(
        values=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
                38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
                56, 57, 58, 59, 60, 61, 62, 63),
        op_counts={'join': 5392, 'meet': 528, 'subtraction': 0},
        sigma_reductions=16, events=(16, 552), digest='679972a3617a82db'),
    ('grid:2x3/hpair,vpair', 'gmeet+mod'): dict(
        values=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
                38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
                56, 57, 58, 59, 60, 61, 62, 63),
        op_counts={'join': 1162, 'meet': 240, 'subtraction': 0},
        sigma_reductions=16, events=(16, 116), digest='76ec42870342e07e'),
    ('grid:2x3/hpair,vline,diag', 'gmeet+'): dict(
        values=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
                38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
                56, 57, 58, 59, 60, 61, 62, 63),
        op_counts={'join': 4969, 'meet': 508, 'subtraction': 0},
        sigma_reductions=10, events=(10, 471), digest='840d438ffe648e13'),
    ('grid:2x3/hpair,vline,diag', 'gmeet+mod'): dict(
        values=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
                38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
                56, 57, 58, 59, 60, 61, 62, 63),
        op_counts={'join': 1058, 'meet': 270, 'subtraction': 0},
        sigma_reductions=10, events=(10, 88), digest='b9d75ee1344bcb18'),
    ('grid:3x3/hpair,vpair', 'gmeet+'): dict(
        values=tuple(range(512)),
        op_counts={'join': 426284, 'meet': 21728, 'subtraction': 0},
        sigma_reductions=232, events=(232, 67332), digest='8e27ae5673b62750'),
    ('grid:3x3/cross,diag,hline', 'gmeet+mod'): dict(
        values=tuple(range(512)),
        op_counts={'join': 23547, 'meet': 4152, 'subtraction': 0},
        sigma_reductions=268, events=(268, 3791), digest='d9dafb2f188bab80'),
}


@pytest.mark.parametrize('case, route', sorted(GOLDEN), ids=lambda x: x)
def test_gmeet_plus_golden(case, route):
    assert record(case, route) == GOLDEN[case, route]
