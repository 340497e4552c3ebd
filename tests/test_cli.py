from __future__ import annotations

import hashlib

import pytest

from conftest import M3_F, M3_G, N5_COVERS
from latmeet.cli import BENCH_COLUMNS, BENCH_HEADER, derive_seed, main
from latmeet.lattice import read_cover_file


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strip_wall(text):
    'Bench CSV lines with the wall_time_s column blanked.'
    rows = []
    for ln in text.splitlines():
        cols = ln.split(',')
        if len(cols) == 10 and not ln.startswith('#'):
            cols[8] = ''
        rows.append(','.join(cols))
    return rows


def test_derive_seed_is_pinned():
    assert derive_seed(0, 'a') == 11381658363930578919
    assert derive_seed(0, 'powerset', 16, 0) == 3123714591956787034
    assert derive_seed(0, 'a') != derive_seed(1, 'a')


def test_meet_random_with_verification(capsys):
    rc, out, err = run(capsys, 'meet', '--lattice', 'powerset:2',
                       '--random', '2', '--alg', 'gmeet+', '--verify')
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines[0].split()) == 4
    assert lines[1].startswith('# ops: join=')
    assert 'algorithm=gmeet+' in lines[1]
    assert lines[2] == 'VERIFIED'


def test_meet_all_algorithms_agree_via_cli(capsys):
    results = {}
    for alg in ('brute', 'a1', 'dmeet', 'dmeet+', 'gmeet', 'gmeet+',
                'gmeet+mod'):
        rc, out, _ = run(capsys, 'meet', '--lattice', 'powerset:3',
                         '--random', '3', '--alg', alg)
        assert rc == 0
        results[alg] = out.splitlines()[0]
    assert len(set(results.values())) == 1


MEET_ROW = '0 8 0 8 0 8 0 8 4 12 4 12 4 12 4 12\n'
MN_ROW = '0 0 0 0 0 0 0 0 0 0\n'


@pytest.mark.parametrize('lattice, k, alg, expected', [
    ('chain:2*powerset:3', 3, 'brute', MEET_ROW + '# ops: join=64 meet=0 subtraction=0 '
     'sigma_reductions=0 algorithm=brute\n'),
    ('chain:2*powerset:3', 3, 'a1', MEET_ROW + '# ops: join=12994 meet=4802 subtraction=0 '
     'sigma_reductions=0 algorithm=a1\n'),
    ('chain:2*powerset:3', 3, 'dmeet', MEET_ROW + '# ops: join=162 meet=162 subtraction=162 '
     'sigma_reductions=0 algorithm=dmeet\n'),
    ('chain:2*powerset:3', 3, 'dmeet+', MEET_ROW + '# ops: join=22 meet=8 subtraction=0 '
     'sigma_reductions=0 algorithm=dmeet+\n'),
    ('chain:2*powerset:3', 3, 'gmeet', MEET_ROW + '# ops: join=1028 meet=48 subtraction=0 '
     'sigma_reductions=13 algorithm=gmeet\n'),
    ('chain:2*powerset:3', 3, 'gmeet+', MEET_ROW + '# ops: join=423 meet=164 subtraction=0 '
     'sigma_reductions=10 algorithm=gmeet+\n'),
    ('chain:2*powerset:3', 3, 'gmeet+mod', MEET_ROW + '# ops: join=199 meet=100 subtraction=0 '
     'sigma_reductions=10 algorithm=gmeet+mod\n'),
    ('mn:3*chain:2', 2, 'brute', MN_ROW + '# ops: join=10 meet=0 subtraction=0 '
     'sigma_reductions=0 algorithm=brute\n'),
    ('mn:3*chain:2', 2, 'gmeet', MN_ROW + '# ops: join=306 meet=22 subtraction=0 '
     'sigma_reductions=7 algorithm=gmeet\n'),
    ('mn:3*chain:2', 2, 'gmeet+', MN_ROW + '# ops: join=145 meet=70 subtraction=0 '
     'sigma_reductions=6 algorithm=gmeet+\n'),
    ('mn:3*chain:2', 2, 'gmeet+mod', MN_ROW + '# ops: join=94 meet=52 subtraction=0 '
     'sigma_reductions=6 algorithm=gmeet+mod\n'),
], ids=lambda v: v if isinstance(v, str) and '\n' not in v else '')
def test_meet_stdout_and_op_counts_are_pinned(capsys, lattice, k, alg, expected):
    'Each route\'s values and its op-count line, in the paper\'s cost model.'
    assert run(capsys, 'meet', '--lattice', lattice, '--random', str(k), '--seed', '0',
               '--alg', alg) == (0, expected, '')


def test_meet_from_endo_files(capsys, tmp_path):
    fa = tmp_path / 'f.txt'
    fb = tmp_path / 'g.txt'
    fa.write_text(' '.join(map(str, M3_F)) + '\n')
    fb.write_text(' '.join(map(str, M3_G)) + '  # second map\n')
    rc, out, _ = run(capsys, 'meet', '--lattice', 'mn:3',
                     '--endo', str(fa), '--endo', str(fb),
                     '--alg', 'gmeet+mod', '--verify')
    assert rc == 0
    assert out.splitlines()[0] == '0 0 0 0 0'
    assert out.strip().endswith('VERIFIED')


def test_meet_rejects_bad_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, 'meet', '--lattice', 'chain:3')
    assert rc == 1 and 'error:' in err
    rc, _, err = run(capsys, 'meet', '--lattice', 'bogus:3', '--random', '1')
    assert rc == 1 and 'error:' in err
    bad = tmp_path / 'bad.txt'
    bad.write_text('0 2 1\n')
    rc, _, err = run(capsys, 'meet', '--lattice', 'chain:3',
                     '--endo', str(bad))
    assert rc == 1 and 'not a join-endomorphism' in err
    rc, _, err = run(capsys, 'meet', '--lattice', 'mn:3', '--random', '2',
                     '--alg', 'dmeet')
    assert rc == 1 and 'error:' in err


def test_bench_csv_schema_and_known_counts(capsys):
    rc, out, err = run(capsys, 'bench', '--families', 'powerset,chain',
                       '--sizes', '16', '--algs', 'dmeet+,gmeet+')
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert lines[1] == BENCH_COLUMNS
    rows = [dict(zip(BENCH_COLUMNS.split(','), ln.split(',')))
            for ln in lines[2:]]
    assert len(rows) == 4
    by_key = {(r['lattice'], r['algorithm']): r for r in rows}
    dmeet_pow = by_key[('powerset:4', 'dmeet+')]
    assert (dmeet_pow['meet'], dmeet_pow['join']) == ('4', '11')
    dmeet_chain = by_key[('chain:16', 'dmeet+')]
    assert (dmeet_chain['meet'], dmeet_chain['join']) == ('15', '0')
    for r in rows:
        assert r['n'] == '16' and r['m'] == '2'
        assert float(r['wall_time_s']) >= 0


def test_bench_is_deterministic_apart_from_wall_time(capsys, tmp_path):
    argv = ['bench', '--families', 'random,random-distributive',
            '--sizes', '6,8', '--algs', 'gmeet+,brute', '--runs', '2',
            '--seed', '9']
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert strip_wall(out1) == strip_wall(out2)
    out_file = tmp_path / 'bench.csv'
    rc3, out3, _ = run(capsys, *argv, '--out', str(out_file))
    assert rc3 == 0 and out3 == ''
    assert strip_wall(out_file.read_text()) == strip_wall(out1)


def test_bench_skips_inapplicable_algorithms(capsys):
    rc, out, err = run(capsys, 'bench', '--families', 'mn', '--sizes', '5',
                       '--algs', 'dmeet+')
    assert rc == 0
    assert out.strip().splitlines() == [BENCH_HEADER, BENCH_COLUMNS]
    assert 'skipped' in err
    rc, _, err = run(capsys, 'bench', '--algs', 'quantum')
    assert rc == 1 and 'unknown algorithms' in err


def test_count_rows(capsys):
    rc, out, _ = run(capsys, 'count', 'mn', '--n', '3')
    assert rc == 0 and out.strip() == 'M_3,5,50,50,1,12,3,34'
    rc, out, _ = run(capsys, 'count', 'mn', '--n', '2')
    assert rc == 0 and out.strip() == 'M_2,4,16,16,1,6,2,7'
    rc, out, _ = run(capsys, 'count', 'powerset', '--m', '3')
    assert rc == 0 and out.strip() == 'powerset:3,8,512,512,,,,'
    rc, out, _ = run(capsys, 'count', 'linear', '--n', '4')
    assert rc == 0 and out.strip() == 'chain:4,4,20,20,,,,'


def test_count_bounds(capsys):
    rc, out, _ = run(capsys, 'count', 'bounds', '--max-n', '4')
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith('#') and lines[1].startswith('lattice,')
    assert len(lines) == 2 + 1 + 1 + 1 + 2
    for ln in lines[2:]:
        cols = ln.split(',')
        assert cols[6] == 'True' and cols[7] == 'True'


def test_latgen_all_writes_cover_files(capsys, tmp_path):
    out_dir = tmp_path / 'lats'
    rc, out, _ = run(capsys, 'latgen', 'all', '--max-n', '4',
                     '--out', str(out_dir))
    assert rc == 0
    counts = (out_dir / 'counts.csv').read_text().strip().splitlines()
    assert counts == ['size,count', '1,1', '2,1', '3,1', '4,2']
    files = sorted(p.name for p in out_dir.glob('lattice_*.txt'))
    assert files == ['lattice_1_0.txt', 'lattice_2_0.txt',
                     'lattice_3_0.txt', 'lattice_4_0.txt', 'lattice_4_1.txt']
    for name in files:
        with open(out_dir / name) as fh:
            lat = read_cover_file(fh)
        assert lat.n == int(name.split('_')[1])


# sha256 of the `sha256sum`-style manifest (file digest, two spaces, name,
# by name) of the 79 files of `latgen all --max-n 7`: counts.csv and the
# numbered representative of every class, recorded with the code that wrapped
# each order in a relation object.
LATGEN_ALL_7_MANIFEST = 'bf60439071c458190a4e2456cd546ab12ec0292bc45fed00c8b01aeeaddb141b'


def test_latgen_all_files_are_pinned(capsys, tmp_path):
    rc, _, _ = run(capsys, 'latgen', 'all', '--max-n', '7', '--out', str(tmp_path))
    assert rc == 0
    files = sorted(tmp_path.iterdir())
    manifest = ''.join(f'{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n'
                       for p in files)
    assert len(files) == 79
    assert hashlib.sha256(manifest.encode()).hexdigest() == LATGEN_ALL_7_MANIFEST


def test_latgen_all_stdout(capsys):
    rc, out, _ = run(capsys, 'latgen', 'all', '--max-n', '3')
    assert rc == 0
    assert out.strip().splitlines() == ['size,count', '1,1', '2,1', '3,1']


DOWNSETS_12_SEED_3 = """\
# downsets:12
12
0 1
0 3
0 6
1 2
1 4
1 7
2 5
2 8
3 4
3 9
4 5
4 10
5 11
6 7
6 9
7 8
7 10
8 11
9 10
10 11
"""


def test_latgen_random_distributive_output_is_pinned(capsys):
    rc, out, _ = run(capsys, 'latgen', 'random', '--distributive',
                     '--n', '12', '--seed', '3')
    assert rc == 0
    assert out == DOWNSETS_12_SEED_3


def test_latgen_random_round_trips(capsys, tmp_path):
    rc, out, _ = run(capsys, 'latgen', 'random', '--n', '7', '--seed', '4')
    assert rc == 0
    path = tmp_path / 'lat.txt'
    path.write_text(out)
    with open(path) as fh:
        lat = read_cover_file(fh)
    assert lat.n == 7
    rc2, out2, _ = run(capsys, 'latgen', 'random', '--n', '7', '--seed', '4')
    assert out2 == out
    rc3, out3, _ = run(capsys, 'latgen', 'random', '--n', '7', '--seed', '4',
                       '--distributive')
    path.write_text(out3)
    with open(path) as fh:
        dlat = read_cover_file(fh)
    assert dlat.n == 7 and dlat.is_distributive()


def test_latgen_conjecture_reports_exhaustion(capsys):
    rc, out, _ = run(capsys, 'latgen', 'conjecture', '--max-n', '5')
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'augmentation pairs checked: 3 (sizes up to 5)'
    assert lines[1].startswith('no counterexample')


def test_morph_meet_agrees_and_writes_pbm(capsys, tmp_path):
    out_dir = tmp_path / 'imgs'
    rc, out, _ = run(capsys, 'morph', 'meet', '--grid', '2x2',
                     '--se', 'cross', '--se', 'hline', '--out', str(out_dir))
    assert rc == 0
    assert out.strip().endswith('paths agree')
    from latmeet.morphology import read_pbm
    with open(out_dir / 'lattice_path.pbm') as fh:
        a = read_pbm(fh)
    with open(out_dir / 'direct.pbm') as fh:
        b = read_pbm(fh)
    assert a.on_pixels == b.on_pixels


def test_morph_meet_rejects_mismatched_grid(capsys, tmp_path):
    img = tmp_path / 'img.txt'
    img.write_text('#..\n...\n')
    rc, _, err = run(capsys, 'morph', 'meet', '--grid', '2x2', '--se', 'dot',
                     '--image', str(img))
    assert rc == 1 and 'error:' in err


def test_morph_dilate(capsys, tmp_path):
    img = tmp_path / 'img.txt'
    img.write_text('#.\n..\n')
    rc, out, _ = run(capsys, 'morph', 'dilate', '--se', 'hpair',
                     '--image', str(img))
    assert rc == 0
    assert out.strip() == '##\n..'


def test_out_flag_writes_stdout_payload_to_file(capsys, tmp_path):
    img = tmp_path / 'img.txt'
    img.write_text('#.\n..\n')
    cases = [
        ('meet', '--lattice', 'powerset:2', '--random', '2',
         '--alg', 'gmeet+', '--verify'),
        ('latgen', 'random', '--n', '6', '--seed', '3'),
        ('latgen', 'conjecture', '--max-n', '4'),
        ('morph', 'dilate', '--se', 'hpair', '--image', str(img)),
    ]
    for i, argv in enumerate(cases):
        rc, stdout, _ = run(capsys, *argv)
        assert rc == 0
        out_file = tmp_path / f'out{i}.txt'
        rc, silent, _ = run(capsys, *argv, '--out', str(out_file))
        assert rc == 0
        assert silent == ''
        assert out_file.read_text() == stdout


def test_group_level_options_are_honored(capsys, tmp_path):
    rc, leaf, _ = run(capsys, 'latgen', 'random', '--n', '6', '--seed', '9')
    rc2, mid, _ = run(capsys, 'latgen', '--seed', '9', 'random', '--n', '6')
    assert (rc, rc2) == (0, 0)
    assert mid == leaf
    out_file = tmp_path / 'lat.txt'
    rc3, silent, _ = run(capsys, 'latgen', '--out', str(out_file),
                         'random', '--n', '6', '--seed', '9')
    assert rc3 == 0
    assert silent == ''
    assert out_file.read_text() == leaf


def test_endo_parse_error_names_the_file(capsys, tmp_path):
    bad = tmp_path / 'alpha.txt'
    bad.write_text('0 one 2 3 4\n')
    rc, _, err = run(capsys, 'meet', '--lattice', 'mn:3',
                     '--endo', str(bad), '--alg', 'gmeet')
    assert rc == 1
    assert 'alpha.txt' in err


def test_binary_image_is_rejected_cleanly(capsys, tmp_path):
    blob = tmp_path / 'img.pbm'
    blob.write_bytes(b'P4\n2 2\n\x80')
    rc, _, err = run(capsys, 'morph', 'dilate', '--se', 'cross',
                     '--image', str(blob))
    assert rc == 1
    assert 'binary data' in err


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


# -- pinned output of precondition refusals, bench skips and count rows ----------


@pytest.mark.parametrize('alg', ['a1', 'dmeet', 'dmeet+'])
def test_meet_refusal_on_non_distributive_lattice_is_pinned(capsys, alg):
    assert run(capsys, 'meet', '--alg', alg, '--lattice', 'mn:3', '--random', '2') \
        == (1, '', f'error: {alg} requires a distributive lattice; mn:3 is not\n')


def test_meet_refusal_on_non_modular_lattice_is_pinned(capsys, tmp_path):
    path = tmp_path / 'n5.txt'
    path.write_text('5\n' + ''.join(f'{a} {b}\n' for a, b in N5_COVERS))
    spec = f'file:{path}'
    assert run(capsys, 'meet', '--alg', 'gmeet+mod', '--lattice', spec, '--random', '2') \
        == (1, '', f'error: gmeet+mod requires a modular lattice; {spec} is not\n')


@pytest.mark.parametrize('text, message', [
    ('1000000\n', '{spec}: n=1000000 exceeds TABLE_LIMIT=4096'),
    ('-2\n', '{spec}: a lattice needs at least one element, got n=-2'),
    ('x\n', "{spec}: line 1 is not the element count n: 'x'"),
    ('# a comment\n3\n0 1\n0 1 2\n', """{spec}: line 4 is not an edge "a b": '0 1 2'"""),
    ('# only a comment\n', '{spec}: empty cover-relation file'),
    ('3\n0 1\n1 2\n2 0\n', '{spec}: order is not antisymmetric at (0, 1)'),
    ('4\n0 1\n0 2\n', '{spec}: elements 0 and 3 have no least upper bound'),
], ids=['oversized', 'negative', 'bad-header', 'bad-edge', 'empty', 'cycle', 'no-lub'])
def test_cover_file_refusals_are_pinned(capsys, tmp_path, text, message):
    path = tmp_path / 'bad.txt'
    path.write_text(text)
    spec = f'file:{path}'
    assert run(capsys, 'meet', '--lattice', spec, '--random', '1') \
        == (1, '', f'error: {message.format(spec=spec)}\n')


def test_bench_skip_notes_are_pinned(capsys):
    rc, out, err = run(capsys, 'bench', '--families', 'mn', '--sizes', '5',
                       '--algs', 'dmeet+,gmeet+mod,brute')
    assert rc == 0
    assert out.splitlines()[:2] == [BENCH_HEADER, BENCH_COLUMNS]
    assert strip_wall(out)[2:] == [
        'mn:3,5,2,gmeet+mod,31,32,0,4,,17491093503437968840',
        'mn:3,5,2,brute,5,0,0,0,,17491093503437968840']
    assert err == 'note: dmeet+ skipped on mn:3 (precondition not met)\n'


def test_bench_skips_every_kind_of_precondition(capsys):
    # brute needs n^|J| <= 10^6; a1 a distributive and gmeet+mod a modular lattice.
    rc, out, err = run(capsys, 'bench', '--families', 'powerset,chain,random',
                       '--sizes', '8,32', '--algs', 'brute,a1,gmeet+mod')
    assert rc == 0
    assert out.splitlines()[:2] == [BENCH_HEADER, BENCH_COLUMNS]
    assert strip_wall(out)[2:] == [
        'powerset:3,8,2,brute,128,0,0,0,,7596376693563336289',
        'powerset:3,8,2,a1,855,343,0,0,,7596376693563336289',
        'powerset:3,8,2,gmeet+mod,36,16,0,0,,7596376693563336289',
        'powerset:5,32,2,a1,49575,16807,0,0,,2227736892811475115',
        'powerset:5,32,2,gmeet+mod,384,88,0,5,,2227736892811475115',
        'chain:8,8,2,a1,884,372,0,0,,14256196701100253205',
        'chain:8,8,2,gmeet+mod,14,16,0,0,,14256196701100253205',
        'chain:32,32,2,a1,55120,22352,0,0,,10211830049373077646',
        'chain:32,32,2,gmeet+mod,62,64,0,0,,10211830049373077646',
        'random:8,8,2,brute,48,0,0,0,,13289415870774394648']
    assert err == ''.join(f'note: {alg} skipped on {label} (precondition not met)\n'
                          for alg, label in [
                              ('brute', 'powerset:5'), ('brute', 'chain:8'),
                              ('brute', 'chain:32'), ('a1', 'random:8'),
                              ('gmeet+mod', 'random:8'), ('brute', 'random:32'),
                              ('a1', 'random:32'), ('gmeet+mod', 'random:32')])


@pytest.mark.parametrize('argv, expected', [
    (['mn', '--n', '3', '--budget', '10'], 'M_3,5,50,,,,,\n'),
    (['mn', '--n', '3', '--budget', '124'], 'M_3,5,50,,,,,\n'),
    (['mn', '--n', '3', '--budget', '125'], 'M_3,5,50,50,1,12,3,34\n'),
    (['mn', '--n', '0'], 'M_0,2,2,2,1,0,0,1\n'),
    (['mn', '--n', '7'], 'M_7,9,130986,,,,,\n'),
    (['powerset', '--m', '3', '--budget', '10'], 'powerset:3,8,512,,,,,\n'),
    (['powerset', '--m', '0'], 'powerset:0,1,1,1,,,,\n'),
    (['powerset', '--m', '5'], 'powerset:5,32,33554432,,,,,\n'),
    (['linear', '--n', '4', '--budget', '10'], 'chain:4,4,20,,,,,\n'),
    (['linear', '--n', '1'], 'chain:1,1,1,1,,,,\n'),
    (['linear', '--n', '12'], 'chain:12,12,705432,,,,,\n'),
], ids=lambda v: ' '.join(v) if isinstance(v, list) else '')
def test_count_rows_are_pinned(capsys, argv, expected):
    assert run(capsys, 'count', *argv) == (0, expected, '')


@pytest.mark.parametrize('argv, message', [
    (['linear', '--n', '0'], 'a chain needs at least one element'),
    (['linear', '--n', '-1'], 'a chain needs at least one element'),
    (['mn', '--n', '-1'], 'n must be nonnegative, got -1'),
    (['powerset', '--m', '-1'], 'm must be nonnegative, got -1'),
], ids=lambda v: ' '.join(v) if isinstance(v, list) else '')
def test_count_refusals_are_pinned(capsys, argv, message):
    assert run(capsys, 'count', *argv) == (1, '', f'error: {message}\n')
