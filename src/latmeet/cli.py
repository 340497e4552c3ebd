'''Command-line front end.

Subcommands: meet (compute the greatest join-endomorphism below given maps),
bench (op-count benchmark CSV), count (endomorphism-space cardinalities),
latgen (lattice generation), morph (binary-image dilation demos).  Every
subcommand accepts --seed, --budget and --out; with an explicit seed all
output except wall-time columns is deterministic.
'''
from __future__ import annotations

import argparse
import hashlib
import io
import sys
import time
from pathlib import Path

from . import counting, latgen, morphology
from .endo import (count_join_endomorphisms, enumerable, format_endofunction,
                   is_join_endomorphism, parse_endofunction,
                   random_join_endomorphism)
from .errors import (BudgetExceededError, LatmeetError, NotDistributiveError,
                     NotModularError)
from .glb import brute_force_meet, check_precondition, meet_algorithms
from .lattice import build, write_cover_file

BENCH_HEADER = '# latmeet bench csv v1'
BENCH_COLUMNS = 'lattice,n,m,algorithm,join,meet,subtraction,sigma_reductions,wall_time_s,seed'
BOUNDS_HEADER = '# latmeet bounds csv v1'
ENUM_CAP = 10 ** 6


def derive_seed(seed, *parts):
    'Stable 64-bit seed for a named sub-experiment.'
    text = ':'.join([str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], 'big')


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatmeetError, ValueError, OSError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1


def _build_parser():
    # The common options hang off both the group parsers (count, latgen,
    # morph) and their leaves.  Defaults live on the root parser only;
    # SUPPRESS keeps an inner parser from resetting a value that an outer
    # parser already consumed (e.g. `latgen --seed 9 random`).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--seed', type=int, default=argparse.SUPPRESS,
                        help='base random seed')
    common.add_argument('--budget', type=int, default=argparse.SUPPRESS,
                        help='enumeration budget (candidate cap)')
    common.add_argument('--out', default=argparse.SUPPRESS,
                        help='output file or directory')

    parser = argparse.ArgumentParser(
        prog='latmeet',
        description='greatest join-endomorphism below a set, and friends')
    parser.set_defaults(seed=0, budget=10 ** 8, out=None)
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('meet', parents=[common],
                       help='compute the greatest join-endomorphism below given maps')
    p.add_argument('--lattice', required=True,
                   help='chain:K | powerset:M | mn:K | file:PATH | products with *')
    p.add_argument('--endo', action='append', default=[],
                   help='file with one endofunction line (repeatable)')
    p.add_argument('--random', type=int, default=0, metavar='M',
                   help='use M random join-endomorphisms instead of files')
    p.add_argument('--alg', default='gmeet+', choices=sorted(meet_algorithms()))
    p.add_argument('--verify', action='store_true',
                   help='check the result against brute force')
    p.set_defaults(func=cmd_meet)

    p = sub.add_parser('bench', parents=[common], help='op-count benchmark CSV')
    p.add_argument('--families', default='powerset',
                   help='comma list: powerset,chain,mn,random,random-distributive')
    p.add_argument('--sizes', default='16,32,64,128,256,512,1024',
                   help='comma list of lattice sizes')
    p.add_argument('--algs', default='dmeet+', help='comma list of algorithms')
    p.add_argument('--endos', type=int, default=2, help='|S|, endomorphisms per case')
    p.add_argument('--runs', type=int, default=1, help='random draws per config')
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser('count', parents=[common],
                       help='endomorphism-space cardinalities')
    count_sub = p.add_subparsers(dest='what', required=True)
    q = count_sub.add_parser('mn', parents=[common])
    q.add_argument('--n', type=int, required=True, help='number of middle elements')
    q.set_defaults(func=cmd_count)
    q = count_sub.add_parser('powerset', parents=[common])
    q.add_argument('--m', type=int, required=True, help='number of generators')
    q.set_defaults(func=cmd_count)
    q = count_sub.add_parser('linear', parents=[common])
    q.add_argument('--n', type=int, required=True, help='number of chain elements')
    q.set_defaults(func=cmd_count)
    q = count_sub.add_parser('bounds', parents=[common])
    q.add_argument('--max-n', type=int, default=5, help='largest lattice size')
    q.set_defaults(func=cmd_count_bounds)

    p = sub.add_parser('latgen', parents=[common], help='lattice generation')
    gen_sub = p.add_subparsers(dest='what', required=True)
    q = gen_sub.add_parser('all', parents=[common])
    q.add_argument('--max-n', type=int, default=5)
    q.set_defaults(func=cmd_latgen_all)
    q = gen_sub.add_parser('random', parents=[common])
    q.add_argument('--n', type=int, required=True)
    q.add_argument('--distributive', action='store_true')
    q.set_defaults(func=cmd_latgen_random)
    q = gen_sub.add_parser('conjecture', parents=[common])
    q.add_argument('--max-n', type=int, default=6)
    q.set_defaults(func=cmd_latgen_conjecture)

    p = sub.add_parser('morph', parents=[common], help='binary-image dilation demos')
    morph_sub = p.add_subparsers(dest='what', required=True)
    q = morph_sub.add_parser('meet', parents=[common])
    q.add_argument('--grid', default='2x2', help='WxH (pixel count capped at 16)')
    q.add_argument('--se', action='append', required=True,
                   choices=sorted(morphology.SE_CATALOG))
    q.add_argument('--image', help='text or .pbm image file (default: center pixel)')
    q.add_argument('--alg', default='dmeet+', choices=sorted(meet_algorithms()))
    q.set_defaults(func=cmd_morph_meet)
    q = morph_sub.add_parser('dilate', parents=[common])
    q.add_argument('--se', required=True, choices=sorted(morphology.SE_CATALOG))
    q.add_argument('--image', required=True, help='text or .pbm image file')
    q.set_defaults(func=cmd_morph_dilate)

    return parser


# -- meet ---------------------------------------------------------------------


def cmd_meet(args):
    lattice = build(args.lattice)
    if args.endo and args.random:
        print('error: give either --endo files or --random M, not both', file=sys.stderr)
        return 1
    if not args.endo and args.random < 1:
        print('error: no endofunctions given (use --endo or --random)', file=sys.stderr)
        return 1
    check_precondition(args.alg, lattice, args.budget)
    if args.random:
        fs = [random_join_endomorphism(lattice, seed=derive_seed(args.seed, 'endo', i))
              for i in range(args.random)]
    else:
        fs = [_load_endofunction(path, lattice) for path in args.endo]
    if args.alg == 'brute':         # the one route with an enumeration budget
        result = brute_force_meet(lattice, fs, budget=args.budget)
    else:
        result = meet_algorithms()[args.alg](lattice, fs)
    ops = result.op_counts
    lines = [format_endofunction(result.endofunction),
             f'# ops: join={ops["join"]} meet={ops["meet"]} '
             f'subtraction={ops["subtraction"]} sigma_reductions={result.sigma_reductions} '
             f'algorithm={result.algorithm}']
    if args.verify:
        oracle = brute_force_meet(lattice, fs, budget=args.budget)
        if oracle.endofunction != result.endofunction:
            _emit(lines, args.out)
            print(f'error: MISMATCH against brute force: '
                  f'{format_endofunction(oracle.endofunction)}', file=sys.stderr)
            return 1
        lines.append('VERIFIED')
    _emit(lines, args.out)
    return 0


def _load_endofunction(path, lattice):
    text = Path(path).read_text(encoding='utf-8')
    lines = [ln.split('#', 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f'{path}: no endofunction line')
    try:
        f = parse_endofunction(lines[0], lattice)
    except ValueError as exc:
        raise ValueError(f'{path}: {exc}') from None
    if not is_join_endomorphism(f):
        raise ValueError(f'{path}: not a join-endomorphism of {lattice.label}')
    return f


# -- bench --------------------------------------------------------------------


def cmd_bench(args):
    families = [f.strip() for f in args.families.split(',') if f.strip()]
    sizes = [int(s) for s in args.sizes.split(',') if s.strip()]
    algs = [a.strip() for a in args.algs.split(',') if a.strip()]
    algorithms = meet_algorithms()
    unknown = [a for a in algs if a not in algorithms]
    if unknown:
        print(f'error: unknown algorithms {unknown}', file=sys.stderr)
        return 1
    lines, budget = [BENCH_HEADER, BENCH_COLUMNS], min(args.budget, ENUM_CAP)
    for family in families:
        for size in sizes:
            for run in range(args.runs):
                case_seed = derive_seed(args.seed, family, size, run)
                lattice = _bench_lattice(family, size, case_seed)
                fs = [random_join_endomorphism(lattice,
                                               seed=derive_seed(case_seed, 'endo', i))
                      for i in range(args.endos)]
                for alg in algs:
                    try:
                        check_precondition(alg, lattice, budget)
                    except (BudgetExceededError, NotDistributiveError,
                            NotModularError):
                        print(f'note: {alg} skipped on {lattice.label} '
                              '(precondition not met)', file=sys.stderr)
                        continue
                    start = time.perf_counter()
                    result = algorithms[alg](lattice, fs)
                    elapsed = time.perf_counter() - start
                    ops = result.op_counts
                    lines.append(
                        f'{lattice.label},{lattice.n},{args.endos},{alg},'
                        f'{ops["join"]},{ops["meet"]},{ops["subtraction"]},'
                        f'{result.sigma_reductions},{elapsed:.6f},{case_seed}')
    _emit(lines, args.out)
    return 0


def _bench_lattice(family, size, case_seed):
    if family == 'powerset':
        if size & (size - 1) or size < 1:
            raise ValueError(f'powerset sizes must be powers of two, got {size}')
        return build(f'powerset:{size.bit_length() - 1}')
    if family == 'chain':
        return build(f'chain:{size}')
    if family == 'mn':
        if size < 3:
            raise ValueError('mn sizes start at 3')
        return build(f'mn:{size - 2}')
    if family == 'random':
        return latgen.random_lattice(size, seed=case_seed)
    if family == 'random-distributive':
        return latgen.random_distributive_lattice(size, seed=case_seed)
    raise ValueError(f'unknown lattice family {family!r}')


# -- count --------------------------------------------------------------------


def cmd_count(args):
    '''One row: label, n, closed-form count, then (within the budget) the
    enumerated count and, for M_n, the sizes of its four families.'''
    if args.what == 'mn':
        formula, spec = counting.count_mn(args.n), f'mn:{args.n}'
    elif args.what == 'powerset':
        formula, spec = counting.count_powerset(args.m), f'powerset:{args.m}'
    else:
        if args.n < 1:
            raise ValueError('a chain needs at least one element')
        formula, spec = counting.count_linear(args.n - 1), f'chain:{args.n}'
    lattice = build(spec)
    cols = [''] * 5
    if enumerable(lattice, min(args.budget, ENUM_CAP)):
        cols[0] = str(count_join_endomorphisms(lattice, args.budget))
        if args.what == 'mn':
            cols[1:] = [str(len(f)) for f in counting.construct_families(args.n)]
    label = f'M_{args.n}' if args.what == 'mn' else spec
    _emit([','.join([label, str(lattice.n), str(formula), *cols])], args.out)
    return 0


def cmd_count_bounds(args):
    lines = [BOUNDS_HEADER,
             'lattice,n,exact,lower,upper,distributive_upper,lower_holds,upper_holds']
    for size, lattices in sorted(latgen.generate_all_lattices(args.max_n).items()):
        for lat in lattices:
            r = counting.bounds_check(lat, budget=args.budget)
            dist = '' if r.distributive_upper is None else str(r.distributive_upper)
            lines.append(f'{r.label},{r.n},{r.exact},{r.lower},{r.upper},{dist},'
                         f'{r.lower_holds},{r.upper_holds}')
    _emit(lines, args.out)
    return 0


# -- latgen -------------------------------------------------------------------


def cmd_latgen_all(args):
    by_size = latgen.generate_all_lattices(args.max_n)
    lines = ['size,count']
    lines += [f'{size},{len(lats)}' for size, lats in sorted(by_size.items())]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for size, lats in sorted(by_size.items()):
            for i, lat in enumerate(lats):
                with open(out / f'lattice_{size}_{i}.txt', 'w', encoding='utf-8') as fh:
                    write_cover_file(fh, lat, comment=lat.label)
        (out / 'counts.csv').write_text('\n'.join(lines) + '\n', encoding='utf-8')
    else:
        sys.stdout.write('\n'.join(lines) + '\n')
    return 0


def cmd_latgen_random(args):
    if args.distributive:
        lat = latgen.random_distributive_lattice(args.n, seed=args.seed)
    else:
        lat = latgen.random_lattice(args.n, seed=args.seed)
    _emit(_cover_lines(lat, comment=lat.label), args.out)
    return 0


def _cover_lines(lat, comment):
    buf = io.StringIO()
    write_cover_file(buf, lat, comment=comment)
    return buf.getvalue().splitlines()


def cmd_latgen_conjecture(args):
    report = latgen.conjecture_search(args.max_n, budget=args.budget)
    lines = [f'augmentation pairs checked: {report.pairs_checked} '
             f'(sizes up to {report.n_max})']
    if report.counterexample is None:
        lines.append('no counterexample: every checked distributive augmentation '
                      'strictly increased the endomorphism count')
    else:
        before_lat, after_lat, added, before, after = report.counterexample
        lines.append(f'counterexample: augmenting {before_lat.label} with pairs '
                     f'{list(added)} takes |E| from {before} to {after}')
        lines += _cover_lines(before_lat, comment='before')
        lines += _cover_lines(after_lat, comment='after')
    _emit(lines, args.out)
    return 0


# -- morph --------------------------------------------------------------------


def cmd_morph_meet(args):
    width, height = _parse_grid(args.grid)
    image = (_load_image(args.image) if args.image
             else morphology.BinaryImage(width, height, {(width // 2, height // 2)}))
    if (image.width, image.height) != (width, height):
        raise ValueError(f'--image is {image.width}x{image.height}, --grid says {args.grid}')
    ses = [morphology.SE_CATALOG[name] for name in args.se]
    via_lattice, direct = morphology.meet_of_dilations(image, ses, algorithm=args.alg)
    print(morphology.format_text_image(via_lattice))
    print()
    print(morphology.format_text_image(direct))
    print('paths agree' if via_lattice == direct else 'paths differ')
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / 'lattice_path.pbm', 'w', encoding='utf-8') as fh:
            morphology.write_pbm(fh, via_lattice)
        with open(out / 'direct.pbm', 'w', encoding='utf-8') as fh:
            morphology.write_pbm(fh, direct)
    return 0


def cmd_morph_dilate(args):
    image = _load_image(args.image)
    result = morphology.dilate(image, morphology.SE_CATALOG[args.se])
    _emit([morphology.format_text_image(result)], args.out)
    return 0


def _parse_grid(text):
    w, sep, h = text.lower().partition('x')
    if not sep:
        raise ValueError(f'bad grid {text!r}, expected WxH')
    return int(w), int(h)


def _load_image(path):
    p = Path(path)
    try:
        text = p.read_text(encoding='utf-8')
    except UnicodeDecodeError:
        raise ValueError(f'{path}: binary data; only text images and plain '
                         '(P1) PBM files are supported') from None
    if p.suffix == '.pbm':
        return morphology.read_pbm(io.StringIO(text))
    return morphology.parse_text_image(text)


def _emit(lines, out):
    text = '\n'.join(lines) + '\n'
    if out:
        Path(out).write_text(text, encoding='utf-8')
    else:
        sys.stdout.write(text)


if __name__ == '__main__':
    sys.exit(main())
