#!/usr/bin/env python3
'''Run the latmeet benchmark from the root of a checkout.

    python3 bench/run.py --workload dist-fresh --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One workload runs in this process, single-threaded, from the sources under
src/.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs the cases with spans recorded, then the same cases again untraced, and
prints the per-layer metrics.  Cases run in whole rotations, stopping at the
boundary nearest to --seconds of case time (half of it when traced).  Every case
goes through the correctness gate outside its timed region; a failing case
is printed to stderr and makes the exit code 1.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
result, with provenance, goes to .bench_out/ in the checkout, and a traced
run also writes its spans there.

--workload all runs every workload, untraced then traced, each in a fresh
process, and prints all their metrics.
'''
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / '.bench_out'
WORKLOADS = ('dist-fresh', 'nondist-reuse', 'dilation')
THREAD_VARS = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS',
               'NUMEXPR_NUM_THREADS', 'VECLIB_MAXIMUM_THREADS')
SETUP_REPEATS = 5
# The tail is the highest of p50/p75/p90/p95/p99 that has at least
# TAIL_BEYOND cases beyond it on every workload at the current speed (the
# smallest run, dilation's, holds 44 cases).  It is fixed rather than picked
# per run, so a faster program, which fits more cases into a run, is
# compared on the same percentile.
TAIL_PCT = 75
TAIL_BEYOND = 10
# No new rotation starts after ROTATION_CAP_S of wall time and no new case
# after CASE_CAP_S, so a run on a slow machine still ends within three
# minutes.
ROTATION_CAP_S = 100
CASE_CAP_S = 150
SETUP_CODE = ('import sys; sys.path[:0] = sys.argv[1:3]; import latmeet, cases; '
              'cases.shared_inputs(sys.argv[3], sys.argv[4] == "1")')

ROUTE_KEYS = ('a1', 'dmeet', 'dmeet_plus', 'gmeet', 'gmeet_plus', 'gmeet_plus_mod')
END_TO_END = (
    ('setup_s', 's'), ('case_s.p50', 's'), ('case_s.tail', 's'),
    ('cases_per_s', '1/s'), ('peak_rss_mib', 'MiB'),
)
PER_LAYER = (
    ('latgen.generate.s', 's'), ('latgen.generate.calls', 'count'),
    ('latgen.generate.max_s', 's'),
    ('lattice.build.s', 's'), ('lattice.build.calls', 'count'),
    ('lattice.classify.s', 's'),
    ('endo.sample.s', 's'), ('endo.sample.calls', 'count'), ('endo.sample.max_s', 's'),
    ('morphology.tabulate.s', 's'), ('morphology.apply.s', 's'),
    ('endo.verify.s', 's'),
    *((f'glb.{r}.{k}', unit) for r in ROUTE_KEYS
      for k, unit in (('s', 's'), ('calls', 'count'), ('join', 'count'), ('meet', 'count'),
                      ('subtraction', 'count'), ('sigma_reductions', 'count'))),
    ('glb.gmeet.rounds', 'count'),
    ('glb.gmeet_plus.reduce_events', 'count'), ('glb.gmeet_plus.move_events', 'count'),
    ('glb.gmeet_plus.useful_ratio', 'ratio'),
    ('glb.gmeet_plus_mod.reduce_events', 'count'),
    ('glb.gmeet_plus_mod.move_events', 'count'),
    ('glb.gmeet_plus_mod.useful_ratio', 'ratio'),
    ('case.self.s', 's'), ('case.count', 'count'),
    ('trace.total_s', 's'), ('trace.overhead_ratio', 'ratio'),
)
UNITS = dict(END_TO_END + PER_LAYER)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS + ('all',))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--smoke', action='store_true',
                        help='one rotation of tiny inputs, for tests')
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    if args.workload == 'all':
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = '1'
    sys.path.insert(0, str(ROOT / 'src'))
    try:
        import latmeet
    except ImportError as exc:
        print(f'error: latmeet is not importable from {ROOT / "src"}: {exc}', file=sys.stderr)
        return 2
    if Path(latmeet.__file__).resolve().parent != ROOT / 'src' / 'latmeet':
        print(f'error: latmeet resolved to {latmeet.__file__}, not this checkout',
              file=sys.stderr)
        return 2
    return run_workload(args)


# -- one workload ------------------------------------------------------------------


def run_workload(args):
    import cases
    from tracing import NullTracer, Tracer

    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.smoke)
    shared = cases.shared_inputs(args.workload, args.smoke)
    per_rotation = len(cases.rotation(args.workload, args.smoke))
    if args.trace:
        tracer = Tracer()
        traced = run_cases(args, shared, tracer, args.seconds / 2, per_rotation)
        plain = run_cases(args, shared, NullTracer(), None, len(traced))
        for a, b in zip(traced, plain):
            a['failures'] += [f'untraced repeat: {f}' for f in b['failures']]
            if a['signature'] != b['signature']:
                a['failures'].append(f'op counts differ between two runs of the same '
                                     f'inputs: {a["signature"]} vs {b["signature"]}')
        metrics = per_layer_metrics(tracer, traced, plain)
        tracer.write(OUT_DIR / f'{args.workload}-seed{args.seed}.spans.jsonl')
        records, extra = traced, {}
    else:
        records = run_cases(args, shared, NullTracer(), args.seconds, per_rotation)
        metrics, extra = end_to_end_metrics(records, setup)
    failed = [r for r in records if r['failures']]
    result = {'correct': not failed, 'attempted': len(records), 'failed': len(failed),
              'metrics': {name: {'value': value, 'unit': UNITS[name]}
                          for name, value in metrics.items()}}
    prov = provenance(args, cases)
    for name, value in metrics.items():
        print(f'{args.workload:14s} {name:34s} {value:14.6g} {UNITS[name]:6s} '
              f'{extra.get(name, "")}')
    print(f'{args.workload:14s} {"failed_ratio":34s} {len(failed)}/{len(records)}')
    print('# provenance ' + json.dumps(prov, sort_keys=True))
    path = OUT_DIR / f'{args.workload}-seed{args.seed}-trace{args.trace}.json'
    path.write_text(json.dumps({'provenance': prov, 'result': result, 'notes': extra,
                                'failures': {r['index']: r['failures'] for r in failed},
                                'op_counts_digest': hashlib.sha256(repr(
                                    [r['signature'] for r in records]).encode()).hexdigest(),
                                'case_s': [r['seconds'] for r in records]}, indent=1),
                    encoding='utf-8')
    print(json.dumps(result))
    return 1 if failed else 0


def run_cases(args, shared, tracer, budget_s, count):
    '''Run whole rotations of `count` cases, stopping at the rotation
    boundary nearest to `budget_s` seconds of case time, or exactly `count`
    cases when `budget_s` is None (or in smoke mode); the time caps cut
    either short.  The gate and the bookkeeping stay outside each case's
    timed region.'''
    import cases
    records = []
    measured = 0.0
    index = 0
    while True:
        elapsed = time.perf_counter() - args.started
        if budget_s is None or args.smoke:
            if index >= count or elapsed > CASE_CAP_S:
                break
        elif index and index % count == 0:
            # Stop at the rotation boundary nearest to the budget.
            rotations = index // count
            if measured * (1 + 0.5 / rotations) >= budget_s or elapsed > ROTATION_CAP_S:
                break
        elif elapsed > CASE_CAP_S:
            break
        case = cases.make_case(args.workload, args.seed, index, args.smoke)
        tracer.case_id = index
        # Each case starts from a collected heap, as a fresh CLI process
        # would, instead of paying for the previous case's garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            with tracer.span('case'):
                out = cases.run_case(case, shared, tracer)
        except Exception as exc:  # a failed case is counted, and the run goes on
            seconds = time.perf_counter() - start
            out, failures = None, [f'raised {type(exc).__name__}: {exc}']
        else:
            seconds = time.perf_counter() - start
            failures = cases.gate(case, out, shared)
        measured += seconds
        for failure in failures:
            print(f'FAILED case {index} {case}: {failure}', file=sys.stderr)
        records.append({'index': index, 'seconds': seconds, 'failures': failures,
                        'signature': out and cases.signature(out)})
        out = None
        index += 1
    return records


def measure_setup(workload, smoke):
    '''Wall time of fresh interpreters that import latmeet and build the
    workload's shared inputs; one unmeasured start first writes bytecode.'''
    cmd = [sys.executable, '-c', SETUP_CODE, str(ROOT / 'src'), str(ROOT / 'bench'),
           workload, '1' if smoke else '0']
    subprocess.run(cmd, check=True, cwd=ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def end_to_end_metrics(records, setup):
    times = sorted(r['seconds'] for r in records)
    done = [r['seconds'] for r in records if not r['failures']]
    n = len(times)
    tail = (statistics.quantiles(times, n=100, method='inclusive')[TAIL_PCT - 1]
            if n > 1 else times[0])
    beyond = sum(t > tail for t in times)
    metrics = {
        'setup_s': statistics.median(setup),
        'case_s.p50': statistics.median(times),
        'case_s.tail': tail,
        'cases_per_s': len(done) / sum(times),
        'peak_rss_mib': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        'setup_s': f'median of {len(setup)} starts',
        'case_s.p50': f'{n} cases',
        'case_s.tail': f'p{TAIL_PCT} of {n} cases, {beyond} beyond'
                       + ('' if beyond >= TAIL_BEYOND else f' (fewer than {TAIL_BEYOND})'),
        'cases_per_s': f'{len(done)} cases in {sum(times):.3f} s of case time',
    }
    return metrics, extra


def per_layer_metrics(tracer, traced, plain):
    '''The per-layer metrics of a traced run.  `plain` repeats the first
    cases of `traced` untraced (all of them unless the time cap hit), and
    the overhead ratio compares those cases only.'''
    layers = tracer.layer_times()
    counts = tracer.counts
    metrics = {}
    for name, _ in PER_LAYER:
        stem, _, kind = name.rpartition('.')
        if name == 'case.count':
            value = len(traced)
        elif name == 'trace.total_s':
            value = tracer.case_total()
        elif name == 'trace.overhead_ratio':
            value = (sum(r['seconds'] for r in traced[:len(plain)])
                     / sum(r['seconds'] for r in plain) - 1)
        elif kind == 'useful_ratio':
            reduces, moves = counts[f'{stem}.reduce_events'], counts[f'{stem}.move_events']
            value = reduces / (reduces + moves) if reduces + moves else 0.0
        elif name == 'case.self.s':
            value = layers['case'][0]
        elif kind in ('s', 'calls', 'max_s'):
            self_s, calls, max_s = layers.get(stem, (0.0, 0, 0.0))
            value = {'s': self_s, 'calls': calls, 'max_s': max_s}[kind]
        else:
            value = counts[name]
        metrics[name] = value
    total = sum(self_s for self_s, _, _ in layers.values())
    if abs(total - tracer.case_total()) > 1e-6 * max(1, len(traced)):
        raise RuntimeError(f'layer self times {total} do not sum to the traced '
                           f'total {tracer.case_total()}')
    return metrics


def provenance(args, cases):
    import numpy
    return {'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds,
            'trace': args.trace, 'smoke': args.smoke, 'git': git_revision(),
            'python': platform.python_version(), 'numpy': numpy.__version__,
            'cores': os.cpu_count(), 'rotation': len(cases.rotation(args.workload, args.smoke))}


def git_revision():
    'HEAD of the checkout read from .git, or "unknown" outside a git repository.'
    git = ROOT / '.git'
    try:
        head = (git / 'HEAD').read_text(encoding='utf-8').strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding='utf-8').strip()
        for line in (git / 'packed-refs').read_text(encoding='utf-8').splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return 'unknown'


# -- all workloads -----------------------------------------------------------------


def run_all(args):
    combined = {'correct': True, 'attempted': 0, 'failed': 0, 'metrics': {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), '--workload', workload,
                   '--seed', str(args.seed), '--seconds', str(args.seconds),
                   '--trace', str(trace)] + (['--smoke'] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print('\n'.join(lines[:-1]), flush=True)
            status = status or proc.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                combined['correct'] = False
                continue
            combined['correct'] &= result['correct']
            combined['attempted'] += result['attempted']
            combined['failed'] += result['failed']
            for name, metric in result['metrics'].items():
                combined['metrics'][f'{workload}.{name}'] = metric
    print(json.dumps(combined))
    return status


if __name__ == '__main__':
    sys.exit(main())
