'''Tests of the benchmark itself: smoke runs, the metric names against
BENCHMARK.json, the correctness gate, repeatability of op counts, and a
full-size run on a seed that was not used while the benchmark was tuned.

    python3 -m pytest bench/tests -q
'''
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / 'src'), str(ROOT / 'bench')]

import cases  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))
FRESH_SEED = 20261017


def bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run([sys.executable, str(cwd / 'bench' / 'run.py'), *map(str, args)],
                          cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize('trace', [0, 1])
@pytest.mark.parametrize('workload', cases.WORKLOADS)
def test_smoke_run_prints_the_metrics_of_benchmark_json(workload, trace):
    proc = bench('--workload', workload, '--seed', 5, '--seconds', 1,
                 '--trace', trace, '--smoke')
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0 and result['attempted'] >= 1
    listed = SPEC['per_layer' if trace else 'end_to_end']
    assert {name: m['unit'] for name, m in result['metrics'].items()} == \
        {m['name']: m['unit'] for m in listed}
    for name, metric in result['metrics'].items():
        assert isinstance(metric['value'], (int, float)), name
        assert f' {name} ' in proc.stdout


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {'command', 'paths', 'run_seconds', 'workloads',
                         'end_to_end', 'per_layer'}
    assert [w['name'] for w in SPEC['workloads']] == list(cases.WORKLOADS)
    assert [(m['name'], m['unit']) for m in SPEC['end_to_end']] == list(run.END_TO_END)
    assert [(m['name'], m['unit']) for m in SPEC['per_layer']] == list(run.PER_LAYER)
    setup = [m for m in SPEC['end_to_end'] if m['name'] == 'setup_s']
    assert setup and setup[0]['bound'] == max(m['bound'] for m in SPEC['end_to_end'])


def test_traced_self_times_sum_to_the_traced_total():
    proc = bench('--workload', 'nondist-reuse', '--seed', 6, '--seconds', 1,
                 '--trace', 1, '--smoke')
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)['metrics']
    self_times = sum(m['value'] for name, m in metrics.items()
                     if name.endswith('.s') and not name.startswith('trace.'))
    assert self_times == pytest.approx(metrics['trace.total_s']['value'], rel=1e-6)


def test_same_seed_repeats_op_counts_across_processes():
    digests = []
    for _ in range(2):
        proc = bench('--workload', 'dilation', '--seed', 8, '--seconds', 1, '--smoke')
        assert proc.returncode == 0, proc.stderr
        out = json.loads((ROOT / '.bench_out' / 'dilation-seed8-trace0.json')
                         .read_text(encoding='utf-8'))
        digests.append(out['op_counts_digest'])
    assert digests[0] == digests[1]


def _raise_one_value(lat, values):
    'Replace one value by an element strictly above it.'
    values = list(values)
    for e, v in enumerate(values):
        above = [b for b in range(lat.n) if b != v and lat.le(v, b)]
        if above:
            values[e] = above[0]
            return values
    raise AssertionError('every value is already the top')


@pytest.mark.parametrize('workload', cases.WORKLOADS)
def test_a_raised_value_trips_the_gate(workload):
    shared = cases.shared_inputs(workload, smoke=True)
    case = cases.make_case(workload, 9, 0, smoke=True)
    out = cases.run_case(case, shared, NullTracer())
    assert cases.gate(case, out, shared) == []
    fam = out.families[0]
    fam.result.endofunction = cases.endo.Endofunction(
        out.lattice, _raise_one_value(out.lattice, fam.result.endofunction.values))
    assert cases.gate(case, out, shared)


def test_an_off_pin_dmeet_plus_count_trips_the_gate():
    shared = cases.shared_inputs('dilation', smoke=True)
    case = cases.make_case('dilation', 9, 0, smoke=True)
    assert case.families[0][0] == 'dmeet+'
    out = cases.run_case(case, shared, NullTracer())
    out.families[0].result.op_counts['join'] += 1
    assert any('pinned' in f for f in cases.gate(case, out, shared))


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(ROOT / 'bench', tmp_path / 'bench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    proc = bench('--workload', 'dilation', '--seed', 1, '--seconds', 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize('workload', cases.WORKLOADS)
def test_full_size_rotation_on_a_fresh_seed_passes_the_gate(workload):
    # One full-size rotation per workload; takes 15-45 s each.
    proc = bench('--workload', workload, '--seed', FRESH_SEED, '--seconds', 1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result['correct'] and result['failed'] == 0
