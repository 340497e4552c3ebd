'''Spans and counters recorded by the benchmark around its calls into latmeet.

A span has a name, a start and an end (`time.perf_counter`), the index of
its parent span and the id of the case it belongs to.  Spans are kept in a
list and written out once the run ends.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
under a case sum to that case's duration.

`NullTracer` has the same interface and records nothing; the untraced run
uses it so that both runs execute the same benchmark code.
'''
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    'Records nothing; every span is a shared no-op context manager.'

    def span(self, name):
        return _NULL

    def count(self, name, k=1):
        pass

    def callbacks(self, route):
        return {}


class Tracer:
    'Keeps spans and counters in memory for one run.'

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, case id].
        self.spans = []
        self.counts = defaultdict(int)
        self.case_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.case_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counts[name] += k

    def callbacks(self, route):
        '''Keyword arguments that attach the glb instrumentation callbacks:
        `on_update` rounds for gmeet, `on_event` reduce/move events for the
        gmeet+ routes.'''
        key = metric_route(route)
        if route == 'gmeet':
            def on_update(sigma):
                self.counts[f'glb.{key}.rounds'] += 1
            return {'on_update': on_update}
        if route in ('gmeet+', 'gmeet+mod'):
            def on_event(state, event):
                self.counts[f'glb.{key}.{event}_events'] += 1
            return {'on_event': on_event}
        return {}

    def layer_times(self):
        '''Per span name: (self seconds, calls, longest single duration).'''
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s, calls, max_s = out.get(name, (0.0, 0, 0.0))
            out[name] = (self_s + (end - start - inner), calls + 1,
                         max(max_s, end - start))
        return out

    def case_total(self):
        'Summed duration of the root `case` spans.'
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0)

    def write(self, path):
        with open(path, 'w', encoding='utf-8') as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({'name': name, 'start': start, 'end': end,
                                     'parent': parent, 'case': case}) + '\n')


def metric_route(route):
    'Route name as used in metric names, which may not contain "+".'
    return route.replace('+mod', '_plus_mod').replace('+', '_plus')
