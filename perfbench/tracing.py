"""Spans around every cross-layer call into the fasbar modules.

The benchmark measures fasbar from outside: ``Tracer.installed`` rebinds
every public function at every module binding (``fasbar.harness.
generate_ssc_channel``, ``fasbar.cli.design_plan``, ...) and the
``Kernel.fingerprint`` property to a wrapper that records one span per
call, then restores the originals.  Python resolves module globals at call
time, so calls inside a module (``design_plan`` -> ``posterior_update_one``)
are caught as well.

A span is ``(id, parent_id, binding, label, start_ns, end_ns)``; ``label``
names the defining module and function (``channels.steering_matrix``) and
is what the per-layer metrics aggregate over.  Spans stay in memory until
``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
import types
from collections import Counter, defaultdict

ROOT = 0

# Work counts taken at a layer boundary from the call's arguments or result.
COUNTERS = {
    "channels.steering_matrix": lambda args, result: ("exps", result.size),
    "fileio.save_plan": lambda args, result: ("bytes", os.path.getsize(args[0])),
    "harness.emit_csv": lambda args, result: ("bytes", os.path.getsize(args[1])),
}


class Tracer:
    """Records spans and boundary counts while ``enabled`` is true."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = False
        self._ids = itertools.count(1)
        self._stack = [ROOT]

    def wrap(self, binding, label, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid, parent = next(self._ids), stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, binding, label, start, end))
            if counter is not None:
                key, amount = counter(args, result)
                counts[f"{label}.{key}"] += amount
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every public fasbar function at every binding, then restore."""
        modules = [package] + [
            m for m in vars(package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(package.__name__ + ".")
        ]
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(package.__name__ + ".")
                    and not attr.startswith("_")
                ):
                    label = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(f"{mod.__name__}.{attr}", label, obj))
        kernel_cls = package.kernels.Kernel
        fingerprint = vars(kernel_cls)["fingerprint"]
        saved.append((kernel_cls, "fingerprint", fingerprint))
        kernel_cls.fingerprint = property(
            self.wrap("fasbar.kernels.Kernel.fingerprint", "kernels.fingerprint", fingerprint.fget)
        )
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(saved):
                setattr(owner, attr, obj)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, binding, label, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": binding,
                                     "fn": label, "start_ns": start, "end_ns": end}) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.  Returns {span id: self ns}.
    """
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """Per label: number of calls, busy seconds and self seconds."""
    own = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, _, _, label, start, end in spans:
        entry = stats[label]
        entry["calls"] += 1
        entry["busy_s"] += (end - start) * 1e-9
        entry["self_s"] += own[sid] * 1e-9
    return dict(stats)
