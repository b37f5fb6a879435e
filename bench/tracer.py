"""Spans around the public functions of sqkd, installed from outside.

Each traced call records one span: the traced name, its start and end on
``time.perf_counter`` and the span that was open when it started.  Spans are
kept in compact arrays in memory and written out once, when the run ends.
A function's self time is its spans' duration minus the time its child spans
cover.  Wrappers replace every module attribute that refers to the function,
because some modules import names directly (``cli.fmt``,
``keyrate.binary_entropy``); methods are replaced on their class.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

#: (module, qualified name) of every traced function, in metric order.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("keyrate", "key_rate_bound"),
    ("keyrate", "depolarizing_stats"),
    ("keyrate", "depolarizing_bound"),
    ("keyrate", "threshold_q"),
    ("keyrate", "threshold_b"),
    ("keyrate", "load_statistics"),
    ("keyrate", "format_report"),
    ("attacks", "load_attack"),
    ("attacks", "parse_attack_file"),
    ("attacks", "compute_statistics"),
    ("attacks", "attack_from_kraus"),
    ("attacks", "attack_deviations"),
    ("protocol", "run_protocol"),
    ("protocol", "ProtocolTranscript.to_csv"),
    ("protocol", "ProtocolTranscript.summary_lines"),
    ("fileio", "fmt"),
    ("fileio", "read_kv_lines"),
    ("qmath", "binary_entropy"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)
RUN_PROTOCOL = NAMES.index("protocol.run_protocol")
TO_CSV = NAMES.index("protocol.ProtocolTranscript.to_csv")


def metric_specs():
    """(name, unit, better) of every per-layer metric the traced run reports."""
    specs = []
    for name in NAMES:
        specs.append((f"{name}.calls_per_item", "calls/item", "lower"))
        specs.append((f"{name}.self_us_per_item", "us/item", "lower"))
    specs.append(("protocol.run_protocol.alloc_peak_bytes_per_item", "B/item", "lower"))
    specs.append(("protocol.ProtocolTranscript.to_csv.bytes_per_item", "B/item", "lower"))
    specs.append(("traced.items_per_s", "items/s", "higher"))
    return specs


class Tracer:
    def __init__(self):
        self.name_id = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.alloc_peak_bytes = 0
        self.csv_bytes = 0

    def clear(self):
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.alloc_peak_bytes = 0
        self.csv_bytes = 0

    def _wrap(self, idx, fn):
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def before():
            span = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(span)
            return span

        def after(span):
            end[span] = clock()
            stack.pop()

        if idx == RUN_PROTOCOL:
            def traced(*args, **kwargs):
                span = before()
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.alloc_peak_bytes += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    after(span)
        elif idx == TO_CSV:
            def traced(transcript, path):
                span = before()
                try:
                    return fn(transcript, path)
                finally:
                    after(span)
                    self.csv_bytes += os.path.getsize(path)
        else:
            def traced(*args, **kwargs):
                span = before()
                try:
                    return fn(*args, **kwargs)
                finally:
                    after(span)
        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every traced function wherever sqkd looks it up."""
        modules = [m for key, m in list(sys.modules.items()) if key == "sqkd" or key.startswith("sqkd.")]
        for idx, (mod, qual) in enumerate(TRACED):
            owner = sys.modules.get(f"sqkd.{mod}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # removed by a later change: reported as 0 calls
            wrapper = self._wrap(idx, original)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def metrics(self, items, timed_s):
        """Per-layer metrics per item from the recorded spans."""
        ids = np.asarray(self.name_id, dtype=np.intp)
        parents = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n = ids.size
        child = np.bincount(parents[parents >= 0], weights=dur[parents >= 0], minlength=n)
        self_time = dur - child
        calls = np.bincount(ids, minlength=len(NAMES))
        self_by_name = np.bincount(ids, weights=self_time, minlength=len(NAMES))
        out = {}
        for k, name in enumerate(NAMES):
            out[f"{name}.calls_per_item"] = int(calls[k]) / items
            out[f"{name}.self_us_per_item"] = float(self_by_name[k]) * 1e6 / items
        out["protocol.run_protocol.alloc_peak_bytes_per_item"] = self.alloc_peak_bytes / items
        out["protocol.ProtocolTranscript.to_csv.bytes_per_item"] = self.csv_bytes / items
        out["traced.items_per_s"] = items / timed_s
        return out

    def write(self, path):
        np.savez(
            path,
            names=np.array(NAMES),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
