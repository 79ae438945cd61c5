"""Spans around the public functions of every dfspulse module, taken from
outside the package.

`Tracer.install()` wraps each public function, each public method and each
hand-written constructor of the seven modules, and rebinds the wrapper in
every namespace that holds the original: the defining module, every module
that imported the name, the package itself, and module-level dicts such as
`verification.SUITES`.  `_private` helpers are never wrapped, so their time
counts as self time of the public function that calls them.

A span is (id, parent, exec_id, name, start, end, thread, work).  `exec_id`
is shared by all spans of one scenario execution.  `work` is a size counted
from the call's arguments (see WORK).  Spans stay in memory until
`write_spans` is called.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dfspulse.cli import KINDS
from dfspulse.sequences import Free

LAYERS = ("cli", "verification", "baths", "sequences", "dfs", "gates", "pauli")


def _dim3(arg: str):
    def work(bound: inspect.BoundArguments) -> int:
        return int(np.asarray(bound.arguments[arg]).shape[0]) ** 3
    return work


def _propagator_work(bound) -> int:
    # one dim x dim matmul per event
    return len(bound.arguments["seq"].events) * bound.arguments["model"].dim ** 3


def _dephasing_work(bound) -> int:
    # trajectories x cycles x free segments per cycle x noise streams
    a = bound.arguments
    frees = sum(isinstance(e, Free) for e in a["seq"].events)
    streams = 2 if a["mode"] == "independent" else 1
    return a["n_traj"] * a["n_cycles"] * frees * streams


# span name -> work counted from the bound call arguments
WORK = {
    "pauli.expm_i": _dim3("h"),
    "pauli.generator_of": _dim3("u"),
    "pauli.spectral_norm": _dim3("m"),
    "sequences.propagator": _propagator_work,
    "baths.dephasing_run": _dephasing_work,
}


def _public_callables(layer: str, module):
    """(owner, attribute, original, span name) for each wrapped callable."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr == "__init__":
                    # dataclass-generated constructors have no source file
                    if (inspect.isfunction(member)
                            and member.__code__.co_filename == module.__file__):
                        yield obj, attr, member, f"{layer}.{name}"
                elif not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (classmethod, staticmethod))):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.exec_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        ids = self._ids
        clock = time.perf_counter
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a span opened in a worker thread is caused by the span that the
            # main thread has open (the pool runs inside it)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            n = 0
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = work(bound)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.exec_id, name, start, end,
                               threading.get_ident(), n))
        return traced

    def install(self) -> None:
        """Wrap and rebind; `uninstall` puts every original back."""
        import dfspulse
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"dfspulse.{layer}"]
            for owner, attr, member, name in _public_callables(layer, module):
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(member.__func__, name))
                else:
                    wrapped = self._wrap(member, name)
                    wrappers[id(member)] = wrapped
                self._restore.append((owner, attr, member))
                setattr(owner, attr, wrapped)
        namespaces = [dfspulse] + [sys.modules[f"dfspulse.{x}"] for x in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON array per line after a header line naming the fields.

        Start and end are in nanoseconds from the first span's start; threads
        are numbered in order of appearance.
        """
        origin = min((s[4] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with path.open("w") as fh:
            fh.write(json.dumps(["id", "parent", "exec", "name", "start_ns",
                                 "end_ns", "thread", "work"]) + "\n")
            for sid, parent, exec_id, name, start, end, thread, work in self.spans:
                fh.write(json.dumps([sid, parent, exec_id, name,
                                     round((start - origin) * 1e9),
                                     round((end - origin) * 1e9),
                                     threads.setdefault(thread, len(threads)), work])
                         + "\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and work.

    Self time is a span's duration minus the durations of its children on
    the same thread; children in worker threads run alongside the parent and
    are not subtracted.
    """
    child_time: dict[int, float] = defaultdict(float)
    thread_of = {s[0]: s[6] for s in spans}
    for sid, parent, _, _, start, end, thread, _ in spans:
        if parent and thread_of.get(parent) == thread:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                "self_s": 0.0, "work": 0})
    for sid, _, _, name, start, end, _, work in spans:
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        row["work"] += work
    return dict(out)


# span name -> the fields reported for it; `n3` is the span's work
PICKED = {
    "baths.dephasing_run": ("calls", "self_s"),
    "baths.SpectralNoise.draw": ("s",),
    "baths.SpectralNoise.trajectory_rng": ("s",),
    "pauli.expm_i": ("calls", "self_s", "n3"),
    "pauli.generator_of": ("calls", "self_s", "n3"),
    "pauli.spectral_norm": ("calls", "self_s", "n3"),
    "pauli.to_dense": ("calls", "self_s"),
    "pauli.kron_all": ("calls", "self_s"),
    "pauli.OperatorSum": ("calls", "self_s"),
    "sequences.propagator": ("calls", "self_s", "n3"),
    "sequences.event_unitary": ("calls", "self_s"),
    "dfs.block_collective_residual": ("self_s",),
    "dfs.classify": ("calls", "self_s"),
    "verification.run_all": ("s",),
}


def layer_metrics(spans, exec_kinds: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans.

    `exec_kinds` maps each scenario execution id of the pass to its kind.
    `X.self_s` is self time (see `summarize`), `<layer>.self_s` sums a
    layer, `.s` is inclusive time, `n3` and `baths.traj_segments` are the
    WORK of the calls.
    """
    by_name = summarize(spans)

    def get(name, field):
        return by_name.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        rows = [r for n, r in by_name.items() if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        if layer == "gates":
            m["gates.calls"] = sum(r["calls"] for r in rows)

    for name, fields in PICKED.items():
        for field in fields:
            m[f"{name}.{field}"] = get(name, "work" if field == "n3" else field)
    segments = get("baths.dephasing_run", "work")
    m["baths.traj_segments"] = segments
    m["baths.ns_per_traj_segment"] = (
        1e9 * get("baths.dephasing_run", "s") / segments if segments else 0.0)

    per_kind = dict.fromkeys(KINDS, 0.0)
    for sid, _, exec_id, name, start, end, _, _ in spans:
        if name == "cli.run_scenario" and exec_id in exec_kinds:
            per_kind[exec_kinds[exec_id]] += end - start
    for kind, secs in per_kind.items():
        m[f"cli.run_scenario.{kind}.s"] = secs
    m["trace.spans"] = len(spans)
    return m
