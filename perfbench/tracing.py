"""Spans and counters recorded around calls into the dhsim modules.

`Tracer.install` replaces each traced public function in every dhsim
module namespace that holds it (``dhsim.descriptors.sum_mul``,
``dhsim.reconstruct.sum_mul``, ``dhsim.pauli.sum_mul`` and the package
re-export are one function, wrapped once and patched everywhere), so
calls between modules are seen no matter which name they go through.
Nothing in the package itself is edited; `uninstall` puts the original
functions back.

A span is ``(name, start, end, parent)``, with ``parent`` the index of
the enclosing span or -1.  Spans stay in memory until `write_spans`.
A layer's self time is its span's duration minus the durations of its
direct child spans.

The audit's process pool forks its workers while tracing is on, so the
wrappers run in the workers too.  A worker starts from an empty record
and appends it to a file in `worker_dir` after each top-level call;
`collect_workers` merges those files.  Worker spans have no parent in
this process: they run while `cli.main` waits, and that waiting stays
in `cli.main`'s self time.  ``descriptors.table_builds`` counts distinct
tables, not calls: each worker fills its own table cache, so the number
of calls would depend on how the pool hands out tasks.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs timed as spans.  The span name is
# "<module>.<function>", except apply_gate, which is split by gate kind.
SPANNED = (
    ("pauli", "sum_mul"),
    ("pauli", "sum_add"),
    ("pauli", "sum_scale"),
    ("descriptors", "apply_gate"),
    ("descriptors", "evolve"),
    ("descriptors", "build_rewrite_table"),
    ("reconstruct", "global_density"),
    ("reconstruct", "reduced_density"),
    ("statevector", "evolve_state"),
    ("statevector", "trace_distance"),
    ("infoflow", "classify_information"),
    ("infoflow", "contiguity_audit"),
    ("circuit", "parse"),
    ("circuit", "bind"),
    ("cli", "main"),
)


def _state_key(bc, upto) -> str:
    """Digest of (circuit, binding, step): equal keys mean equal evolved states."""
    from dhsim.circuit import serialize

    text = json.dumps([serialize(bc.circuit), sorted(bc.binding.items()),
                       bc.circuit.resolve_step(upto)])
    return hashlib.sha1(text.encode()).hexdigest()


COUNTERS = (
    "pauli.sum_mul.pairs",
    "pauli.sum_mul.out_terms",
    "descriptors.peak_terms",
    "infoflow.evolve_calls",
    "infoflow.global_density_calls",
)


class Tracer:
    """Wraps the dhsim functions in `SPANNED` and records what they do."""

    def __init__(self, worker_dir: str):
        self.enabled = False
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._worker = False
        self._patched: list = []
        self._reset()

    def _reset(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.states: set = set()
        self.tables: set = set()
        self._stack: list = []

    def _check_process(self) -> None:
        """In a freshly forked worker, drop the record inherited from the parent."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._worker = True
            self._reset()

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            elif self._worker:
                self._flush()

    def _wrap(self, module: str, func: str, fn):
        name = f"{module}.{func}"
        after = getattr(self, f"_after_{func}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._check_process()
            span_name = self._apply_gate_name(args, kwargs) if func == "apply_gate" else name
            result = self._span(span_name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters filled after a call returns ---------------------------------

    def _apply_gate_name(self, args, kwargs) -> str:
        from dhsim.circuit import FIXED_1Q, FIXED_2Q

        gate = args[1] if len(args) > 1 else kwargs["gate"]
        clifford = gate.kind in FIXED_1Q or gate.kind in FIXED_2Q
        return "descriptors.apply_gate_clifford" if clifford else "descriptors.apply_gate_rotation"

    def _after_sum_mul(self, args, kwargs, result):
        a, b = args
        self.counts["pauli.sum_mul.pairs"] += a.num_terms * b.num_terms
        self.counts["pauli.sum_mul.out_terms"] += result.num_terms

    def _after_apply_gate(self, args, kwargs, result):
        gate = args[1] if len(args) > 1 else kwargs["gate"]
        peak = max(
            c.num_terms for q in gate.qubits for c in result.descriptor(q).components
        )
        if peak > self.counts["descriptors.peak_terms"]:
            self.counts["descriptors.peak_terms"] = peak

    def _after_build_rewrite_table(self, args, kwargs, result):
        # Keyed like the package's table cache.  Each pool worker has its own
        # cache, so counting calls would depend on how tasks reach workers;
        # a table built in several processes counts once.
        matrix = np.asarray(getattr(args[0], "matrix", args[0]), dtype=complex)
        self.tables.add(hashlib.sha1(bytes([result.arity]) + matrix.tobytes()).hexdigest())

    # -- call-site counters for the audit layer -----------------------------------

    def _count_infoflow(self, fn, counter: str, record_state: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self._check_process()
                self.counts[counter] += 1
                if record_state:
                    self.states.add(_state_key(args[0], kwargs.get("upto")))
            return fn(*args, **kwargs)

        return wrapper

    # -- records from forked workers ----------------------------------------------

    def _flush(self) -> None:
        record = {"spans": self.spans, "calls": self.calls, "self_s": self.self_s,
                  "counts": self.counts, "states": sorted(self.states),
                  "tables": sorted(self.tables)}
        path = os.path.join(self.worker_dir, f"worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset()

    def collect_workers(self) -> int:
        """Merge and delete the worker files; returns the records merged."""
        merged = 0
        for name in sorted(os.listdir(self.worker_dir)):
            if not (name.startswith("worker-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.worker_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    self._merge(json.loads(line))
                    merged += 1
            os.remove(path)
        return merged

    def _merge(self, record: dict) -> None:
        offset = len(self.spans)
        for name, start, end, parent in record["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        self.calls.update(record["calls"])
        for name, value in record["self_s"].items():
            self.self_s[name] += value
        for name, value in record["counts"].items():
            if name == "descriptors.peak_terms":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self.states.update(record["states"])
        self.tables.update(record["tables"])

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dhsim" or name.startswith("dhsim."))]
        for module, func in SPANNED:
            original = getattr(importlib.import_module(f"dhsim.{module}"), func)
            wrapped = self._wrap(module, func, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        infoflow = importlib.import_module("dhsim.infoflow")
        self._patch(infoflow, "evolve",
                    self._count_infoflow(infoflow.evolve, "infoflow.evolve_calls", True))
        self._patch(infoflow, "global_density",
                    self._count_infoflow(infoflow.global_density,
                                         "infoflow.global_density_calls", False))

    def _patch(self, mod, attr, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values, named as in BENCHMARK.json."""
        out = {}
        for module, func in SPANNED:
            if func == "apply_gate":
                continue
            name = f"{module}.{func}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for kind in ("clifford", "rotation"):
            name = f"descriptors.apply_gate_{kind}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        out["descriptors.table_builds"] = len(self.tables)
        pairs = self.counts["pauli.sum_mul.pairs"]
        out["pauli.sum_mul.yield"] = self.counts["pauli.sum_mul.out_terms"] / pairs if pairs else 0.0
        gates = (self.calls["descriptors.apply_gate_clifford"]
                 + self.calls["descriptors.apply_gate_rotation"])
        out["descriptors.table_hit_ratio"] = (
            1.0 - len(self.tables) / gates if gates else 0.0
        )
        evolves = self.counts["infoflow.evolve_calls"]
        out["infoflow.state_reuse"] = len(self.states) / evolves if evolves else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
