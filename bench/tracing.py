"""Span tracing of photonpad's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every module binding
that holds it (``channels.lift_symmetric`` as well as ``su2.lift_symmetric``),
so calls between modules are seen too, and ``uninstall`` puts the originals
back. No program file is edited. A function the program no longer has is
reported as absent.

A span is (name, start, end, parent span, op id). Spans are kept in memory
while the run lasts and written out by ``write``. A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

MODULES = ("photonpad", "photonpad.fock", "photonpad.su2", "photonpad.designs",
           "photonpad.channels", "photonpad.security", "photonpad.linalg", "photonpad.cli")

# (home module, function), grouped by the workload each should move.
TRACED = (
    ("su2", "lift_symmetric"), ("su2", "tensor_power"), ("fock", "symmetric_embedding"),
    ("channels", "choi_block"),
    ("su2", "haar_moment"), ("designs", "ensemble_moment"), ("designs", "frame_potential"),
    ("designs", "haar_frame_potential"), ("designs", "is_k_design"),
    ("su2", "block_lift"), ("channels", "apply_channel"), ("channels", "parity_dephase"),
    ("channels", "photon_number_dephase"), ("su2", "check_density"), ("fock", "build_source_state"),
    ("linalg", "trace_norm"),
    ("security", "security_report"), ("security", "leakage"), ("linalg", "frobenius"),
    ("cli", "main"), ("su2", "haar_choi"), ("channels", "as_choi_operator"),
)
TRACED_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
QUADRATURE = "su2.HaarQuadrature"
OP = "op"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.bindings: dict[str, int] = {}
        self.lift_keys: set = set()
        self.haar_keys: set = set()
        self.tensor_bytes = 0
        self.quadrature_ms = 0.0
        self._plan: list | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if self._plan is None:
            self._plan = self._build_plan()
        for target, attr, _, wrapper in self._plan:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in reversed(self._plan or []):
            setattr(target, attr, original)

    def _build_plan(self) -> list:
        plan = []
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                continue
        for home, func in TRACED:
            name = f"{home}.{func}"
            try:
                original = getattr(importlib.import_module(f"photonpad.{home}"), func)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            bindings = [(module, attr) for module in modules
                        for attr, value in vars(module).items() if value is original]
            plan += [(module, attr, original, wrapper) for module, attr in bindings]
            self.bindings[name] = len(bindings)
        try:
            prop = vars(importlib.import_module("photonpad.su2").HaarQuadrature)["_nodes"]
            plan.append((prop, "func", prop.func, self._timed_build(prop.func)))
        except (ImportError, AttributeError, KeyError):
            self.absent.append(QUADRATURE)
        return plan

    def _timed_build(self, original):
        @functools.wraps(original)
        def build(instance):
            t0 = time.perf_counter()
            try:
                return original(instance)
            finally:
                self.quadrature_ms += (time.perf_counter() - t0) * 1e3

        return build

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = {
            "su2.lift_symmetric": self._observe_lift,
            "su2.tensor_power": self._observe_tensor,
            "su2.haar_moment": self._observe_haar,
        }.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, t0, t1, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_lift(self, args, kwargs, result) -> None:
        u = np.asarray(_arg(args, kwargs, 0, "u"))
        self.lift_keys.add((u.tobytes(), int(_arg(args, kwargs, 1, "n"))))

    def _observe_tensor(self, args, kwargs, result) -> None:
        self.tensor_bytes += np.asarray(result).nbytes

    def _observe_haar(self, args, kwargs, result) -> None:
        self.haar_keys.add(int(_arg(args, kwargs, 0, "k")))

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run one op under a root span; returns what ``call`` returns."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.op = op_id
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.op = None
            self.spans[index] = (0, t0, t1, -1, op_id)

    # -- results --------------------------------------------------------------

    def summary(self, ops: int) -> dict:
        """Per-layer metrics over ``ops`` traced ops."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for i, (name_id, t0, t1, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += t1 - t0 - child[i]
            incl_s[name_id] += t1 - t0
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for name in TRACED_NAMES:
            if name in index:
                out[f"{name}.calls_per_op"] = calls[index[name]] / ops
                out[f"{name}.self_ms_per_op"] = self_s[index[name]] * 1e3 / ops
        if "su2.lift_symmetric" in index:
            lift = index["su2.lift_symmetric"]
            out["su2.lift_symmetric.unique_ratio"] = len(self.lift_keys) / max(calls[lift], 1)
            # lift_symmetric never calls itself, so its inclusive time has no double count
            out["su2.lift_symmetric.share_of_op"] = incl_s[lift] / incl_s[0]
        if "su2.tensor_power" in index:
            out["su2.tensor_power.bytes_per_op"] = self.tensor_bytes / ops
        if "su2.haar_moment" in index:
            out["su2.haar_moment.unique_ratio"] = len(self.haar_keys) / max(calls[index["su2.haar_moment"]], 1)
        if QUADRATURE not in self.absent:
            out[f"{QUADRATURE}.build_ms"] = self.quadrature_ms
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name_id, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[name_id], "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent, "op": op}) + "\n")
