"""Self-time spans around the public entry point of each simulator layer.

The spans are installed from outside the program: each listed callable
is replaced on its class (or module) by a timing wrapper while a traced
pass runs, and put back afterwards, so ``src/`` carries no tracing code.
A layer's self time is the time inside its calls minus the time inside
the wrapped calls they make, so self times of all layers never overlap
and their sum is the wall time the spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

#: layer name -> [(module path, owner name or None, [callable names])].
#: An owner that is a class also wraps every subclass that overrides the
#: callable; ``None`` means the names are module-level functions.
LAYERS: dict[str, list[tuple[str, str | None, list[str]]]] = {
    "kernel": [("repro.sim.kernels", "SimKernel", ["run_blocks"])],
    "isa": [("repro.core.isa", "TdNucaISA",
             ["tdnuca_register", "tdnuca_invalidate", "tdnuca_flush"])],
    "extensions": [("repro.runtime.extensions", "RuntimeExtension",
                    ["on_task_created", "on_task_start", "on_task_end"])],
    "tdg": [("repro.runtime.tdg", "TaskGraph",
             ["add_task", "mark_finished", "initial_ready"])],
    "trace": [("repro.runtime.trace", "TraceCache", ["get_or_build"])],
    "pagetable": [("repro.mem.pagetable", "PageTable", ["translate_blocks"])],
    "machine": [("repro.sim.machine", "Machine", ["run_task_trace"])],
    "executor": [("repro.runtime.executor", "Executor", ["run"])],
    "traffic": [("repro.noc.traffic", "TrafficStats", ["add_batch"])],
    "nuca": [("repro.nuca.base", "NucaPolicy", ["classify_pages"])],
    "harness": [("repro.api", "Session", ["sweep"])],
    "session": [("repro.api", None, ["_run_one"])],
    "workloads": [("repro.workloads.base", "Workload", ["build"])],
}


#: modules that define subclasses lazily imported by the program; they
#: must be loaded before the subclass walk in :meth:`Spans.install`.
PRELOAD = ("repro.sim.kernels.reference", "repro.sim.kernels.vector",
           "repro.sim.kernels.verify")


def _owners(owner: Any) -> list[Any]:
    """``owner`` and, for a class, every subclass below it."""
    if not isinstance(owner, type):
        return [owner]
    out, todo = [], [owner]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Spans:
    """Accumulates per-layer self time and call counts while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: every SimKernel instance that ran a task, for its KernelStats.
        self.kernels: dict[int, Any] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, name: str, layer: str,
              note: Callable[[tuple], None] | None) -> None:
        original = vars(owner)[name]
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if note is not None:
                note(args)
            stack.append(0.0)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                spent = perf() - t0
                self_s[layer] += spent - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += spent

        timed.__wrapped__ = original
        setattr(owner, name, timed)
        self._undo.append((owner, name, original))

    def install(self) -> None:
        import importlib

        for module_path in PRELOAD:
            importlib.import_module(module_path)

        def note_kernel(args: tuple) -> None:
            self.kernels[id(args[0])] = args[0]

        for layer, targets in LAYERS.items():
            note = note_kernel if layer == "kernel" else None
            for module_path, owner_name, names in targets:
                module = importlib.import_module(module_path)
                root = module if owner_name is None else getattr(module, owner_name)
                for owner in _owners(root):
                    for name in names:
                        if name in vars(owner):
                            self._wrap(owner, name, layer, note)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Spans":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def vector_task_frac(self) -> float:
        total = vector = 0
        for kernel in self.kernels.values():
            total += kernel.stats.tasks_total
            vector += kernel.stats.tasks_vector
        return vector / total if total else 0.0
