"""Layer tracer: times calls into each layer's public functions from outside.

Nothing under ``src/`` knows about this module.  :meth:`LayerTracer.install`
replaces each target function -- in its class, or in every ``repro``
module that imported it by name -- with a wrapper that pushes a frame on
one per-call stack.  When the call returns, its inclusive time is added
to the parent frame's child time, and its *self* time (inclusive minus
the children) to its layer.  Every traced second is therefore claimed by
at most one layer, so the layer self times plus the unclaimed remainder
(``unattributed_s``) add up to the traced wall time exactly.

Install before the traced work builds any ``Cluster``: construction
binds some methods into tables (the RPC endpoint's op table, the
dispatch table), and a table built before install keeps the unwrapped
originals.  Generator functions are wrapped so that only the time inside
each ``next()`` is charged, not the consumer's time between items.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

_BENCH_DIR = str(Path(__file__).resolve().parent)


@dataclass(frozen=True)
class Layer:
    """One timed layer: its self-time metric and the functions it owns.

    ``targets`` are ``"module:qualname"`` strings (``"Class.method"`` for
    methods).  ``keyed`` also books each call's inclusive time under its
    first argument (the experiment id for ``run_experiment``).
    ``count`` maps each call's return value to a work count summed per
    window (records generated, for the workload layer).
    """

    name: str
    targets: tuple[str, ...]
    keyed: bool = False
    count: Callable[[Any], int] | None = None


def public_targets(package: str, result_classes: bool = False) -> tuple[str, ...]:
    """Every public module-level function defined under ``package``, and
    with ``result_classes`` the public methods of its ``*Result`` classes
    (the accumulators the experiments feed access by access).  A package
    that no longer imports comes back as one unresolvable target, so it
    is reported as not measured."""
    try:
        root = importlib.import_module(package)
    except ImportError:
        return (f"{package}:*",)
    names = [package] + [
        f"{package}.{info.name}"
        for info in pkgutil.iter_modules(root.__path__)
    ]
    targets: list[str] = []
    for module_name in names:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module_name:
                targets.append(f"{module_name}:{name}")
            elif (
                result_classes
                and inspect.isclass(value)
                and value.__module__ == module_name
                and name.endswith("Result")
            ):
                targets.extend(
                    f"{module_name}:{name}.{method}"
                    for method in public_methods(value)
                )
    return tuple(targets)


def public_methods(cls: type) -> list[str]:
    """Names of the plain, static and class methods ``cls`` defines
    itself, without the private ones (properties are not calls)."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(value)
            or isinstance(value, (staticmethod, classmethod))
        )
    ]


def class_targets(module: str, *classes: str) -> tuple[str, ...]:
    """The public methods of ``classes`` in ``module`` as targets; a class
    that is gone comes back as one unresolvable target."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        mod = None
    targets: list[str] = []
    for name in classes:
        cls = getattr(mod, name, None)
        if cls is None:
            targets.append(f"{module}:{name}.*")
        else:
            targets.extend(f"{module}:{name}.{m}" for m in public_methods(cls))
    return tuple(targets)


def standard_layers() -> tuple[Layer, ...]:
    """The layer map of METRICS.md, resolved against the current code."""
    analysis = tuple(
        t for t in public_targets("repro.analysis", result_classes=True)
        if t != "repro.analysis.episodes:assemble_accesses"
    )
    return (
        Layer(
            "workload.generate_s",
            ("repro.workload.generator:generate_trace",),
            count=lambda trace: trace.record_count,
        ),
        Layer("trace.validate_s", ("repro.trace.validate:validate_stream",)),
        Layer("trace.merge_s", ("repro.trace.columnar:ColumnarTrace.merge",)),
        Layer("trace.materialize_s", (
            "repro.trace.columnar:ColumnarTrace.iter_chunks",
            "repro.trace.columnar:ColumnarTrace.materialize",
        )),
        Layer("analysis.accesses_s", ("repro.analysis.episodes:assemble_accesses",)),
        Layer("analysis.self_s", analysis),
        Layer("caching.self_s", public_targets("repro.caching")),
        Layer(
            "consistency.self_s",
            public_targets("repro.consistency", result_classes=True),
        ),
        Layer("fs.construct_s", ("repro.fs.cluster:Cluster.__init__",)),
        Layer("fs.replay_self_s", ("repro.fs.cluster:Cluster.replay",)),
        Layer("fs.client_self_s", class_targets("repro.fs.client", "ClientKernel")),
        Layer("fs.paging_self_s", ("repro.fs.paging:PagingModel.on_activity",)),
        Layer("fs.rpc_self_s", class_targets("repro.fs.rpc", "RpcTransport")),
        Layer("fs.server_self_s", class_targets("repro.fs.server", "Server")),
        Layer("fs.merge_s", ("repro.fs.cluster:merge_cluster_results",)),
        Layer("fs.oracle_self_s", class_targets("repro.fs.oracle", "ProtocolOracle")),
        Layer("fs.faults_self_s", (
            "repro.fs.faults:FaultSchedule.generate",
            "repro.fs.faults:FaultSchedule.generate_grouped",
            *class_targets("repro.fs.faults", "FaultInjector"),
        )),
        Layer("fs.replication_self_s", (
            *class_targets(
                "repro.fs.replication",
                "ReplicaMap", "GroupReplication", "ReplicationManager",
            ),
            "repro.fs.replication:compute_replication_study",
        )),
        Layer("fs.integrity_self_s", (
            *class_targets("repro.fs.integrity", "IntegrityManager"),
            *(
                f"repro.fs.integrity:{name}"
                for name in (
                    "block_checksum", "checksum_ok", "block_payload",
                    "compute_integrity_study",
                )
            ),
        )),
        Layer("sim.run_until_self_s", ("repro.sim.engine:Engine.run_until",)),
        Layer(
            "experiments.self_s",
            ("repro.experiments.registry:run_experiment",),
            keyed=True,
        ),
    )


class LayerTracer:
    """Per-layer self time and call counts over explicit windows."""

    def __init__(self, layers: tuple[Layer, ...]) -> None:
        self.layers = layers
        self._stack: list[list[float]] = []
        self._self = [0.0] * len(layers)
        self._calls = [0] * len(layers)
        self._keyed: dict[str, float] = {}
        self._top = [0.0]  # inclusive time of outermost spans
        self._gc_start = 0.0
        self._gc_pause = 0.0
        self._gc_gen2 = 0
        self._restore: list[tuple[object, str, object]] = []
        self._counted = [0] * len(layers)
        #: Targets that no longer resolve: reported, never estimated.
        self.not_measured: list[str] = []

    # --- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for slot, layer in enumerate(self.layers):
            for target in layer.targets:
                if not self._patch(slot, layer, target):
                    self.not_measured.append(target)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, slot: int, layer: Layer, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if inspect.isclass(owner) else None
            if raw is None:
                return False
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(slot, layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(slot, layer, raw)
            else:
                return False
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            return False
        wrapped = self._wrap(slot, layer, original)
        # Rebind every module-level name for the function, so callers
        # that imported it with ``from ... import`` see the wrapper too.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name.startswith("repro")
                or (getattr(mod, "__file__", None) or "").startswith(_BENCH_DIR)
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)
        return True

    def _wrap(self, slot: int, layer: Layer, fn):
        stack = self._stack
        self_times = self._self
        calls = self._calls
        top = self._top
        keyed = self._keyed if layer.keyed else None
        clock = perf_counter
        count = layer.count
        counted = self._counted

        def close(frame: list[float], start: float) -> float:
            elapsed = clock() - start
            stack.pop()
            self_times[slot] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            else:
                top[0] += elapsed
            return elapsed

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[slot] += 1
                iterator = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[slot] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = close(frame, start)
                if keyed is not None:
                    key = str(args[0]) if args else "?"
                    keyed[key] = keyed.get(key, 0.0) + elapsed
            if count is not None:
                counted[slot] += count(result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self._gc_pause += perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self._gc_gen2 += 1

    # --- windows ---------------------------------------------------------------

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self._self[:] = [0.0] * len(self.layers)
        self._calls[:] = [0] * len(self.layers)
        self._keyed.clear()
        self._top[0] = 0.0
        self._gc_pause = 0.0
        self._gc_gen2 = 0
        self._counted[:] = [0] * len(self.layers)

    def snapshot(self, wall: float) -> dict:
        """Self seconds and calls per layer since :meth:`reset`, with the
        unattributed remainder of ``wall`` (the window's traced wall)."""
        claimed = sum(self._self)
        if abs(claimed - self._top[0]) > 1e-6 * max(1.0, claimed):
            raise RuntimeError(
                f"span accounting broke: self times sum to {claimed} s but "
                f"outermost spans cover {self._top[0]} s"
            )
        return {
            "self_s": {
                layer.name: seconds
                for layer, seconds in zip(self.layers, self._self)
            },
            "calls": {
                layer.name: count
                for layer, count in zip(self.layers, self._calls)
            },
            "counted": {
                layer.name: count
                for layer, count in zip(self.layers, self._counted)
            },
            "keyed_s": dict(self._keyed),
            "unattributed_s": wall - self._top[0],
            "wall_s": wall,
            "gc_pause_s": self._gc_pause,
            "gc_gen2_collections": self._gc_gen2,
        }
