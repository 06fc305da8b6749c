"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of the library, named by
dotted path, with a timing shim.  Each wrapped call records its inclusive
time; a call's self time is its inclusive time minus the inclusive time of
the wrapped calls made inside it.  Totals are kept in memory per seam
(``calls``, inclusive ns, self ns) and read out when the run ends.

A seam is resolved by name when the tracer is installed.  A name that no
longer resolves (the module or attribute was deleted or renamed) makes
the seam *absent*: it is reported as such and records nothing, and the
run goes on.  The work it used to cover then shows up in the self time of
the enclosing seam.

Installing patches every binding of the original object: the attribute it
was found at, plus any module-level alias in ``repro.*`` created by
``from x import name``.  :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter_ns

__all__ = ["ROOT", "SEAMS", "Tracer", "resolve"]

#: The span around one whole benchmark op; its self time is the time spent
#: outside every wrapped seam.
ROOT = "bench.op"

#: Seam name -> dotted targets.  Every target of a seam that resolves is
#: wrapped; a call of a seam nested directly inside the same seam (a
#: kernel method calling the module-level Dijkstra) is counted once.
SEAMS: dict[str, tuple[str, ...]] = {
    "graphs.dijkstra": (
        "repro.kernels.lists.ListsKernel.dijkstra",
        "repro.kernels.numba_tier.NumbaKernel.dijkstra",
        "repro.graphs.shortest_path.dijkstra_lists",
    ),
    "kernels.index_register": (
        "repro.kernels.lists._EdgeSetIndex.register",
        "repro.kernels.numpy_tier._BitmaskIndex.register",
    ),
    "kernels.index_invalidate": (
        "repro.kernels.lists._EdgeSetIndex.invalidate",
        "repro.kernels.numpy_tier._BitmaskIndex.invalidate",
    ),
    "core.select": ("repro.core.pricing_engine.PathPricingEngine.select",),
    "core.commit": ("repro.core.pricing_engine.PathPricingEngine.commit",),
    "core.dual_update": ("repro.core.dual_state.DualWeights.apply_selection",),
    "core.replay_probe": ("repro.core.trace.TraceReplayer.probe_selected",),
    "lp.build": ("repro.lp.fractional_ufp.solve_fractional_ufp",),
    "lp.solve": ("repro.lp.fractional_ufp.solve_lp",),
    "scenarios.store_append": ("repro.scenarios.store.ResultStore.append",),
    "io.fsync": ("os.fsync",),
    "service.submit": ("repro.service.queue.JobQueue.submit",),
    "service.lease": ("repro.service.queue.JobQueue.lease",),
    "service.complete": ("repro.service.queue.JobQueue.complete",),
    "service.wal_append": ("repro.service.wal.WriteAheadLog.append",),
    "online.auction_run": ("repro.online.auction.OnlineAuction.run",),
}

def resolve(dotted: str):
    """``(owner, attribute, object)`` for a dotted name, or ``None``.

    The longest importable module prefix is imported; the rest is an
    attribute chain.  For a class attribute the owner is the class in the
    MRO that defines it, so an inherited method is patched where it lives.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            obj = getattr(owner, parts[-1])
        except AttributeError:
            return None
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if parts[-1] in vars(k))
            obj = vars(owner)[parts[-1]]
        return owner, parts[-1], obj
    return None


class Tracer:
    """Seam wrappers with per-seam ``[calls, inclusive_ns, self_ns]`` totals."""

    def __init__(self, seams: dict[str, tuple[str, ...]] | None = None) -> None:
        self.seams = dict(SEAMS if seams is None else seams)
        self.absent: list[str] = []
        self._local = threading.local()
        self._per_thread: list[dict[str, list[int]]] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording: each thread keeps its own span stack and totals, so the
    # hot path takes no lock; :attr:`totals` merges them.
    # ------------------------------------------------------------------ #
    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            with self._threads_lock:
                self._per_thread.append(local.totals)
            return local.stack, local.totals

    @property
    def totals(self) -> dict[str, list[int]]:
        """Seam name -> ``[calls, inclusive_ns, self_ns]`` over all threads."""
        merged: dict[str, list[int]] = {}
        with self._threads_lock:
            for totals in self._per_thread:
                for name, values in totals.items():
                    into = merged.setdefault(name, [0, 0, 0])
                    for i, value in enumerate(values):
                        into[i] += value
        return merged

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of seam ``name``."""
        stack, totals = self._thread_state()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            seam = totals.get(name)
            if seam is None:
                seam = totals[name] = [0, 0, 0]
            seam[0] += 1
            seam[1] += elapsed
            seam[2] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def wrap(self, name: str, fn):
        """A plain function that traces ``fn`` as seam ``name`` (binds as a
        method when stored on a class)."""
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every resolvable seam target; note the absent seams."""
        self.absent = []
        seen: set[tuple[int, str]] = set()
        for name, targets in self.seams.items():
            found = False
            for dotted in targets:
                hit = resolve(dotted)
                if hit is None:
                    continue
                owner, attr, obj = hit
                found = True
                if (id(owner), attr) in seen:
                    continue
                seen.add((id(owner), attr))
                traced = self.wrap(name, obj)
                self._patch(owner, attr, traced)
                if not isinstance(owner, type):
                    self._patch_aliases(owner, obj, traced, seen)
            if not found:
                self.absent.append(name)

    def _patch_aliases(self, home, obj, traced, seen) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or module is home:
                continue
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is obj and (id(module), attr) not in seen:
                    seen.add((id(module), attr))
                    self._patch(module, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
