"""The unified compute-kernel layer: hot loops behind one registry.

Three inner loops dominate every auction round of this reproduction — the
shortest-path tree (:func:`repro.graphs.shortest_path.shortest_path_tree`,
which picks the Python heap loop or the compiled csgraph path by graph
size), the exponential dual update of the commit path
(:meth:`repro.core.dual_state.DualWeights.apply_selection`) and the
vectorized CSR bundle scoring of the MUCA engine.  This package hoists all
three behind a process-global **kernel registry**:

* ``"lists"`` — the reference code (the default).  Every other tier is
  tested bit-identical against it.
* ``"numpy"`` — always available.  Same tree path, but a vectorized
  *multiplier-table* dual update on the commit path (the per-edge factors
  ``exp(eps B d / c_e)`` are precomputed over the whole capacity vector
  once per distinct demand and shared across runs on the same substrate —
  payment bisections replay the same demands hundreds of times).
* ``"numba"`` — optional, auto-detected.  The array-heap Dijkstra is
  JIT-compiled over int64/float64 CSR arrays with the exact relaxation
  arithmetic and ``(dist, vertex)`` tie-breaking of the lists loop; the
  commit path reuses the numpy tier's vectorized arithmetic (an
  independently JIT-compiled ``exp``/dot could round differently, and the
  determinism contract outranks the last factor of speed).  When numba is
  not importable the registry **silently falls back to numpy** — selecting
  ``REPRO_KERNEL=numba`` on a numba-less host must never fail a run.

Determinism contract
--------------------
All tiers are **bit-identical** on every output the test suite pins:
allocations, payments, trace replays and campaign-store content hashes,
with and without tracing, at any ``jobs=``.  The numpy tier's dual update
preserves bits by construction: IEEE division is correctly rounded per
element and numpy's ``exp`` ufunc is positionally stable
(``np.exp(x)[ids] == np.exp(x[ids])``, verified by the kernel test
suite), so gathering from a full-vector multiplier table equals the
reference's per-path computation.  ``math.exp`` is forbidden in every
tier — it disagrees with ``np.exp`` in the last ulp on a few percent of
inputs.  The pricing engine's tree-cache invalidation index is not part
of a kernel: every tier uses the same bitmask index
(:class:`repro.kernels.numpy_tier._BitmaskIndex`).

Selection: :func:`set_kernel` / :func:`use_kernel` / the ``REPRO_KERNEL``
environment variable, with an explicit choice (programmatic or
``--kernel``) always beating the environment, including inside ``pmap``
workers (the parent resolves the kernel pre-fork and ships it).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

from repro.kernels.lists import ListsKernel
from repro.kernels.numpy_tier import NumpyKernel

__all__ = [
    "KERNEL_ENV_VAR",
    "available_kernels",
    "get_kernel",
    "set_kernel",
    "set_kernel_from_cli",
    "use_kernel",
    "kernel_available",
]

#: Environment variable consulted for the initial kernel selection.
KERNEL_ENV_VAR = "REPRO_KERNEL"

_LISTS_KERNEL = ListsKernel()
_NUMPY_KERNEL = NumpyKernel()

_active_kernel = None


def _make_kernel(name: str):
    if name == "lists":
        return _LISTS_KERNEL
    if name == "numpy":
        return _NUMPY_KERNEL
    if name == "numba":
        from repro.kernels.numba_tier import load_numba_kernel

        return load_numba_kernel()  # raises ImportError when numba is absent
    raise KeyError(
        f"unknown compute kernel {name!r}; available: {available_kernels()}"
    )


def available_kernels() -> list[str]:
    """Registered kernel names (``"numba"`` listed even if numba is absent;
    explicitly selecting it then raises, env resolution falls back)."""
    return ["lists", "numba", "numpy"]


def kernel_available(name: str) -> bool:
    """Whether ``set_kernel(name)`` would succeed in this environment."""
    try:
        _make_kernel(str(name).strip().lower())
    except (KeyError, ImportError):
        return False
    return True


def get_kernel():
    """The active kernel instance, resolving ``REPRO_KERNEL`` on first use.

    Env-var resolution is forgiving, so an inherited environment can never
    break a run: an unknown name warns and falls back to ``"lists"``;
    ``"numba"`` without numba installed falls back **silently** to the
    numpy tier (same bits, no JIT) — that silent downgrade is part of the
    kernel contract and is exercised by the test suite.
    """
    global _active_kernel
    if _active_kernel is None:
        name = os.environ.get(KERNEL_ENV_VAR, "lists").strip().lower() or "lists"
        try:
            set_kernel(name)
        except KeyError as exc:
            warnings.warn(
                f"{KERNEL_ENV_VAR}={name!r} unknown ({exc}); using 'lists'",
                stacklevel=2,
            )
            _active_kernel = _LISTS_KERNEL
        except ImportError:
            # numba requested but not importable: the numpy tier is the
            # drop-in replacement (bit-identical, always available).
            _active_kernel = _NUMPY_KERNEL
    return _active_kernel


def set_kernel(name: str):
    """Select the process-global compute kernel by name.

    Returns the kernel instance.  Raises ``KeyError`` for unknown names and
    ``ImportError`` when the numba tier is requested without numba — the
    explicit API fails fast; only *env-var* resolution falls back.
    """
    global _active_kernel
    _active_kernel = _make_kernel(str(name).strip().lower())
    return _active_kernel


def set_kernel_from_cli(name: str, parser) -> None:
    """:func:`set_kernel` with argparse-friendly error reporting.

    Shared by the experiments and scenarios CLIs' ``--kernel`` flags: an
    explicit argument always beats an inherited ``REPRO_KERNEL``; an
    unknown or unavailable kernel exits via ``parser.error``.
    """
    try:
        set_kernel(name)
    except (KeyError, ImportError) as exc:
        parser.error(str(exc))


@contextmanager
def use_kernel(name: str):
    """Context manager form of :func:`set_kernel` (restores the previous
    kernel on exit) — the parity tests' workhorse."""
    global _active_kernel
    previous = get_kernel()
    set_kernel(name)
    try:
        yield _active_kernel
    finally:
        _active_kernel = previous
