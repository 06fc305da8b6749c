"""Test helper: pin which path computes full shortest-path trees."""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager


@contextmanager
def use_tree_path(name: str):
    """Pin which path computes full shortest-path trees inside the block.

    ``"lists"`` keeps every graph on the Python heap loop; ``"scipy"`` sends
    every graph, whatever its size, to the compiled csgraph path (which
    still declines the inputs outside its contract).  Outside the block the
    size-selected default applies again.
    """
    sp = importlib.import_module("repro.graphs.shortest_path")
    crossover = {"lists": sys.maxsize, "scipy": 0}[name]
    previous = sp.COMPILED_MIN_VERTICES
    sp.COMPILED_MIN_VERTICES = crossover
    try:
        yield
    finally:
        sp.COMPILED_MIN_VERTICES = previous
