"""The fractional relaxation of the multi-unit combinatorial auction ILP.

The auction ILP is the "paths are fixed" special case of the Figure 1 ILP:
each bid ``r`` has a single 0/1 variable ``x_r``, items ``u`` constrain
``sum_{r : u in U_r} x_r <= c_u``.  Its relaxation is a plain packing LP and
is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.auctions.instance import MUCAInstance
from repro.lp.model import LinearProgram
from repro.lp.solver import solve_lp
from repro.types import SolverStatus

__all__ = ["FractionalMUCAResult", "solve_fractional_muca"]


@dataclass(frozen=True)
class FractionalMUCAResult:
    """Solution of the fractional auction relaxation.

    Attributes
    ----------
    objective:
        The fractional optimum ``sum_r v_r x_r``.
    fractions:
        Array over bids with the fractional acceptance ``x_r in [0, 1]``.
    item_duals:
        Dual prices ``y_u`` of the multiplicity constraints.
    status:
        Solver status.
    """

    objective: float
    fractions: np.ndarray
    item_duals: np.ndarray
    status: SolverStatus

    @property
    def ok(self) -> bool:
        return self.status.ok


def solve_fractional_muca(
    instance: MUCAInstance,
    *,
    raise_on_failure: bool = True,
) -> FractionalMUCAResult:
    """Solve the fractional relaxation of a multi-unit auction instance."""
    num_bids = instance.num_bids
    num_items = instance.num_items

    if num_bids == 0:
        return FractionalMUCAResult(
            objective=0.0,
            fractions=np.zeros(0),
            item_duals=np.zeros(num_items),
            status=SolverStatus.OPTIMAL,
        )

    lp = LinearProgram()
    lp.add_variables(num_bids, objective=[bid.value for bid in instance.bids], upper=1.0)

    # One packing row per item: the accepted bids containing it.  An item no
    # bid wants keeps an empty row so dual indexing stays aligned with item
    # ids.
    items = [u for bid in instance.bids for u in bid.bundle]
    owners = [r for r, bid in enumerate(instance.bids) for _ in bid.bundle]
    lp.add_le_rows(items, owners, np.ones(len(items)), instance.multiplicities)

    solution = solve_lp(lp, raise_on_failure=raise_on_failure)

    if not solution.ok:
        return FractionalMUCAResult(
            objective=float("nan"),
            fractions=np.full(num_bids, np.nan),
            item_duals=np.full(num_items, np.nan),
            status=solution.status,
        )

    fractions = solution.x[:num_bids].copy()
    item_duals = solution.ineq_duals[:num_items].copy()
    return FractionalMUCAResult(
        objective=float(solution.objective),
        fractions=fractions,
        item_duals=item_duals,
        status=solution.status,
    )
