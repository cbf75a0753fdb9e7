"""One bundle for the scoring/search context: :class:`PlanningContext`.

Every planning entry point —
:func:`~repro.scheduler.objectives.score_placement`,
:func:`~repro.search.engine.find_best_placement`,
:func:`~repro.scheduler.robust.rank_placements_robust` and the
:class:`~repro.scheduler.planner.ResourceConstrainedPlanner` — takes
its platform, staging tier, robustness term, stage cache and engine
choice through one frozen ``context=`` object instead of repeated
keyword lists. It is the only spelling: the entry points have no
``cluster``/``dtl``/``robustness``/``cache`` keywords of their own.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.dtl.base import DataTransportLayer
    from repro.faults.analytic import RobustnessTerm
    from repro.platform.cluster import Cluster
    from repro.search.cache import StageCache


@dataclasses.dataclass(frozen=True)
class PlanningContext:
    """Everything a planning call needs beyond the spec and budget.

    Parameters
    ----------
    cluster / dtl:
        Platform model and staging tier (both default to the
        Cori-like models when ``None``).
    robustness:
        Optional :class:`~repro.faults.analytic.RobustnessTerm`
        penalizing fragile placements.
    cache:
        Optional shared :class:`~repro.search.cache.StageCache`;
        callees build a compatible one when omitted.
    vectorized:
        Opt in to the column-kernel search path.
    """

    cluster: Optional["Cluster"] = None
    dtl: Optional["DataTransportLayer"] = None
    robustness: Optional["RobustnessTerm"] = None
    cache: Optional["StageCache"] = None
    vectorized: bool = False

    def evolve(self, **changes) -> "PlanningContext":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


#: the context every entry point uses when ``context`` is omitted
DEFAULT_CONTEXT = PlanningContext()
