"""Coverability in the plain process transition system.

Each process model carries the protocol the network-level drivers use as
its own members (the methods ``leq``, ``initial_configs``,
``covered_by_initial``, ``successors``, ``min_enabling`` and
``has_receives``, and the property ``receive_total``; see
:class:`~bncover.vass.VassSpec` and
:class:`~bncover.pushdown.PushdownSpec`, and their shared base
:class:`~bncover.vass.ProcessSpec`).  Only the coverability engine
differs between them: :func:`coverable` picks it for one target, and
:func:`coverable_each` for a batch of targets on one process.  Counter
targets whose control state is unreachable, counters ignored, are
settled before any engine runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from .order import ResourceLimits, Verdict, backward_coverability
from .pushdown import PushdownSpec, pds_coverable, pds_saturate


def coverable(spec, target, limits: Optional[ResourceLimits] = None) -> Verdict:
    """Coverability of ``target`` in the plain process transition system:
    automaton saturation for pushdown models, antichain saturation over the
    spec itself for counter models.  A counter target whose control state
    is not in ``spec.control_reachable`` is negative with no saturation:
    0 iterations, and the target as its basis."""
    if isinstance(spec, PushdownSpec):
        return pds_coverable(spec, target)
    if target.state not in spec.control_reachable:
        return Verdict(False, 0, (target,))
    return backward_coverability(spec, target, limits)


def coverable_each(
    spec, targets, limits: Optional[ResourceLimits] = None
) -> Callable[[object], Verdict]:
    """A lookup that answers, for each of ``targets``, what :func:`coverable`
    would.  Pushdown models answer all of them from one saturation, run
    now.  Counter models run :func:`coverable` for a target only when it is
    looked up: their saturations share no work, and a caller that stops
    early skips the rest."""
    if isinstance(spec, PushdownSpec):
        targets = tuple(targets)
        return dict(zip(targets, pds_saturate(spec, targets))).__getitem__
    return lambda target: coverable(spec, target, limits)
