"""Coverability in the plain process transition system.

Each process model carries the protocol the network-level drivers use as
its own methods (``leq``, ``initial_configs``, ``covered_by_initial``,
``successors``, ``min_enabling``, ``has_receives`` and ``receive_total``;
see :class:`~bncover.vass.VassSpec` and
:class:`~bncover.pushdown.PushdownSpec`).  Only the coverability engine
differs between them, and :func:`coverable` picks it.
"""

from __future__ import annotations

from typing import Optional

from .order import ResourceLimits, Verdict, backward_coverability
from .pushdown import PushdownSpec, pds_coverable


def coverable(spec, target, limits: Optional[ResourceLimits] = None) -> Verdict:
    """Coverability of ``target`` in the plain process transition system:
    automaton saturation for pushdown models, antichain saturation over the
    spec itself for counter models."""
    if isinstance(spec, PushdownSpec):
        return pds_coverable(spec, target)
    return backward_coverability(spec, target, limits)
