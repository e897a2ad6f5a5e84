"""Uniform operations over the concrete process models.

The engines underneath differ (antichain saturation for counter models,
automaton saturation for pushdown processes), but network-level drivers
only need the small shared surface below.
"""

from __future__ import annotations

from typing import Callable, Optional

from .order import ResourceLimits, Verdict, backward_coverability
from .pushdown import (
    PdsConfig,
    PushdownSpec,
    pds_covered_by_initial,
    pds_coverable,
    pds_initial_configs,
    pds_leq,
    pds_min_enabling,
    pds_successors,
)
from .vass import (
    Label,
    VassConfig,
    VassSpec,
    VassSpace,
    add_receives,
    strip_receives,
    vass_covered_by_initial,
    vass_initial_configs,
    vass_leq,
    vass_min_enabling,
    vass_successors,
)

__all__ = [
    "add_receives",
    "broadcast_enabling_basis",
    "config_key",
    "coverable",
    "covered_by_initial",
    "has_receives",
    "initial_configs",
    "leq",
    "min_enabling",
    "receive_total",
    "space",
    "strip_receives",
    "successors",
]


def successors(spec, config, label: Label):
    if isinstance(spec, VassSpec):
        return vass_successors(spec, config, label)
    if isinstance(spec, PushdownSpec):
        return pds_successors(spec, config, label)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def initial_configs(spec):
    if isinstance(spec, VassSpec):
        return vass_initial_configs(spec)
    if isinstance(spec, PushdownSpec):
        return pds_initial_configs(spec)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def leq(spec) -> Callable:
    if isinstance(spec, VassSpec):
        return vass_leq
    if isinstance(spec, PushdownSpec):
        return pds_leq
    raise TypeError(f"unknown process model {type(spec).__name__}")


def covered_by_initial(spec, config) -> bool:
    if isinstance(spec, VassSpec):
        return vass_covered_by_initial(spec, config)
    if isinstance(spec, PushdownSpec):
        return pds_covered_by_initial(spec, config)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def min_enabling(spec, label: Label):
    if isinstance(spec, VassSpec):
        return vass_min_enabling(spec, label)
    if isinstance(spec, PushdownSpec):
        return pds_min_enabling(spec, label)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def broadcast_enabling_basis(spec, letter: str):
    """Basis of the configurations from which ``letter`` can be broadcast."""
    return min_enabling(spec, Label.broadcast(letter))


def has_receives(spec, letter: str) -> bool:
    """Whether the model declares any receive transition for ``letter``."""
    if isinstance(spec, VassSpec):
        pool = spec.transitions
    elif isinstance(spec, PushdownSpec):
        pool = spec.rules
    else:
        raise TypeError(f"unknown process model {type(spec).__name__}")
    return any(not t.label.is_broadcast and t.label.letter == letter for t in pool)


def coverable(spec, target, limits: Optional[ResourceLimits] = None) -> Verdict:
    """Coverability of ``target`` in the plain process transition system."""
    if isinstance(spec, VassSpec):
        return backward_coverability(VassSpace(spec), target, limits)
    if isinstance(spec, PushdownSpec):
        return pds_coverable(spec, target)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def space(spec) -> VassSpace:
    """Ordered-space view for the saturation engine (counter models only)."""
    if isinstance(spec, VassSpec):
        return VassSpace(spec)
    if isinstance(spec, PushdownSpec):
        raise TypeError("the stack prefix order is not a well-quasi ordering; "
                        "pushdown models cannot run under antichain saturation")
    raise TypeError(f"unknown process model {type(spec).__name__}")


def receive_total(spec) -> bool:
    """Whether every state has, for every letter, an active receive that is
    enabled in every configuration of that state: for counter models one
    whose update never decrements, for pushdown models one that reads no
    stack top.  Receives that ``strip_receives`` switched off do not count."""
    if isinstance(spec, VassSpec):
        have = {
            (t.source, t.label.letter)
            for t in spec.active_transitions()
            if not t.label.is_broadcast and all(x >= 0 for x in t.delta)
        }
        return all((s, x) in have for s in spec.states for x in spec.alphabet)
    if isinstance(spec, PushdownSpec):
        have = {
            (r.source, r.label.letter)
            for r in spec.active_rules()
            if not r.label.is_broadcast and r.top == ""
        }
        return all((s, x) in have for s in spec.states for x in spec.alphabet)
    raise TypeError(f"unknown process model {type(spec).__name__}")


def config_key(config):
    """Deterministic sort key for configurations of either model."""
    if isinstance(config, VassConfig):
        return (config.state, config.counters)
    if isinstance(config, PdsConfig):
        return (config.state, config.stack)
    raise TypeError(f"unknown configuration {type(config).__name__}")
