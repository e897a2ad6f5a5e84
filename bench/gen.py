"""Seeded model generators for the benchmark suites.

Every model is produced as text in the ``bncover`` model format, so set-up
parses it with ``parse_model`` exactly as ``bncover verify`` would.  A
family generator maps a *model seed* to one model; the same model seed
always gives byte-identical text.

A workload's suite is fixed: the ``SUITES`` table below lists its entries.
The counter-process suite is the first ``VASS_MODELS`` model seeds, all
of them.  The other suites keep, in model-seed order, the entries whose
queries each took a time within a window when the family was scanned,
so that no query is instantaneous or dominates a run (``python3
bench/pool.py`` rescans the generators and prints the entries).  Verdicts
and witnesses play no part in the choice.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Shape of each family.  The README's suite table is written from these.
CHAIN_ROLES = 2          # each role: an initial state and a chain of CHAIN_LENGTH steps
CHAIN_LENGTH = 4
CHAIN_EXTRA = 2          # extra transitions between arbitrary states
CHAIN_LETTERS = "abcd"
VASS_STATES = 10         # s0..s9; s0 starts with counters (1,1,1)
VASS_DIM = 3
VASS_TRANS = 30
VASS_LETTERS = "abcd"
VASS_QUERIES = 6         # targets per model
VASS_MODELS = 140        # model seeds 0.. of the rbn-vass suite
PDS_STATES = 20          # p0..p19; p0 is initial
PDS_RULES = 200
PDS_STACK = "ABC"
PDS_LETTERS = "mnp"
PDS_QUERIES = 5

PATH_SEMANTICS = ("path-bounded:3", "path-bounded:4", "clique")
DIAM_SEMANTICS = ("diam-deg:2,2,3",)


def _rng(family: str, model_seed: int) -> random.Random:
    return random.Random(f"{family}-{model_seed}")


def _mentioned(lines, prefix: str) -> list[str]:
    found = {w for line in lines for w in re.findall(rf"\b{prefix}\d+\b", line)}
    return sorted(found, key=lambda w: int(w[1:]))


def chain_protocol(model_seed: int) -> tuple[list[str], list[str]]:
    """Receive-completed one-counter protocol for the fixed-topology deciders.

    ``CHAIN_ROLES`` roles, each an initial state with counter 1 followed by
    a chain of ``CHAIN_LENGTH`` transitions, plus ``CHAIN_EXTRA``
    transitions between any two states.  Every transition draws a sigil and
    a letter; broadcasts add -1, 0 or +1 to the counter, receives 0 or +1.
    Receives never decrement, so after completion every configuration can
    receive every letter: the processes are receive-total, the domain in
    which positive fixed-topology verdicts are sound.  Returns the model
    lines without queries and the non-initial chain states, the targets.
    """
    rng = _rng("chain", model_seed)
    lines = ["process vass dim=1"]
    targets: list[str] = []
    base = 0
    for _ in range(CHAIN_ROLES):
        lines.append(f"init q{base} vector=(1)")
        for i in range(CHAIN_LENGTH):
            lines.append(_counter_trans(rng, f"q{base + i}", f"q{base + i + 1}"))
            targets.append(f"q{base + i + 1}")
        base += CHAIN_LENGTH + 1
    every = [f"q{i}" for i in range(base)]
    for _ in range(CHAIN_EXTRA):
        lines.append(_counter_trans(rng, rng.choice(every), rng.choice(every)))
    lines.append("option complete-receives dead=qdead")
    return lines, targets


def _counter_trans(rng: random.Random, src: str, dst: str) -> str:
    sigil = rng.choice(("!!", "??"))
    delta = rng.choice((-1, 0, 1)) if sigil == "!!" else rng.choice((0, 1))
    return f"trans {src} -> {dst} on {sigil}{rng.choice(CHAIN_LETTERS)} delta=({delta:+d})"


def vass_counter(model_seed: int) -> tuple[list[str], list[str]]:
    """Three-counter process for the rewirable semantics: ``VASS_TRANS``
    transitions, each drawing source, sigil, letter, counter update in
    {-1, 0, 0, +1} per counter, and target.  Returns the model lines
    without queries and ``VASS_QUERIES`` targets drawn from the non-initial
    states the transitions mention (fewer when fewer are mentioned)."""
    rng = _rng("vass", model_seed)
    states = [f"s{i}" for i in range(VASS_STATES)]
    ones = ",".join("1" for _ in range(VASS_DIM))
    lines = [f"process vass dim={VASS_DIM}", f"init s0 vector=({ones})"]
    for _ in range(VASS_TRANS):
        src = rng.choice(states)
        sigil = rng.choice(("!!", "??"))
        letter = rng.choice(VASS_LETTERS)
        delta = ",".join(f"{rng.choice((-1, 0, 0, 1)):+d}" for _ in range(VASS_DIM))
        lines.append(f"trans {src} -> {rng.choice(states)} on {sigil}{letter} delta=({delta})")
    candidates = [s for s in _mentioned(lines, "s") if s != "s0"]
    targets = rng.sample(candidates, min(VASS_QUERIES, len(candidates)))
    return lines, sorted(targets, key=lambda w: int(w[1:]))


def pushdown(model_seed: int) -> list[str]:
    """Pushdown process of the rbn-pushdown suite, with ``PDS_QUERIES`` queries."""
    return random_pushdown(_rng("pushdown", model_seed), PDS_STATES, PDS_RULES, PDS_QUERIES)


def random_pushdown(rng: random.Random, n_states: int, n_rules: int, n_queries: int,
                    any_state: bool = False) -> list[str]:
    """Random pushdown process over stack symbols ``ABC`` and letters ``mnp``,
    states ``p0``.. with ``p0`` initial, and rbn queries.

    Each rule draws, in this order: sigil, top (eps or a symbol), push word
    of 0-2 symbols, source, letter, target.  Each query draws a stack word
    of 0-2 symbols, then the state to cover: any state with ``any_state``,
    else a non-initial one.
    """
    states = [f"p{i}" for i in range(n_states)]
    lines = [f"process pushdown stack={PDS_STACK}", "init p0"]
    for _ in range(n_rules):
        sigil = rng.choice(("!!", "??"))
        top = rng.choice(("",) + tuple(PDS_STACK))
        push = "".join(rng.choice(PDS_STACK) for _ in range(rng.randint(0, 2)))
        src, letter, dst = rng.choice(states), rng.choice(PDS_LETTERS), rng.choice(states)
        lines.append(
            f"trans {src} -> {dst} on {sigil}{letter} pre={top or 'eps'} push={push or 'eps'}"
        )
    for _ in range(n_queries):
        stack = "".join(rng.choice(PDS_STACK) for _ in range(rng.randint(0, 2)))
        state = rng.choice(states if any_state else states[1:])
        lines.append(f"query cover state={state} stack={stack or 'eps'} semantics=rbn")
    return lines


def cover_lines(target: str, vector: str, semantics) -> list[str]:
    return [f"query cover state={target} vector={vector} semantics={s}" for s in semantics]


def bundled(name: str, queries) -> str:
    """A model from ``models/`` with its own queries replaced by ``queries``."""
    text = (ROOT / "models" / name).read_text()
    kept = [line for line in text.splitlines() if not line.startswith("query")]
    return "\n".join(kept + list(queries)) + "\n"


# The entries of each suite, as printed by ``python3 bench/pool.py select``
# (model seed, target state) for the chain families, model seeds otherwise.
# Counter processes are not selected at all: their suite is a range of seeds.
SUITES: dict[str, tuple] = {
    "static-path": (
        (0, 'q2'), (0, 'q3'), (0, 'q8'), (0, 'q9'), (1, 'q1'), (1, 'q2'), (1, 'q3'), (1,
        'q4'), (2, 'q8'), (4, 'q3'), (4, 'q4'), (5, 'q3'), (5, 'q9'), (9, 'q4'), (9,
        'q9'), (10, 'q9'), (13, 'q2'), (16, 'q4'), (17, 'q1'), (17, 'q2'), (18, 'q9'),
        (19, 'q9'), (20, 'q2'), (21, 'q4'), (24, 'q8'), (24, 'q9'), (25, 'q8'), (25,
        'q9'), (27, 'q2'), (27, 'q7'), (27, 'q9'), (28, 'q3'), (28, 'q4'), (29, 'q4'),
        (29, 'q9'), (30, 'q1'), (30, 'q2'), (31, 'q6'), (32, 'q4'), (33, 'q3'), (33,
        'q4'), (33, 'q9'), (34, 'q3'), (34, 'q4'), (36, 'q4'), (37, 'q8'), (39, 'q3'),
        (39, 'q4'), (39, 'q8'), (39, 'q9'), (40, 'q3'), (40, 'q4'), (40, 'q9'), (41,
        'q7'), (41, 'q8'), (41, 'q9'), (43, 'q1'), (43, 'q2'), (43, 'q3'), (43, 'q4'),
        (44, 'q4'), (46, 'q1'), (46, 'q2'), (46, 'q3'), (46, 'q4'), (48, 'q4'), (48,
        'q9'), (49, 'q8'), (49, 'q9'), (50, 'q9'), (51, 'q2'), (51, 'q7'), (51, 'q8'),
        (51, 'q9'), (52, 'q1'), (52, 'q6'), (54, 'q6'), (54, 'q7'), (56, 'q4'), (59,
        'q9'), (61, 'q4'), (61, 'q8'), (63, 'q3'), (63, 'q4'), (64, 'q6'), (64, 'q7'),
        (64, 'q8'), (65, 'q9'), (66, 'q3'), (66, 'q4'), (66, 'q7'), (68, 'q9'), (69,
        'q7'), (69, 'q8'), (70, 'q2'), (70, 'q9'), (71, 'q9'), (72, 'q4'), (73, 'q4'),
        (75, 'q2'), (75, 'q3'), (75, 'q4'), (76, 'q8'), (78, 'q7'), (78, 'q8'), (79,
        'q7'), (80, 'q9'), (81, 'q4'), (81, 'q9'), (83, 'q3'), (83, 'q4'), (83, 'q8'),
        (84, 'q1'), (84, 'q2'), (84, 'q3'), (84, 'q4'), (86, 'q1'), (87, 'q1'), (87,
        'q2'), (87, 'q3'), (87, 'q4'), (88, 'q4'), (88, 'q7'), (89, 'q2'), (89, 'q3'),
        (90, 'q8'), (90, 'q9'), (92, 'q4'), (93, 'q8'), (96, 'q1'), (96, 'q3'), (96,
        'q4'), (96, 'q9'), (97, 'q3'), (97, 'q4'), (97, 'q8'), (98, 'q1'), (98, 'q3'),
        (99, 'q8'), (99, 'q9'), (100, 'q7'), (100, 'q8'), (100, 'q9'), (101, 'q3'),
        (104, 'q4'), (104, 'q8'), (104, 'q9'), (106, 'q2'), (106, 'q3'), (106, 'q4'),
        (106, 'q9'), (107, 'q8'), (109, 'q9'), (110, 'q3'), (113, 'q3'), (113, 'q9'),
        (114, 'q2'), (114, 'q3'), (115, 'q8'), (116, 'q6'), (117, 'q4'), (119, 'q7'),
        (121, 'q4'), (122, 'q9'), (124, 'q4'), (124, 'q6'), (124, 'q7'), (125, 'q2'),
        (125, 'q3'),
    ),
    "static-diam": (
        (0, 'q3'), (0, 'q4'), (1, 'q1'), (1, 'q8'), (2, 'q4'), (2, 'q8'), (3, 'q2'), (3,
        'q4'), (3, 'q9'), (4, 'q2'), (4, 'q3'), (4, 'q4'), (4, 'q8'), (5, 'q3'), (5,
        'q8'), (5, 'q9'), (6, 'q1'), (6, 'q3'), (6, 'q7'), (7, 'q3'), (7, 'q6'), (7,
        'q8'), (8, 'q2'), (8, 'q9'), (9, 'q1'), (9, 'q3'), (9, 'q8'), (10, 'q2'), (10,
        'q3'), (10, 'q9'), (11, 'q6'), (11, 'q8'), (12, 'q1'), (12, 'q8'), (13, 'q7'),
        (13, 'q9'), (14, 'q2'), (14, 'q3'), (14, 'q6'), (14, 'q8'), (14, 'q9'), (15,
        'q1'), (15, 'q2'), (15, 'q3'), (15, 'q7'), (15, 'q9'), (16, 'q6'), (16, 'q7'),
        (16, 'q8'), (17, 'q1'), (17, 'q3'), (17, 'q4'), (17, 'q8'), (18, 'q2'), (18,
        'q4'), (18, 'q7'), (18, 'q9'), (19, 'q1'), (19, 'q6'), (19, 'q8'), (19, 'q9'),
        (20, 'q3'), (20, 'q4'), (20, 'q6'), (20, 'q8'), (21, 'q1'), (21, 'q2'), (21,
        'q4'), (21, 'q6'), (21, 'q8'), (22, 'q2'), (22, 'q3'), (22, 'q8'), (22, 'q9'),
        (23, 'q2'), (23, 'q4'), (24, 'q2'), (24, 'q8'), (25, 'q8'), (26, 'q3'), (26,
        'q8'), (26, 'q9'), (27, 'q2'), (27, 'q3'), (27, 'q7'), (28, 'q3'), (28, 'q9'),
        (29, 'q4'), (29, 'q7'), (29, 'q9'), (30, 'q3'), (30, 'q7'), (31, 'q1'), (31,
        'q4'), (31, 'q7'), (31, 'q8'), (31, 'q9'), (32, 'q1'), (32, 'q2'), (32, 'q6'),
        (32, 'q9'), (33, 'q1'), (33, 'q6'), (34, 'q3'), (34, 'q8'), (34, 'q9'), (35,
        'q3'), (36, 'q4'), (36, 'q9'), (37, 'q2'), (37, 'q3'), (37, 'q7'), (37, 'q8'),
        (38, 'q1'), (38, 'q6'), (38, 'q7'), (38, 'q8'), (38, 'q9'), (39, 'q3'), (40,
        'q2'), (40, 'q4'), (40, 'q9'), (41, 'q8'), (42, 'q1'), (42, 'q3'), (42, 'q7'),
        (43, 'q1'), (43, 'q8'), (44, 'q2'), (44, 'q4'), (44, 'q8'), (44, 'q9'), (45,
        'q2'), (45, 'q3'),
    ),
    "pushdown": (
        0, 2, 3, 4, 5, 6, 7, 8, 11, 12, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
        27, 28, 29, 30,
    ),
    "vass": tuple(range(VASS_MODELS)),
}
