"""Line-oriented model format: one process, options, and queries.

    # relay example
    process vass dim=1
    init q0 vector=(1)
    trans q0 -> q1 on !!a delta=(-1)
    option complete-receives dead=sink
    query cover state=q1 semantics=rbn max-basis=50000

``#`` starts a comment and blank lines are skipped.  Vectors and deltas
are parenthesized integer tuples.  Pushdown processes declare their stack
symbols on the process line (``process pushdown stack=AB``), use
``pre=<symbol|eps>`` and ``push=<word|eps>`` on transitions, and query
targets may carry ``stack=<word>``; stack symbols are single characters
and ``_`` is reserved for the bottom-of-stack marker (allowed at the end
of a query word only).  Every parse error carries the line and column it
was found at plus a one-line remedy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .graphs import Clique, DiamDeg, PathBounded, Reconfigurable, TopologyClass
from .pushdown import BOTTOM, PdsConfig, PdsRule, PushdownSpec
from .vass import Label, VassConfig, VassSpec, VassTransition, complete_receives

MODEL_HEADER = "bncover-model/1"


class ModelError(Exception):
    def __init__(self, message: str, line: int, col: int = 1, remedy: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.remedy = remedy
        text = f"line {line}, col {col}: {message}"
        if remedy:
            text += f" ({remedy})"
        super().__init__(text)


class ModelSyntaxError(ModelError):
    pass


class UndeclaredIdentifier(ModelError):
    pass


class DimensionMismatch(ModelError):
    pass


@dataclass(frozen=True)
class Query:
    state: str
    vector: Optional[tuple[int, ...]]
    stack: Optional[str]
    topology: TopologyClass
    max_basis: Optional[int]
    max_iters: Optional[int]
    line: int

    @property
    def semantics_text(self) -> str:
        return str(self.topology)

    def target(self, spec):
        if isinstance(spec, PushdownSpec):
            return PdsConfig(self.state, self.stack or "")
        return VassConfig(self.state, self.vector if self.vector is not None else (0,) * spec.dim)


@dataclass(frozen=True)
class ModelFile:
    process: object  # VassSpec | PushdownSpec
    queries: tuple[Query, ...]
    dead_state: Optional[str] = None


_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9'_.-]*$")
_LABEL = re.compile(r"(!!|\?\?)[A-Za-z][A-Za-z0-9_]*$")


def _tokens(raw: str) -> list[tuple[str, int]]:
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def _kv(tok: str, col: int, line: int) -> tuple[str, str]:
    if "=" not in tok:
        raise ModelSyntaxError(
            f"expected key=value, got {tok!r}", line, col, "write e.g. delta=(-1)"
        )
    key, value = tok.split("=", 1)
    return key, value


def _parse_vector(text: str, line: int, col: int) -> tuple[int, ...]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ModelSyntaxError(
            f"expected a parenthesized tuple, got {text!r}", line, col,
            "write e.g. vector=(1,0)"
        )
    body = text[1:-1].strip()
    if not body:
        return ()
    out = []
    for part in body.split(","):
        part = part.strip()
        if not re.fullmatch(r"[+-]?\d+", part):
            raise ModelSyntaxError(
                f"{part!r} is not an integer", line, col, "tuple entries are integers"
            )
        out.append(int(part))
    return tuple(out)


def _parse_int(text: str, line: int, col: int, what: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ModelSyntaxError(f"{what} must be a number, got {text!r}", line, col)
    return int(text)


def parse_model(text: str) -> ModelFile:
    """Parse the model format; raises a positioned :class:`ModelError`."""
    kind: Optional[str] = None
    process_line = 0
    dim = 0
    stack_symbols: tuple[str, ...] = ()
    states: list[str] = []
    inits: list[tuple] = []
    trans: list[tuple] = []
    dead: Optional[str] = None
    queries: list[dict] = []
    last_line = 0

    def note_state(name: str, line: int, col: int) -> str:
        if not _NAME.match(name):
            raise ModelSyntaxError(
                f"{name!r} is not a valid state name", line, col,
                "state names start with a letter"
            )
        if name not in states:
            states.append(name)
        return name

    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        toks = _tokens(raw)
        if not toks:
            continue
        head, headcol = toks[0]
        if head == "format":
            if len(toks) != 2 or toks[1][0] != MODEL_HEADER:
                raise ModelSyntaxError(
                    "unsupported format header", lineno, headcol,
                    f"use 'format {MODEL_HEADER}' or drop the line"
                )
            continue

        if head == "process":
            if kind is not None:
                raise ModelSyntaxError(
                    "only one process per file", lineno, headcol,
                    "remove the extra process line"
                )
            if len(toks) < 2:
                raise ModelSyntaxError(
                    "process needs a kind", lineno, headcol,
                    "write 'process vass dim=D', 'process finite' or 'process pushdown stack=...'"
                )
            kind = toks[1][0]
            process_line = lineno
            rest = toks[2:]
            if kind == "finite":
                if rest:
                    raise ModelSyntaxError(
                        "finite processes take no options", lineno, rest[0][1]
                    )
            elif kind == "vass":
                if len(rest) != 1:
                    raise ModelSyntaxError(
                        "vass processes need dim=D", lineno, headcol,
                        "write e.g. 'process vass dim=1'"
                    )
                key, value = _kv(rest[0][0], rest[0][1], lineno)
                if key != "dim":
                    raise ModelSyntaxError(
                        f"unknown process option {key!r}", lineno, rest[0][1], "expected dim=D"
                    )
                dim = _parse_int(value, lineno, rest[0][1], "dim")
            elif kind == "pushdown":
                if len(rest) != 1:
                    raise ModelSyntaxError(
                        "pushdown processes need stack=<symbols>", lineno, headcol,
                        "write e.g. 'process pushdown stack=AB'"
                    )
                key, value = _kv(rest[0][0], rest[0][1], lineno)
                if key != "stack":
                    raise ModelSyntaxError(
                        f"unknown process option {key!r}", lineno, rest[0][1],
                        "expected stack=<symbols>"
                    )
                symbols = tuple(value.replace(",", ""))
                if not symbols:
                    raise ModelSyntaxError(
                        "the stack alphabet is empty", lineno, rest[0][1],
                        "list at least one symbol, e.g. stack=A"
                    )
                if BOTTOM in symbols:
                    raise ModelSyntaxError(
                        f"{BOTTOM!r} is reserved for the bottom marker", lineno, rest[0][1]
                    )
                stack_symbols = symbols
            else:
                raise ModelSyntaxError(
                    f"unknown process kind {kind!r}", lineno, toks[1][1],
                    "use finite, vass or pushdown"
                )
            continue

        if kind is None:
            raise ModelSyntaxError(
                f"{head!r} before the process declaration", lineno, headcol,
                "declare the process first, e.g. 'process vass dim=1'"
            )

        if head == "init":
            if len(toks) < 2:
                raise ModelSyntaxError("init needs a state", lineno, headcol)
            state = note_state(toks[1][0], lineno, toks[1][1])
            vector: tuple[int, ...] = (0,) * dim
            for tok, col in toks[2:]:
                key, value = _kv(tok, col, lineno)
                if key != "vector":
                    raise ModelSyntaxError(
                        f"unknown init option {key!r}", lineno, col, "expected vector=(n,...)"
                    )
                if kind == "pushdown":
                    raise ModelSyntaxError(
                        "pushdown initial states take no vector", lineno, col,
                        "drop the vector option"
                    )
                vector = _parse_vector(value, lineno, col)
                if len(vector) != dim:
                    raise DimensionMismatch(
                        f"init {state} has vector of length {len(vector)}, expected {dim}",
                        lineno, col, "match the declared dim"
                    )
                if any(x < 0 for x in vector):
                    raise ModelSyntaxError(
                        "initial vectors are nonnegative", lineno, col
                    )
            inits.append((state, vector, lineno))
            continue

        if head == "trans":
            if len(toks) < 6 or toks[2][0] != "->" or toks[4][0] != "on":
                raise ModelSyntaxError(
                    "malformed transition", lineno, headcol,
                    "write 'trans <src> -> <dst> on (!!|??)<letter> [delta=...|pre=.. push=..]'"
                )
            src = note_state(toks[1][0], lineno, toks[1][1])
            dst = note_state(toks[3][0], lineno, toks[3][1])
            label_text, label_col = toks[5]
            if not _LABEL.match(label_text):
                raise ModelSyntaxError(
                    f"{label_text!r} is not a transition label", lineno, label_col,
                    "labels look like !!a or ??a"
                )
            label = Label.parse(label_text)
            options: dict[str, tuple[str, int]] = {}
            for tok, col in toks[6:]:
                key, value = _kv(tok, col, lineno)
                if key in options:
                    raise ModelSyntaxError(f"duplicate option {key!r}", lineno, col)
                options[key] = (value, col)
            trans.append((src, label, dst, options, lineno, headcol))
            continue

        if head == "option":
            if len(toks) < 2:
                raise ModelSyntaxError("option needs a name", lineno, headcol)
            name, ncol = toks[1]
            if name != "complete-receives":
                raise ModelSyntaxError(
                    f"unknown option {name!r}", lineno, ncol,
                    "the only option is 'complete-receives dead=<state>'"
                )
            if kind == "pushdown":
                raise ModelSyntaxError(
                    "receive completion applies to finite/vass processes only", lineno, ncol
                )
            if len(toks) != 3:
                raise ModelSyntaxError(
                    "complete-receives needs dead=<state>", lineno, ncol
                )
            key, value = _kv(toks[2][0], toks[2][1], lineno)
            if key != "dead":
                raise ModelSyntaxError(
                    f"unknown option argument {key!r}", lineno, toks[2][1],
                    "expected dead=<state>"
                )
            dead = note_state(value, lineno, toks[2][1])
            continue

        if head == "query":
            if len(toks) < 2 or toks[1][0] != "cover":
                raise ModelSyntaxError(
                    "only 'query cover ...' queries exist", lineno, headcol,
                    "write 'query cover state=<state> semantics=<...>'"
                )
            fields: dict[str, tuple[str, int]] = {}
            for tok, col in toks[2:]:
                key, value = _kv(tok, col, lineno)
                if key in fields:
                    raise ModelSyntaxError(f"duplicate query field {key!r}", lineno, col)
                fields[key] = (value, col)
            queries.append({"fields": fields, "line": lineno, "col": headcol})
            continue

        raise ModelSyntaxError(
            f"unknown directive {head!r}", lineno, headcol,
            "lines start with process, init, trans, option or query"
        )

    if kind is None:
        raise ModelSyntaxError(
            "the model declares no process", 1, 1,
            "start with e.g. 'process vass dim=1'"
        )
    if not inits:
        raise ModelSyntaxError(
            "the model declares no initial state", process_line, 1,
            "add an 'init <state>' line"
        )

    spec = _build_spec(kind, dim, stack_symbols, states, inits, trans, dead)

    if not queries:
        raise ModelSyntaxError(
            "the model declares no query", last_line or 1, 1,
            "add a 'query cover state=... semantics=...' line"
        )
    built_queries = tuple(
        _build_query(q["fields"], q["line"], q["col"], kind, dim, stack_symbols, states)
        for q in queries
    )
    return ModelFile(spec, built_queries, dead)


def _build_spec(kind, dim, stack_symbols, states, inits, trans, dead):
    if kind == "pushdown":
        rules = []
        for src, label, dst, options, lineno, col in trans:
            pre_text, pre_col = options.pop("pre", ("eps", col))
            push_text, push_col = options.pop("push", ("eps", col))
            if options:
                bad = next(iter(options))
                raise ModelSyntaxError(
                    f"unknown transition option {bad!r}", lineno, options[bad][1],
                    "pushdown transitions take pre= and push="
                )
            top = "" if pre_text == "eps" else pre_text
            push = "" if push_text == "eps" else push_text
            if len(top) > 1:
                raise ModelSyntaxError(
                    "pre inspects at most one symbol", lineno, pre_col,
                    "use a single stack symbol or eps"
                )
            for sym, scol in ((top, pre_col), (push, push_col)):
                for ch in sym:
                    if ch not in stack_symbols:
                        raise UndeclaredIdentifier(
                            f"stack symbol {ch!r} is not declared", lineno, scol,
                            "declare it on the process line"
                        )
            rules.append(PdsRule(src, label, top, dst, push))
        return PushdownSpec(
            states=tuple(states),
            stack_alphabet=stack_symbols,
            initial=tuple(dict.fromkeys(s for s, _, _ in inits)),
            rules=tuple(rules),
        )

    transitions = []
    for src, label, dst, options, lineno, col in trans:
        delta_entry = options.pop("delta", None)
        if options:
            bad = next(iter(options))
            raise ModelSyntaxError(
                f"unknown transition option {bad!r}", lineno, options[bad][1],
                "finite/vass transitions take delta= only"
            )
        if delta_entry is None:
            delta: tuple[int, ...] = (0,) * dim
        else:
            value, dcol = delta_entry
            delta = _parse_vector(value, lineno, dcol)
            if len(delta) != dim:
                raise DimensionMismatch(
                    f"transition {src} -> {dst} on {label} has delta of length "
                    f"{len(delta)}, expected {dim}",
                    lineno, dcol, "match the declared dim"
                )
        transitions.append(VassTransition(src, label, delta, dst))
    spec = VassSpec(
        states=tuple(states),
        dim=dim,
        initial=tuple(dict.fromkeys((s, v) for s, v, _ in inits)),
        transitions=tuple(transitions),
    )
    if dead is not None:
        spec = complete_receives(spec, dead)
    return spec


# semantics name -> (topology class, number of integer parameters)
_SEMANTICS = {
    "rbn": (Reconfigurable, 0),
    "clique": (Clique, 0),
    "path-bounded": (PathBounded, 1),
    "diam-deg": (DiamDeg, 3),
}
_SEMANTICS_REMEDY = "pick rbn, path-bounded:K, clique or diam-deg:K,D,N"


def _parse_semantics(text: str, line: int, col: int) -> TopologyClass:
    name, colon, args = text.partition(":")
    cls, arity = _SEMANTICS.get(name, (None, -1))
    params = args.split(",") if colon else []
    if len(params) != arity or not all(re.fullmatch(r"\d+", p) for p in params):
        raise ModelSyntaxError(f"unknown semantics {text!r}", line, col, _SEMANTICS_REMEDY)
    values = [int(p) for p in params]
    if any(v < 1 for v in values):
        raise ModelSyntaxError(f"semantics parameters must be at least 1: {text}", line, col)
    return cls(*values)


def _build_query(fields, line, col, kind, dim, stack_symbols, states) -> Query:
    if "state" not in fields:
        raise ModelSyntaxError("query lacks state=<state>", line, col)
    if "semantics" not in fields:
        raise ModelSyntaxError("query lacks semantics=<...>", line, col, _SEMANTICS_REMEDY)
    state, scol = fields.pop("state")
    if state not in states:
        raise UndeclaredIdentifier(
            f"state {state!r} is not declared", line, scol,
            "query targets must appear in the process section"
        )
    sem_text, sem_col = fields.pop("semantics")
    topology = _parse_semantics(sem_text, line, sem_col)
    if kind == "pushdown" and not isinstance(topology, Reconfigurable):
        raise ModelSyntaxError(
            "pushdown processes support semantics=rbn only", line, sem_col,
            "fixed-topology semantics need a finite or vass process"
        )

    vector = None
    if "vector" in fields:
        value, vcol = fields.pop("vector")
        if kind == "pushdown":
            raise ModelSyntaxError(
                "pushdown targets take stack=, not vector=", line, vcol
            )
        vector = _parse_vector(value, line, vcol)
        if len(vector) != dim:
            raise DimensionMismatch(
                f"query vector has length {len(vector)}, expected {dim}", line, vcol
            )
        if any(x < 0 for x in vector):
            raise ModelSyntaxError("query vectors are nonnegative", line, vcol)

    stack = None
    if "stack" in fields:
        value, kcol = fields.pop("stack")
        if kind != "pushdown":
            raise ModelSyntaxError(
                "stack= targets need a pushdown process", line, kcol
            )
        word = "" if value == "eps" else value
        core = word[:-1] if word.endswith(BOTTOM) else word
        if BOTTOM in core:
            raise ModelSyntaxError(
                f"{BOTTOM!r} may only end the stack word", line, kcol
            )
        for ch in core:
            if ch not in stack_symbols:
                raise UndeclaredIdentifier(
                    f"stack symbol {ch!r} is not declared", line, kcol
                )
        stack = word

    max_basis = max_iters = None
    if "max-basis" in fields:
        value, mcol = fields.pop("max-basis")
        max_basis = _parse_int(value, line, mcol, "max-basis")
    if "max-iters" in fields:
        value, mcol = fields.pop("max-iters")
        max_iters = _parse_int(value, line, mcol, "max-iters")
    if fields:
        bad = next(iter(fields))
        raise ModelSyntaxError(
            f"unknown query field {bad!r}", line, fields[bad][1],
            "allowed: state, vector, stack, semantics, max-basis, max-iters"
        )
    return Query(state, vector, stack, topology, max_basis, max_iters, line)
