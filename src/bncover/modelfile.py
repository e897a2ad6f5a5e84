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
of a query word only).

Each line is read once, and errors come in file order, each at the line
and column of its token.  Only the checks that need the whole file wait
for its end: that it declares a process, an initial state and a query,
and that each query's state is declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def rbn_targets(self) -> tuple:
        """The targets of the ``rbn`` queries in order, built once per
        model: the rbn decider answers their final queries as one batch."""
        return tuple(
            q.target(self.process) for q in self.queries if isinstance(q.topology, Reconfigurable)
        )


# process kind -> (its option keys, what they need, remedy naming them)
_PROCESS_KINDS = {
    "finite": ((), "", "finite processes take no options"),
    "vass": (("dim",), "dim=D", "write e.g. 'process vass dim=1'"),
    "pushdown": (("stack",), "stack=<symbols>", "write e.g. 'process pushdown stack=AB'"),
}
_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?\d+")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9'_.-]*$")
_LABEL = re.compile(r"(!!|\?\?)[A-Za-z][A-Za-z0-9_]*$")


def _tokens(raw: str) -> list[tuple[str, int]]:
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


def _options(
    toks: list[tuple[str, int]], line: int, what: str, allowed: tuple[str, ...], remedy: str
) -> dict[str, tuple[str, int]]:
    """The ``key=value`` tokens of one line as ``{key: (value, col)}``: each
    key once and in ``allowed``, which ``remedy`` names."""
    out: dict[str, tuple[str, int]] = {}
    for tok, col in toks:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ModelSyntaxError(f"expected key=value, got {tok!r}", line, col, remedy)
        if key not in allowed:
            raise ModelSyntaxError(f"unknown {what} {key!r}", line, col, remedy)
        if key in out:
            raise ModelSyntaxError(f"duplicate {what} {key!r}", line, col)
        out[key] = (value, col)
    return out


def _vector(entry, line, dim, length_of, nonnegative=None) -> tuple[int, ...]:
    """The integer tuple ``entry`` = ``(text, col)`` holds: ``dim`` entries,
    none negative when ``nonnegative`` names the kind of vector."""
    text, col = entry
    if not (text.startswith("(") and text.endswith(")")):
        raise ModelSyntaxError(
            f"expected a parenthesized tuple, got {text!r}", line, col,
            "write e.g. vector=(1,0)"
        )
    body = text[1:-1].strip()
    parts = [part.strip() for part in body.split(",")] if body else []
    for part in parts:
        if not _INTEGER.fullmatch(part):
            raise ModelSyntaxError(
                f"{part!r} is not an integer", line, col, "tuple entries are integers"
            )
    vector = tuple(map(int, parts))
    if len(vector) != dim:
        raise DimensionMismatch(
            f"{length_of} {len(vector)}, expected {dim}", line, col, "match the declared dim"
        )
    if nonnegative and any(x < 0 for x in vector):
        raise ModelSyntaxError(f"{nonnegative} are nonnegative", line, col)
    return vector


def _number(entry, line, what) -> int:
    text, col = entry
    if not re.fullmatch(r"\d+", text):
        raise ModelSyntaxError(f"{what} must be a number, got {text!r}", line, col)
    return int(text)


def _stack_word(entry, line, symbols, target=False) -> str:
    """The word of declared stack symbols ``entry`` = ``(text, col)``
    spells, "" for ``eps``; a query's ``target`` word may end with the
    bottom marker."""
    text, col = entry
    word = "" if text == "eps" else text
    core = word[:-1] if target and word.endswith(BOTTOM) else word
    if target and BOTTOM in core:
        raise ModelSyntaxError(f"{BOTTOM!r} may only end the stack word", line, col)
    for ch in core:
        if ch not in symbols:
            raise UndeclaredIdentifier(
                f"stack symbol {ch!r} is not declared", line, col,
                "declare it on the process line"
            )
    return word


def parse_model(text: str) -> ModelFile:
    """Parse the model format; raises a positioned :class:`ModelError`."""
    kind: Optional[str] = None
    process_line = 0
    dim = 0
    stack_symbols: tuple[str, ...] = ()
    states: dict[str, None] = {}  # in order of first mention
    initial: dict = {}  # initial entries of the spec, in order, each once
    steps: list = []  # VassTransition or PdsRule, one per trans line
    dead: Optional[str] = None
    queries: list[tuple[Query, int]] = []  # with the column of the query's state
    lines = text.splitlines()

    def note_state(entry: tuple[str, int], line: int) -> str:
        name, col = entry
        if not _NAME.match(name):
            raise ModelSyntaxError(
                f"{name!r} is not a valid state name", line, col,
                "state names start with a letter"
            )
        states[name] = None
        return name

    for lineno, raw in enumerate(lines, 1):
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
            kind, kind_col = toks[1]
            process_line = lineno
            if kind not in _PROCESS_KINDS:
                raise ModelSyntaxError(
                    f"unknown process kind {kind!r}", lineno, kind_col,
                    "use finite, vass or pushdown"
                )
            keys, needed, remedy = _PROCESS_KINDS[kind]
            opts = _options(toks[2:], lineno, "process option", keys, remedy)
            if keys and keys[0] not in opts:
                raise ModelSyntaxError(
                    f"{kind} processes need {needed}", lineno, headcol, remedy
                )
            if kind == "vass":
                dim = _number(opts["dim"], lineno, "dim")
            if kind != "pushdown":
                continue
            value, scol = opts["stack"]
            stack_symbols = tuple(value.replace(",", ""))
            if not stack_symbols:
                raise ModelSyntaxError(
                    "the stack alphabet is empty", lineno, scol,
                    "list at least one symbol, e.g. stack=A"
                )
            if BOTTOM in stack_symbols:
                raise ModelSyntaxError(
                    f"{BOTTOM!r} is reserved for the bottom marker", lineno, scol
                )
            if len(set(stack_symbols)) != len(stack_symbols):
                raise ModelSyntaxError(
                    "duplicate stack symbols", lineno, scol, "list each symbol once"
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
            state = note_state(toks[1], lineno)
            opts = _options(toks[2:], lineno, "init option", ("vector",), "expected vector=(n,...)")
            if opts and kind == "pushdown":
                raise ModelSyntaxError(
                    "pushdown initial states take no vector", lineno, opts["vector"][1],
                    "drop the vector option"
                )
            vector = _vector(
                opts["vector"], lineno, dim, f"init {state} has vector of length", "initial vectors"
            ) if opts else (0,) * dim
            initial[state if kind == "pushdown" else (state, vector)] = None
            continue

        if head == "trans":
            if len(toks) < 6 or toks[2][0] != "->" or toks[4][0] != "on":
                raise ModelSyntaxError(
                    "malformed transition", lineno, headcol,
                    "write 'trans <src> -> <dst> on (!!|??)<letter> [delta=...|pre=.. push=..]'"
                )
            src = note_state(toks[1], lineno)
            dst = note_state(toks[3], lineno)
            label_text, label_col = toks[5]
            if not _LABEL.match(label_text):
                raise ModelSyntaxError(
                    f"{label_text!r} is not a transition label", lineno, label_col,
                    "labels look like !!a or ??a"
                )
            label = Label.parse(label_text)
            pushdown = kind == "pushdown"
            opts = _options(
                toks[6:], lineno, "transition option", ("pre", "push") if pushdown else ("delta",),
                "pushdown transitions take pre= and push=" if pushdown
                else "finite/vass transitions take delta= only"
            )
            if pushdown:
                top = _stack_word(opts.get("pre", ("eps", headcol)), lineno, stack_symbols)
                if len(top) > 1:
                    raise ModelSyntaxError(
                        "pre inspects at most one symbol", lineno, opts["pre"][1],
                        "use a single stack symbol or eps"
                    )
                push = _stack_word(opts.get("push", ("eps", headcol)), lineno, stack_symbols)
                steps.append(PdsRule(src, label, top, dst, push))
            else:
                delta = _vector(
                    opts["delta"], lineno, dim,
                    f"transition {src} -> {dst} on {label} has delta of length"
                ) if "delta" in opts else (0,) * dim
                steps.append(VassTransition(src, label, delta, dst))
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
            if dead is not None:
                raise ModelSyntaxError(
                    "complete-receives is already set", lineno, ncol,
                    "keep one complete-receives line"
                )
            opts = _options(toks[2:], lineno, "option argument", ("dead",), "expected dead=<state>")
            if "dead" not in opts:
                raise ModelSyntaxError("complete-receives needs dead=<state>", lineno, ncol)
            dead = note_state(opts["dead"], lineno)
            continue

        if head == "query":
            if len(toks) < 2 or toks[1][0] != "cover":
                raise ModelSyntaxError(
                    "only 'query cover ...' queries exist", lineno, headcol,
                    "write 'query cover state=<state> semantics=<...>'"
                )
            queries.append(_query(toks[2:], lineno, headcol, kind, dim, stack_symbols))
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
    if not initial:
        raise ModelSyntaxError(
            "the model declares no initial state", process_line, 1,
            "add an 'init <state>' line"
        )
    if not queries:
        raise ModelSyntaxError(
            "the model declares no query", len(lines) or 1, 1,
            "add a 'query cover state=... semantics=...' line"
        )
    for query, scol in queries:
        if query.state not in states:
            raise UndeclaredIdentifier(
                f"state {query.state!r} is not declared", query.line, scol,
                "query targets must appear in the process section"
            )

    if kind == "pushdown":
        spec = PushdownSpec(
            states=tuple(states),
            stack_alphabet=stack_symbols,
            initial=tuple(initial),
            rules=tuple(steps),
        )
    else:
        spec = VassSpec(
            states=tuple(states), dim=dim, initial=tuple(initial), transitions=tuple(steps)
        )
        if dead is not None:
            spec = complete_receives(spec, dead)
    return ModelFile(spec, tuple(query for query, _ in queries), dead)


# semantics name -> (topology class, number of integer parameters)
_SEMANTICS = {
    "rbn": (Reconfigurable, 0),
    "clique": (Clique, 0),
    "path-bounded": (PathBounded, 1),
    "diam-deg": (DiamDeg, 3),
}
_SEMANTICS_REMEDY = "pick rbn, path-bounded:K, clique or diam-deg:K,D,N"


def _parse_semantics(entry, line: int) -> TopologyClass:
    text, col = entry
    name, colon, args = text.partition(":")
    cls, arity = _SEMANTICS.get(name, (None, -1))
    params = args.split(",") if colon else []
    if len(params) != arity or not all(re.fullmatch(r"\d+", p) for p in params):
        raise ModelSyntaxError(f"unknown semantics {text!r}", line, col, _SEMANTICS_REMEDY)
    values = [int(p) for p in params]
    if any(v < 1 for v in values):
        raise ModelSyntaxError(f"semantics parameters must be at least 1: {text}", line, col)
    return cls(*values)


_QUERY_FIELDS = ("state", "vector", "stack", "semantics", "max-basis", "max-iters")


def _query(toks, line, col, kind, dim, stack_symbols) -> tuple[Query, int]:
    """The query of one ``query cover`` line, with the column of its state:
    whether that state is declared, only the whole file tells."""
    fields = _options(
        toks, line, "query field", _QUERY_FIELDS, "allowed: " + ", ".join(_QUERY_FIELDS)
    )
    if "state" not in fields:
        raise ModelSyntaxError("query lacks state=<state>", line, col)
    if "semantics" not in fields:
        raise ModelSyntaxError("query lacks semantics=<...>", line, col, _SEMANTICS_REMEDY)
    state, scol = fields["state"]
    topology = _parse_semantics(fields["semantics"], line)
    if kind == "pushdown" and not isinstance(topology, Reconfigurable):
        raise ModelSyntaxError(
            "pushdown processes support semantics=rbn only", line, fields["semantics"][1],
            "fixed-topology semantics need a finite or vass process"
        )

    vector = None
    if "vector" in fields:
        if kind == "pushdown":
            raise ModelSyntaxError(
                "pushdown targets take stack=, not vector=", line, fields["vector"][1]
            )
        vector = _vector(fields["vector"], line, dim, "query vector has length", "query vectors")

    stack = None
    if "stack" in fields:
        if kind != "pushdown":
            raise ModelSyntaxError(
                "stack= targets need a pushdown process", line, fields["stack"][1]
            )
        stack = _stack_word(fields["stack"], line, stack_symbols, target=True)

    max_basis, max_iters = (
        _number(fields[key], line, key) if key in fields else None
        for key in ("max-basis", "max-iters")
    )
    return Query(state, vector, stack, topology, max_basis, max_iters, line), scol
