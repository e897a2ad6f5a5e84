import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bncover import (
    BOTTOM,
    DiamDeg,
    DimensionMismatch,
    Label,
    ModelError,
    ModelSyntaxError,
    PdsConfig,
    PushdownSpec,
    Reconfigurable,
    UndeclaredIdentifier,
    VassConfig,
    VassSpec,
    parse_model,
)

from conftest import MODELS


def test_relay_file_transcription(relay_model):
    spec = relay_model.process
    declared = [t for t in spec.transitions if t.delta != (0,) or t.label.is_broadcast]
    assert len(declared) == 8  # the 8 written lines; completion only adds zero-delta receives
    assert spec.initial == (("q0", (1,)), ("q6", (1,)))
    assert relay_model.dead_state == "qdead"
    assert spec.alphabet == ("a", "b", "c", "d")
    assert len(relay_model.queries) == 2
    assert relay_model.queries[0].topology == Reconfigurable()
    assert relay_model.queries[1].semantics_text == "path-bounded:2"


def test_empty_file_fails_at_line_one():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("")
    assert err.value.line == 1


def test_comments_and_blanks_are_skipped():
    model = parse_model(
        """
        # leading comment
        process finite

        init s0   # trailing comment
        trans s0 -> s1 on !!x
        query cover state=s1 semantics=rbn
        """
    )
    assert model.process.states == ("s0", "s1")


def test_delta_arity_mismatch_names_the_transition():
    text = (
        "process vass dim=2\n"
        "init s0 vector=(0,0)\n"
        "trans s0 -> s1 on !!x delta=(1)\n"
        "query cover state=s1 semantics=rbn\n"
    )
    with pytest.raises(DimensionMismatch) as err:
        parse_model(text)
    assert "s0 -> s1" in err.value.message
    assert err.value.line == 3


def test_undeclared_query_state():
    text = (
        "process finite\n"
        "init s0\n"
        "trans s0 -> s1 on !!x\n"
        "query cover state=zz semantics=rbn\n"
    )
    with pytest.raises(UndeclaredIdentifier) as err:
        parse_model(text)
    assert err.value.line == 4


def test_two_processes_rejected():
    with pytest.raises(ModelSyntaxError):
        parse_model("process finite\nprocess finite\n")


def test_missing_query_rejected():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("process finite\ninit s0\ntrans s0 -> s1 on !!x\n")
    assert "query" in str(err.value)


def test_default_delta_is_zero():
    model = parse_model(
        "process vass dim=2\ninit a vector=(1,1)\ntrans a -> a on !!m\n"
        "query cover state=a semantics=rbn\n"
    )
    assert model.process.transitions[0].delta == (0, 0)


def test_default_initial_vector_is_zero():
    model = parse_model(
        "process vass dim=1\ninit a\ntrans a -> a on !!m delta=(1)\n"
        "query cover state=a semantics=rbn\n"
    )
    assert model.process.initial == (("a", (0,)),)


def test_pushdown_file(relay_model):
    model = parse_model((MODELS / "handshake_pushdown.bn").read_text())
    spec = model.process
    assert isinstance(spec, PushdownSpec)
    assert spec.stack_alphabet == ("A", "B")
    assert spec.rules[0].top == "" and spec.rules[0].push == "A"
    assert model.queries[0].target(spec) == PdsConfig("done", "")


def test_pushdown_rejects_static_semantics():
    text = (
        "process pushdown stack=A\n"
        "init p\n"
        "trans p -> p on !!m pre=eps push=A\n"
        "query cover state=p semantics=clique\n"
    )
    with pytest.raises(ModelSyntaxError):
        parse_model(text)


def test_pushdown_stack_target_with_bottom():
    text = (
        "process pushdown stack=A\n"
        "init p\n"
        "trans p -> p on !!m pre=eps push=A\n"
        f"query cover state=p stack=A{BOTTOM} semantics=rbn\n"
    )
    model = parse_model(text)
    assert model.queries[0].target(model.process) == PdsConfig("p", "A" + BOTTOM)


def test_undeclared_stack_symbol():
    text = (
        "process pushdown stack=A\n"
        "init p\n"
        "trans p -> p on !!m pre=B push=eps\n"
        "query cover state=p semantics=rbn\n"
    )
    with pytest.raises(UndeclaredIdentifier):
        parse_model(text)


def test_query_limit_overrides():
    model = parse_model(
        "process finite\ninit s0\ntrans s0 -> s1 on !!x\n"
        "query cover state=s1 semantics=rbn max-basis=123 max-iters=7\n"
    )
    q = model.queries[0]
    assert q.max_basis == 123 and q.max_iters == 7


def test_diam_deg_semantics_parameters():
    model = parse_model(
        "process finite\ninit s0\ntrans s0 -> s1 on !!x\n"
        "query cover state=s1 semantics=diam-deg:2,3,4\n"
    )
    q = model.queries[0]
    assert q.topology == DiamDeg(2, 3, 4)


_SEMANTICS_QUERY = "process finite\ninit s0\ntrans s0 -> s1 on !!x\nquery cover state=s1 semantics="


@pytest.mark.parametrize(
    "text", ["rbn", "clique", "path-bounded:1", "path-bounded:12", "diam-deg:2,3,4"]
)
def test_each_accepted_semantics_reads_back_as_written(text):
    query = parse_model(_SEMANTICS_QUERY + text + "\n").queries[0]
    assert str(query.topology) == query.semantics_text == text


@pytest.mark.parametrize("text, message, remedy", [
    ("rbn:", "unknown semantics 'rbn:'", True),
    ("clique:3", "unknown semantics 'clique:3'", True),
    ("path-bounded", "unknown semantics 'path-bounded'", True),
    ("path-bounded:0", "semantics parameters must be at least 1: path-bounded:0", False),
    ("diam-deg:2,2", "unknown semantics 'diam-deg:2,2'", True),
    ("diam-deg:2,0,4", "semantics parameters must be at least 1: diam-deg:2,0,4", False),
    ("diam-deg:2,2,0", "semantics parameters must be at least 1: diam-deg:2,2,0", False),
    ("banana", "unknown semantics 'banana'", True),
])
def test_rejected_semantics_fail_at_the_semantics_column(text, message, remedy):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(_SEMANTICS_QUERY + text + "\n")
    assert (err.value.line, err.value.col, err.value.message) == (4, 22, message)
    assert bool(err.value.remedy) == remedy


def test_unknown_semantics_has_remedy():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(
            "process finite\ninit s0\ntrans s0 -> s1 on !!x\n"
            "query cover state=s1 semantics=banana\n"
        )
    assert err.value.remedy


def test_optional_format_header():
    model = parse_model(
        "format bncover-model/1\nprocess finite\ninit s0\n"
        "trans s0 -> s1 on !!x\nquery cover state=s1 semantics=rbn\n"
    )
    assert model.process.states == ("s0", "s1")


def test_receive_completion_option(relay_model):
    spec = relay_model.process
    have = {
        (t.source, t.label.letter)
        for t in spec.transitions
        if not t.label.is_broadcast
    }
    for s in spec.states:
        for x in spec.alphabet:
            assert (s, x) in have


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_crashes_on_text(text):
    try:
        parse_model(text)
    except ModelError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_parser_never_crashes_on_bytes(blob):
    try:
        parse_model(blob.decode("utf-8", errors="replace"))
    except ModelError:
        pass


# Every error path of the parser, pinned: one input per error it raises (and
# per directive that shares a reader), each with a single fault.
_VASS = ("process vass dim=1", "init s0 vector=(0)", "trans s0 -> s1 on !!x delta=(1)",
         "query cover state=s1 semantics=rbn", "# options")
_PDS = ("process pushdown stack=AB", "init p", "trans p -> q on !!m pre=A push=B",
        "query cover state=q semantics=rbn", "# options")
_FINITE = ("process finite", "init s0", "trans s0 -> s1 on !!x",
           "query cover state=s1 semantics=rbn", "# options")


def _edit(base, line, text):
    """``base`` with its line ``line`` (1-based) replaced by ``text``."""
    lines = list(base)
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


def _vass(line, text):
    return _edit(_VASS, line, text)


def _pds(line, text):
    return _edit(_PDS, line, text)


def _finite(line, text):
    return _edit(_FINITE, line, text)



# (id, text, class, line, col, message)
_ERRORS = [
    ("kv-process-vass", _vass(1, "process vass dim"),
     ModelSyntaxError, 1, 14, "expected key=value, got 'dim'"),
    ("kv-process-pushdown", _pds(1, "process pushdown stack"),
     ModelSyntaxError, 1, 18, "expected key=value, got 'stack'"),
    ("kv-init", _vass(2, "init s0 vector"),
     ModelSyntaxError, 2, 9, "expected key=value, got 'vector'"),
    ("kv-trans", _vass(3, "trans s0 -> s1 on !!x delta"),
     ModelSyntaxError, 3, 23, "expected key=value, got 'delta'"),
    ("kv-option", _vass(5, "option complete-receives dead"),
     ModelSyntaxError, 5, 26, "expected key=value, got 'dead'"),
    ("kv-query", _vass(4, "query cover state"),
     ModelSyntaxError, 4, 13, "expected key=value, got 'state'"),
    ("tuple-init", _vass(2, "init s0 vector=0"),
     ModelSyntaxError, 2, 9, "expected a parenthesized tuple, got '0'"),
    ("tuple-delta", _vass(3, "trans s0 -> s1 on !!x delta=1"),
     ModelSyntaxError, 3, 23, "expected a parenthesized tuple, got '1'"),
    ("tuple-query", _vass(4, "query cover state=s1 vector=0 semantics=rbn"),
     ModelSyntaxError, 4, 22, "expected a parenthesized tuple, got '0'"),
    ("int-init", _vass(2, "init s0 vector=(a)"),
     ModelSyntaxError, 2, 9, "'a' is not an integer"),
    ("int-delta", _vass(3, "trans s0 -> s1 on !!x delta=(1.5)"),
     ModelSyntaxError, 3, 23, "'1.5' is not an integer"),
    ("int-query", _vass(4, "query cover state=s1 vector=(x) semantics=rbn"),
     ModelSyntaxError, 4, 22, "'x' is not an integer"),
    ("number-dim", _vass(1, "process vass dim=x"),
     ModelSyntaxError, 1, 14, "dim must be a number, got 'x'"),
    ("number-max-basis", _vass(4, "query cover state=s1 semantics=rbn max-basis=x"),
     ModelSyntaxError, 4, 36, "max-basis must be a number, got 'x'"),
    ("number-max-iters", _vass(4, "query cover state=s1 semantics=rbn max-iters=-1"),
     ModelSyntaxError, 4, 36, "max-iters must be a number, got '-1'"),
    ("format-version", "format bncover-model/2\n" + "\n".join(_VASS),
     ModelSyntaxError, 1, 1, 'unsupported format header'),
    ("format-bare", "format\n" + "\n".join(_VASS),
     ModelSyntaxError, 1, 1, 'unsupported format header'),
    ("second-process", _vass(2, "process finite\ninit s0 vector=(0)"),
     ModelSyntaxError, 2, 1, 'only one process per file'),
    ("process-no-kind", _vass(1, "process"),
     ModelSyntaxError, 1, 1, 'process needs a kind'),
    ("finite-option", _finite(1, "process finite dim=1"),
     ModelSyntaxError, 1, 16, "unknown process option 'dim'"),
    ("vass-no-dim", _vass(1, "process vass"),
     ModelSyntaxError, 1, 1, 'vass processes need dim=D'),
    ("vass-unknown-option", _vass(1, "process vass size=1"),
     ModelSyntaxError, 1, 14, "unknown process option 'size'"),
    ("pushdown-no-stack", _pds(1, "process pushdown"),
     ModelSyntaxError, 1, 1, 'pushdown processes need stack=<symbols>'),
    ("pushdown-unknown-option", _pds(1, "process pushdown symbols=AB"),
     ModelSyntaxError, 1, 18, "unknown process option 'symbols'"),
    ("pushdown-empty-stack", _pds(1, "process pushdown stack="),
     ModelSyntaxError, 1, 18, 'the stack alphabet is empty'),
    ("pushdown-comma-stack", _pds(1, "process pushdown stack=,"),
     ModelSyntaxError, 1, 18, 'the stack alphabet is empty'),
    ("pushdown-bottom-declared", _pds(1, "process pushdown stack=AB_"),
     ModelSyntaxError, 1, 18, "'_' is reserved for the bottom marker"),
    ("unknown-kind", _vass(1, "process petri"),
     ModelSyntaxError, 1, 9, "unknown process kind 'petri'"),
    ("init-before-process", "init s0\n" + "\n".join(_VASS),
     ModelSyntaxError, 1, 1, "'init' before the process declaration"),
    ("unknown-before-process", "bogus\n" + "\n".join(_VASS),
     ModelSyntaxError, 1, 1, "'bogus' before the process declaration"),
    ("init-no-state", _vass(2, "init"),
     ModelSyntaxError, 2, 1, 'init needs a state'),
    ("init-bad-name", _vass(2, "init 0s"),
     ModelSyntaxError, 2, 6, "'0s' is not a valid state name"),
    ("trans-bad-source", _vass(3, "trans _a -> s1 on !!x"),
     ModelSyntaxError, 3, 7, "'_a' is not a valid state name"),
    ("trans-bad-target", _vass(3, "trans s0 -> 1 on !!x"),
     ModelSyntaxError, 3, 13, "'1' is not a valid state name"),
    ("dead-bad-name", _vass(5, "option complete-receives dead=9"),
     ModelSyntaxError, 5, 26, "'9' is not a valid state name"),
    ("init-unknown-option", _vass(2, "init s0 vec=(0)"),
     ModelSyntaxError, 2, 9, "unknown init option 'vec'"),
    ("pushdown-init-vector", _pds(2, "init p vector=(0)"),
     ModelSyntaxError, 2, 8, 'pushdown initial states take no vector'),
    ("init-dimension", _vass(2, "init s0 vector=(0,0)"),
     DimensionMismatch, 2, 9, 'init s0 has vector of length 2, expected 1'),
    ("init-negative", _vass(2, "init s0 vector=(-1)"),
     ModelSyntaxError, 2, 9, 'initial vectors are nonnegative'),
    ("trans-no-arrow", _vass(3, "trans s0 s1 on !!x"),
     ModelSyntaxError, 3, 1, 'malformed transition'),
    ("trans-no-on", _vass(3, "trans s0 -> s1 at !!x"),
     ModelSyntaxError, 3, 1, 'malformed transition'),
    ("trans-short", _vass(3, "trans s0 -> s1"),
     ModelSyntaxError, 3, 1, 'malformed transition'),
    ("trans-bad-label", _vass(3, "trans s0 -> s1 on !x"),
     ModelSyntaxError, 3, 19, "'!x' is not a transition label"),
    ("trans-label-letter", _vass(3, "trans s0 -> s1 on ??1"),
     ModelSyntaxError, 3, 19, "'??1' is not a transition label"),
    ("trans-duplicate-option", _vass(3, "trans s0 -> s1 on !!x delta=(1) delta=(2)"),
     ModelSyntaxError, 3, 33, "duplicate transition option 'delta'"),
    ("option-no-name", _vass(5, "option"),
     ModelSyntaxError, 5, 1, 'option needs a name'),
    ("option-unknown", _vass(5, "option complete-sends dead=d"),
     ModelSyntaxError, 5, 8, "unknown option 'complete-sends'"),
    ("option-pushdown", _pds(5, "option complete-receives dead=d"),
     ModelSyntaxError, 5, 8, 'receive completion applies to finite/vass processes only'),
    ("option-no-dead", _vass(5, "option complete-receives"),
     ModelSyntaxError, 5, 8, 'complete-receives needs dead=<state>'),
    ("option-unknown-argument", _vass(5, "option complete-receives sink=d"),
     ModelSyntaxError, 5, 26, "unknown option argument 'sink'"),
    ("query-not-cover", _vass(4, "query reach state=s1 semantics=rbn"),
     ModelSyntaxError, 4, 1, "only 'query cover ...' queries exist"),
    ("query-bare", _vass(4, "query"),
     ModelSyntaxError, 4, 1, "only 'query cover ...' queries exist"),
    ("query-duplicate-field", _vass(4, "query cover state=s1 state=s0 semantics=rbn"),
     ModelSyntaxError, 4, 22, "duplicate query field 'state'"),
    ("unknown-directive", _vass(3, "transition s0 -> s1 on !!x"),
     ModelSyntaxError, 3, 1, "unknown directive 'transition'"),
    ("no-process-empty", "",
     ModelSyntaxError, 1, 1, 'the model declares no process'),
    ("no-process-comments", "# nothing\n\n",
     ModelSyntaxError, 1, 1, 'the model declares no process'),
    ("no-process-format-only", "format bncover-model/1\n",
     ModelSyntaxError, 1, 1, 'the model declares no process'),
    ("no-initial-state",
     "# model\nprocess finite\ntrans s0 -> s1 on !!x\nquery cover state=s1 semantics=rbn\n",
     ModelSyntaxError, 2, 1, 'the model declares no initial state'),
    ("no-query", "\n".join(_VASS[:3]) + "\n\n# done\n",
     ModelSyntaxError, 5, 1, 'the model declares no query'),
    ("pushdown-trans-unknown-option", _pds(3, "trans p -> q on !!m pre=A delta=(1)"),
     ModelSyntaxError, 3, 27, "unknown transition option 'delta'"),
    ("pushdown-pre-word", _pds(3, "trans p -> q on !!m pre=AB push=B"),
     ModelSyntaxError, 3, 21, 'pre inspects at most one symbol'),
    ("pushdown-pre-undeclared", _pds(3, "trans p -> q on !!m pre=C push=B"),
     UndeclaredIdentifier, 3, 21, "stack symbol 'C' is not declared"),
    ("pushdown-push-undeclared", _pds(3, "trans p -> q on !!m pre=A push=BC"),
     UndeclaredIdentifier, 3, 27, "stack symbol 'C' is not declared"),
    ("pushdown-push-bottom", _pds(3, "trans p -> q on !!m push=A_"),
     UndeclaredIdentifier, 3, 21, "stack symbol '_' is not declared"),
    ("vass-trans-unknown-option", _vass(3, "trans s0 -> s1 on !!x pre=A"),
     ModelSyntaxError, 3, 23, "unknown transition option 'pre'"),
    ("delta-dimension", _vass(3, "trans s0 -> s1 on !!x delta=(1,0)"),
     DimensionMismatch, 3, 23, 'transition s0 -> s1 on !!x has delta of length 2, expected 1'),
    ("finite-delta", _finite(3, "trans s0 -> s1 on !!x delta=(1)"),
     DimensionMismatch, 3, 23, 'transition s0 -> s1 on !!x has delta of length 1, expected 0'),
    ("semantics-unknown", _vass(4, "query cover state=s1 semantics=ring"),
     ModelSyntaxError, 4, 22, "unknown semantics 'ring'"),
    ("semantics-zero", _vass(4, "query cover state=s1 semantics=path-bounded:0"),
     ModelSyntaxError, 4, 22, 'semantics parameters must be at least 1: path-bounded:0'),
    ("query-no-state", _vass(4, "query cover semantics=rbn"),
     ModelSyntaxError, 4, 1, 'query lacks state=<state>'),
    ("query-no-semantics", _vass(4, "query cover state=s1"),
     ModelSyntaxError, 4, 1, 'query lacks semantics=<...>'),
    ("query-undeclared-state", _vass(4, "query cover state=s9 semantics=rbn"),
     UndeclaredIdentifier, 4, 13, "state 's9' is not declared"),
    ("pushdown-static-semantics", _pds(4, "query cover state=q semantics=clique"),
     ModelSyntaxError, 4, 21, 'pushdown processes support semantics=rbn only'),
    ("pushdown-query-vector", _pds(4, "query cover state=q vector=(0) semantics=rbn"),
     ModelSyntaxError, 4, 21, 'pushdown targets take stack=, not vector='),
    ("query-dimension", _vass(4, "query cover state=s1 vector=(0,0) semantics=rbn"),
     DimensionMismatch, 4, 22, 'query vector has length 2, expected 1'),
    ("query-negative", _vass(4, "query cover state=s1 vector=(-2) semantics=rbn"),
     ModelSyntaxError, 4, 22, 'query vectors are nonnegative'),
    ("vass-query-stack", _vass(4, "query cover state=s1 stack=A semantics=rbn"),
     ModelSyntaxError, 4, 22, 'stack= targets need a pushdown process'),
    ("query-inner-bottom", _pds(4, "query cover state=q stack=A_B semantics=rbn"),
     ModelSyntaxError, 4, 21, "'_' may only end the stack word"),
    ("query-undeclared-symbol", _pds(4, "query cover state=q stack=AC_ semantics=rbn"),
     UndeclaredIdentifier, 4, 21, "stack symbol 'C' is not declared"),
    ("query-unknown-field", _vass(4, "query cover state=s1 semantics=rbn budget=3"),
     ModelSyntaxError, 4, 36, "unknown query field 'budget'"),
    # inputs the parser let through, or reported elsewhere, before it read
    # each line once
    ("pushdown-duplicate-stack", _pds(1, "process pushdown stack=ABA"),
     ModelSyntaxError, 1, 18, "duplicate stack symbols"),
    ("pushdown-duplicate-stack-comma", _pds(1, "process pushdown stack=A,B,A"),
     ModelSyntaxError, 1, 18, "duplicate stack symbols"),
    ("process-duplicate-option", _vass(1, "process vass dim=1 dim=2"),
     ModelSyntaxError, 1, 20, "duplicate process option 'dim'"),
    ("init-duplicate-option", _vass(2, "init s0 vector=(0) vector=(1)"),
     ModelSyntaxError, 2, 20, "duplicate init option 'vector'"),
    ("option-twice", _vass(5, "option complete-receives dead=d\noption complete-receives dead=e"),
     ModelSyntaxError, 6, 8, "complete-receives is already set"),
    ("option-duplicate-argument", _vass(5, "option complete-receives dead=d dead=e"),
     ModelSyntaxError, 5, 33, "duplicate option argument 'dead'"),
]


@pytest.mark.parametrize(
    "text, cls, line, col, message", [row[1:] for row in _ERRORS], ids=[row[0] for row in _ERRORS]
)
def test_each_error_is_reported_at_its_token(text, cls, line, col, message):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert (type(err.value), err.value.line, err.value.col, err.value.message) == (
        cls, line, col, message
    )


@pytest.mark.parametrize("text, key", [
    (_vass(1, "process vass dim"), "dim="),
    (_pds(1, "process pushdown stack"), "stack="),
    (_finite(1, "process finite dim"), "no options"),
    (_vass(2, "init s0 vector"), "vector="),
    (_vass(3, "trans s0 -> s1 on !!x delta"), "delta="),
    (_pds(3, "trans p -> q on !!m pre"), "pre="),
    (_vass(5, "option complete-receives dead"), "dead="),
    (_vass(4, "query cover state"), "state, vector"),
])
def test_a_bare_token_is_answered_with_its_directives_keys(text, key):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert err.value.message.startswith("expected key=value")
    assert key in err.value.remedy


def test_errors_come_in_file_order():
    # a bad delta on line 3 and a bad label on line 4: line 3 is reported
    text = _vass(3, "trans s0 -> s1 on !!x delta=(1,0)\ntrans s1 -> s0 on !x")
    with pytest.raises(DimensionMismatch) as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == (3, 23)


def test_a_query_may_name_a_state_declared_after_it():
    model = parse_model(_vass(4, "query cover state=s2 semantics=rbn\ntrans s1 -> s2 on ??x"))
    assert model.queries[0].state == "s2"
    assert model.process.states == ("s0", "s1", "s2")

