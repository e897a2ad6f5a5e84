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
