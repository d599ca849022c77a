"""Parsing, abstract interpretation and the bounded concrete oracle."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import program_names, program_text

from galkit import catalog
from galkit.analyzer import (
    AbstractSemantics,
    Token,
    _tokenize,
    Assign,
    BinOp,
    Cmp,
    If,
    Lit,
    Program,
    Skip,
    Var,
    While,
    analyze,
    concrete_run,
    format_result,
    format_state,
    parse_program,
    program_vars,
)
from galkit.errors import (
    DomainMismatch,
    UnknownVariable,
    UseBeforeAssign,
    WhileSyntaxError,
)


# ---------------------------------------------------------------------------
# parsing


def test_labels_follow_syntactic_order():
    p = parse_program("x := 1; while x < 3 do { x := x + 1; } y := x;")
    kinds = [(type(st).__name__, st.label) for st in p.body]
    assert kinds == [("Assign", 1), ("While", 2), ("Assign", 4)]
    assert p.body[1].body[0].label == 3
    assert p.n_labels == 4


def test_operator_precedence_and_parentheses():
    p = parse_program("x := 1 + 2 * 3;")
    expr = p.body[0].expr
    assert expr == BinOp("+", Lit(1), BinOp("*", Lit(2), Lit(3)))
    q = parse_program("x := (1 + 2) * 3;")
    assert q.body[0].expr == BinOp("*", BinOp("+", Lit(1), Lit(2)), Lit(3))


def test_negative_literals_vs_subtraction():
    p = parse_program("x := -3; y := x-1; z := x * -1;")
    assert p.body[0].expr == Lit(-3)
    assert p.body[1].expr == BinOp("-", Var("x"), Lit(1))
    assert p.body[2].expr == BinOp("*", Var("x"), Lit(-1))


def test_comments_and_skip():
    p = parse_program("# intro\nx := 1;  # after\nskip;\n")
    assert isinstance(p.body[1], Skip)


def test_syntax_errors_carry_positions():
    with pytest.raises(WhileSyntaxError) as err:
        parse_program("x := 1;\ny := ;\n")
    assert err.value.line == 2
    with pytest.raises(WhileSyntaxError):
        parse_program("while x < 1 { }")  # missing do
    with pytest.raises(WhileSyntaxError):
        parse_program("if 1 < 2 then { skip; }")  # missing else
    with pytest.raises(WhileSyntaxError):
        parse_program("x := 1")  # missing semicolon


@pytest.mark.parametrize("text, col", [("x := ²;", 6), ("x := -²;", 7), ("x := 12³;", 8)],
                         ids=["start", "after-minus", "extend"])
def test_a_digit_that_is_not_decimal_is_a_syntax_error(text, col):
    # "²".isdigit() holds, but int("²") raises ValueError
    with pytest.raises(WhileSyntaxError, match="unexpected character") as err:
        parse_program(text)
    assert (err.value.line, err.value.col) == (1, col)
    # a name may still hold one, as str.isalnum allows
    assert program_vars(parse_program("x² := 1; y := x²;")) == ["x²", "y"]


def literal_tokenize(text: str) -> list[Token]:
    """The tokenizer as it tried each symbol with ``str.startswith``, the
    two-character ones first."""
    tokens, line, col, i, n = [], 1, 1, 0, len(text)
    symbols = (":=", "<=", ">=", "!=", ";", "{", "}", "(", ")",
               "+", "-", "*", "<", ">", "=")
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal() or (
            ch == "-" and i + 1 < n and text[i + 1].isdecimal()
            and (not tokens or tokens[-1].kind not in ("int", "ident")
                 and tokens[-1].text != ")")
        ):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        for sym in symbols:
            if text.startswith(sym, i):
                tokens.append(Token("op", sym, line, col))
                col, i = col + len(sym), i + len(sym)
                break
        else:
            raise WhileSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def token_outcome(tokenize, text):
    """The tokens, or the message, line and column of the syntax error."""
    try:
        return tokenize(text)
    except WhileSyntaxError as exc:
        return str(exc), exc.line, exc.col


@st.composite
def mutated_corpus_texts(draw):
    """A corpus program with a few characters replaced, inserted or
    deleted, drawn from the symbols, their near misses and the text's own."""
    text = program_text(draw(st.sampled_from(program_names())))
    chars = st.sampled_from(list(":=<>!;{}()+-*#\n 0a_é²?"))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        if kind == "replace":
            text = text[:i] + draw(chars) + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + draw(chars) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_corpus_texts())
# a symbol's first character at the end of the text
@example("x :")
@example("x !")
@example("x <")
@example("")
def test_the_tokenizer_agrees_with_the_startswith_loop(text):
    assert token_outcome(_tokenize, text) == token_outcome(literal_tokenize, text)


def test_use_before_assign_rules():
    with pytest.raises(UseBeforeAssign):
        parse_program("x := y;")
    with pytest.raises(UseBeforeAssign):
        parse_program(
            "if 1 < 2 then { x := 1; } else { skip; } y := x;"
        )
    # assignments in both branches do flow out
    parse_program("if 1 < 2 then { x := 1; } else { x := 2; } y := x;")
    # assignments inside a loop body do not flow out
    with pytest.raises(UseBeforeAssign):
        parse_program("while 1 < 2 do { x := 1; } y := x;")


def test_program_vars_in_first_assignment_order():
    p = parse_program("b := 1; a := 2; b := a;")
    assert program_vars(p) == ["b", "a"]


# ---------------------------------------------------------------------------
# abstract evaluation


def test_abstract_eval_literals_and_ops(signconst):
    sem = AbstractSemantics(signconst)
    expr = parse_program("r := 2 + 3;").body[0].expr
    assert sem.eval(expr, {}) == "5"
    expr = BinOp("*", Var("x"), Var("y"))
    assert sem.eval(expr, {"x": ">0", "y": "<0"}) == "<0"
    assert sem.eval(Lit(1000), {}) == "64"


def test_analyze_requires_a_pcgc_lattice_domain(parity):
    p = parse_program("x := 1;")
    with pytest.raises(DomainMismatch):
        analyze(p, parity)  # discrete abstract side, no lattice


@pytest.mark.parametrize("name", ["sign_pgi", "sign_minus_ppgc", "interval_gi_d"])
def test_analyze_refuses_a_galois_connection(name):
    with pytest.raises(DomainMismatch, match="not a GaloisConn"):
        analyze(parse_program("x := 1;"), catalog.builtin(name, 10))


def test_analyze_branch_join(signconst):
    p = parse_program(
        "a := 1; if a < 2 then { b := 3; } else { b := 5; } c := b;"
    )
    result = analyze(p, signconst)
    assert result.points["end"]["b"] == ">0"
    assert result.points["end"]["a"] == "1"


def test_analyze_loop_records_stabilized_head(signconst):
    p = parse_program(program_text("p01_doubling_loop.while"))
    result = analyze(p, signconst)
    loop = next(st for st in p.body if isinstance(st, While))
    assert result.points[f"L{loop.label}"] == {"x": ">0", "y": "2"}
    assert result.points["end"] == {"x": ">0", "y": "2"}
    assert result.iterations >= 2


def test_analyze_constant_propagation(signconst):
    p = parse_program("x := 2; y := x * 3; z := y - 7;")
    result = analyze(p, signconst)
    assert result.points["end"] == {"x": "2", "y": "6", "z": "-1"}


# ---------------------------------------------------------------------------
# the concrete oracle


def test_concrete_run_records_entry_environments(signconst):
    p = parse_program("x := 2; y := x + 1;")
    seen = concrete_run(p, signconst.carrier)
    assert seen["L1"] == [{}]
    assert seen["L2"] == [{"x": 2}]
    assert seen["end"] == [{"x": 2, "y": 3}]


def test_concrete_run_respects_step_budget(signconst):
    p = parse_program(program_text("p08_budget_spinner.while"))
    for budget, counts in [
        (50, {"L1": 1, "L2": 25, "L3": 24}),
        (10_000, {"L1": 1, "L2": 5000, "L3": 4999}),
    ]:
        seen = concrete_run(p, signconst.carrier, budget=budget)
        assert "end" not in seen
        assert {label: len(envs) for label, envs in seen.items()} == counts


# hand-built programs skip parse_program's use-before-assignment check
UNASSIGNED_Y = [
    Program((Assign("x", BinOp("+", Var("y"), Lit(1)), 1),), 1),
    Program((Assign("x", Lit(1), 1), While(Cmp("<", Var("x"), Var("y")), (), 2)), 2),
]


@pytest.mark.parametrize("program", UNASSIGNED_Y, ids=["assign", "loop-test"])
def test_the_oracle_names_an_unassigned_variable(signconst, program):
    with pytest.raises(UnknownVariable, match="'y'"):
        concrete_run(program, signconst.carrier)


def test_the_analysis_names_an_unassigned_variable(signconst):
    with pytest.raises(UnknownVariable, match="'y'"):
        analyze(UNASSIGNED_Y[0], signconst)


def test_concrete_values_stay_inside_concretizations(signconst):
    p = parse_program(program_text("p05_countdown.while"))
    result = analyze(p, signconst)
    seen = concrete_run(p, signconst.carrier)
    for label, envs in seen.items():
        for env in envs:
            for var, val in env.items():
                assert str(val) in signconst.mu[result.points[label][var]]


# ---------------------------------------------------------------------------
# formatting


def test_format_state_hides_bottom_and_orders_variables(signconst):
    lat = signconst.abstract
    text = format_state({"x": ">0", "y": lat.bottom}, ["x", "y"], lat.bottom)
    assert text == "{x ↦ >0}"


def test_format_result_lists_every_point(signconst):
    p = parse_program("x := 1; y := x;")
    out = format_result(analyze(p, signconst), p, signconst)
    lines = out.splitlines()
    assert lines[0].startswith("L1:")
    assert lines[-1].startswith("end:")
    assert "x ↦ 1" in out
