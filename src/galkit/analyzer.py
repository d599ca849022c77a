"""A small while-language: parser, abstract interpreter over carrier-level
connections with complete-lattice abstract sides, and a bounded concrete
interpreter used as a soundness oracle.

Grammar:
  program := stmt+
  stmt    := IDENT ":=" aexp ";"
           | "while" bexp "do" "{" stmt* "}"
           | "if" bexp "then" "{" stmt* "}" "else" "{" stmt* "}"
           | "skip" ";"
  aexp    := term (("+"|"-") term)* ;  term := factor ("*" factor)*
  factor  := INT | IDENT | "(" aexp ")"
  bexp    := aexp ("<"|"<="|"="|"!="|">"|">=") aexp
Comments run from "#" to end of line.  A leading "-" binds to an integer
literal only where a term cannot continue (so "x-1" is a subtraction).

Program points: every statement gets a label L1, L2, ... in syntactic order;
the analysis records the abstract state on entry to each statement (for a
while statement, the stabilized loop-head state) plus the final state under
the label "end".  Branch conditions do not refine abstract states; they only
steer the concrete oracle.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product, starmap

from .errors import (
    DomainMismatch,
    GalkitError,
    UnknownVariable,
    UseBeforeAssign,
    WhileSyntaxError,
)
from .functions import ConcreteFn, bca_pcgc_entry
from .galois import CarrierConn, check_pcgc
from .order import FinLattice

STEP_BUDGET = 10_000

KEYWORDS = {"while", "do", "if", "then", "else", "skip"}
CMP_OPS = ("<=", "!=", ">=", "<", "=", ">")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq,
    "!=": operator.ne, ">": operator.gt, ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Assign:
    var: str
    expr: object
    label: int = 0


@dataclass(frozen=True)
class Skip:
    label: int = 0


@dataclass(frozen=True)
class While:
    cond: Cmp
    body: tuple
    label: int = 0


@dataclass(frozen=True)
class If:
    cond: Cmp
    then: tuple
    els: tuple
    label: int = 0


@dataclass(frozen=True)
class Program:
    body: tuple
    n_labels: int


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


# operator symbols: a two-character one wins over its first character
_SYMBOLS2 = frozenset((":=", "<=", ">=", "!="))
_SYMBOLS1 = frozenset(";{}()+-*<>=")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal() or (
            ch == "-"
            and i + 1 < n
            and text[i + 1].isdecimal()
            and (not tokens or tokens[-1].kind not in ("int", "ident")
                 and tokens[-1].text != ")")
        ):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        sym = text[i:i + 2]
        if sym not in _SYMBOLS2:
            if ch not in _SYMBOLS1:
                raise WhileSyntaxError(f"unexpected character {ch!r}", line, col)
            sym = ch
        tokens.append(Token("op", sym, line, col))
        col += len(sym)
        i += len(sym)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.next_label = 1

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        got = tok.text or "end of input"
        raise WhileSyntaxError(f"expected {expected}, got {got!r}", tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        self.fail(f"'{text}'")

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            return self.advance()
        self.fail(f"'{word}'")

    def take_label(self) -> int:
        lbl = self.next_label
        self.next_label += 1
        return lbl

    def parse_program(self) -> Program:
        body = [self.parse_stmt()]
        while self.peek().kind != "eof":
            body.append(self.parse_stmt())
        return Program(tuple(body), self.next_label - 1)

    def parse_block(self) -> tuple:
        self.expect("{")
        body = []
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            if self.peek().kind == "eof":
                self.fail("'}'")
            body.append(self.parse_stmt())
        self.expect("}")
        return tuple(body)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "while":
            self.advance()
            label = self.take_label()
            cond = self.parse_bexp()
            self.expect_keyword("do")
            return While(cond, self.parse_block(), label)
        if tok.kind == "ident" and tok.text == "if":
            self.advance()
            label = self.take_label()
            cond = self.parse_bexp()
            self.expect_keyword("then")
            then = self.parse_block()
            self.expect_keyword("else")
            return If(cond, then, self.parse_block(), label)
        if tok.kind == "ident" and tok.text == "skip":
            self.advance()
            label = self.take_label()
            self.expect(";")
            return Skip(label)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            label = self.take_label()
            self.expect(":=")
            expr = self.parse_aexp()
            self.expect(";")
            return Assign(tok.text, expr, label)
        self.fail("a statement")

    def parse_bexp(self) -> Cmp:
        left = self.parse_aexp()
        tok = self.peek()
        if tok.kind == "op" and tok.text in CMP_OPS:
            self.advance()
            return Cmp(tok.text, left, self.parse_aexp())
        self.fail("a comparison operator")

    def parse_aexp(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_aexp()
            self.expect(")")
            return node
        self.fail("an integer, a variable or '('")


def _expr_vars(expr):
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, (BinOp, Cmp)):
        return _expr_vars(expr.left) | _expr_vars(expr.right)
    return set()


def _require_assigned(expr, assigned: set) -> None:
    used = _expr_vars(expr) - assigned
    if used:
        raise UseBeforeAssign(f"variable {sorted(used)[0]!r} used before assignment")


def _check_assigned(stmts, assigned: set) -> set:
    for st in stmts:
        if isinstance(st, Assign):
            _require_assigned(st.expr, assigned)
            assigned = assigned | {st.var}
        elif isinstance(st, While):
            _require_assigned(st.cond, assigned)
            _check_assigned(st.body, set(assigned))
        elif isinstance(st, If):
            _require_assigned(st.cond, assigned)
            a1 = _check_assigned(st.then, set(assigned))
            a2 = _check_assigned(st.els, set(assigned))
            assigned = a1 & a2
    return assigned


def program_vars(program: Program) -> list[str]:
    out: list[str] = []

    def walk(stmts):
        for st in stmts:
            if isinstance(st, Assign):
                if st.var not in out:
                    out.append(st.var)
            elif isinstance(st, While):
                walk(st.body)
            elif isinstance(st, If):
                walk(st.then)
                walk(st.els)

    walk(program.body)
    return out


def parse_program(text: str) -> Program:
    program = _Parser(_tokenize(text)).parse_program()
    _check_assigned(program.body, set())
    return program


# ---------------------------------------------------------------------------
# abstract interpretation


class AbstractSemantics:
    """Transfer functions over a purely constructive connection whose
    abstract side is a complete lattice; binary operator tables are computed
    entry by entry and memoized.

    An entry f♯(b1, b2) = lub {eta(o) | o ∈ f(mu(b1), mu(b2))} depends on
    the connection alone, which cannot change, and on the arithmetic of
    ``op``, which its carrier fixes.  So the entries are kept on the
    connection, in one dict keyed by ``(op, b1, b2)`` that its ``_kept``
    holds under this class (see :func:`galkit.order.kept`):
    every semantics built over the same connection, or one of the same
    contents over its table, reads and fills them, at most 3·|B|² of them,
    and they are freed with the table.  A domain
    that is refused keeps none.  Compiled expressions stay per semantics.
    """

    def __init__(self, domain: CarrierConn):
        if not isinstance(domain, CarrierConn):
            raise DomainMismatch(
                f"analysis domain needs a CarrierConn, not a {type(domain).__name__}")
        if not isinstance(domain.abstract, FinLattice):
            raise DomainMismatch("analysis domain needs a complete lattice")
        rep = check_pcgc(domain)
        if not rep.ok:
            raise DomainMismatch(f"analysis domain fails its conditions at {rep.witness}")
        self.domain = domain
        self.lat = domain.abstract
        carrier = domain.carrier
        if carrier.lo is None:
            raise DomainMismatch("analysis needs an integer carrier")
        self.ops = {op: ConcreteFn(2, _ArithTable(carrier, op)) for op in _ARITH}
        self._memo: dict = domain._kept.setdefault(AbstractSemantics, {})
        self._compiled: dict = {}
        eta, clamp, entry = domain.eta, carrier.clamp, self.op_entry
        self._lit = lambda n: eta[clamp(n)]
        self._ops = {op: (lambda b1, b2, op=op: entry(op, b1, b2)) for op in _ARITH}

    def op_entry(self, op: str, b1: str, b2: str) -> str:
        key = (op, b1, b2)
        if key not in self._memo:
            self._memo[key] = bca_pcgc_entry(self.domain, self.ops[op], b1, b2)
        return self._memo[key]

    def eval(self, expr, state: dict) -> str:
        """The abstract value of ``expr`` in ``state``; each expression is
        compiled once per semantics."""
        fn = self._compiled.get(expr)
        if fn is None:
            fn = self._compiled[expr] = _compile_expr(expr, self._lit, self._ops)
        return fn(state)


def _compile_expr(expr, lit, ops):
    """Compile an arithmetic expression, or a comparison, into a function
    ``env -> value``.

    ``lit`` maps an integer literal to its value and is applied here, once;
    ``ops`` maps each operator symbol to a binary function on values.  A
    variable missing from ``env`` raises UnknownVariable naming it.
    """
    if isinstance(expr, Lit):
        value = lit(expr.value)
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def read(env):
            try:
                return env[name]
            except KeyError:
                raise UnknownVariable(f"variable {name!r} has no value") from None
        return read
    apply = ops[expr.op]
    left = _compile_expr(expr.left, lit, ops)
    if isinstance(expr.right, Lit):
        value = lit(expr.right.value)
        return lambda env: apply(left(env), value)
    right = _compile_expr(expr.right, lit, ops)
    return lambda env: apply(left(env), right(env))


class _ArithTable:
    """A lazy binary operation table over an integer carrier.

    It supplies its own ``image``, so ``ConcreteFn.image`` and with it every
    best-correct-approximation entry skip the per-tuple ``__getitem__``:
    each argument set is converted to ints once, the raw results are built
    in one set, and only the distinct results are clamped.
    """

    def __init__(self, carrier, op):
        self.carrier = carrier
        self.op = op
        self.fn = _ARITH[op]

    def __getitem__(self, key):
        return self.carrier.clamp(self.fn(int(key[0]), int(key[1])))

    def image(self, xs, ys) -> set:
        """{clamp(x op y) | x ∈ xs, y ∈ ys}, as carrier values."""
        raw = set(starmap(self.fn, product(map(int, xs), map(int, ys))))
        clamp = self.carrier.clamp_int
        return {str(n) for n in {clamp(n) for n in raw}}


@dataclass
class AnalysisResult:
    points: dict  # label ("L1".."Lk", "end") -> dict var -> abstract element
    iterations: int


def analyze(program: Program, domain: CarrierConn) -> AnalysisResult:
    """Forward Kleene iteration; loop heads join the entry state with the
    body's exit until stabilization, recorded per program point.

    Each call builds its own :class:`AbstractSemantics`, so expressions are
    compiled per analysis, but the operator entries it computes are kept on
    ``domain``: a later analysis over the same connection reuses them.  A
    single analysis in a fresh process gains nothing from that.
    """
    sem = AbstractSemantics(domain)
    lat = sem.lat
    variables = program_vars(program)
    points: dict = {}
    iterations = 0

    def join_states(s1, s2):
        return {v: lat.join(s1[v], s2[v]) for v in variables}

    def run(stmts, state):
        nonlocal iterations
        for st in stmts:
            points[f"L{st.label}"] = dict(state)
            if isinstance(st, Assign):
                state = dict(state)
                state[st.var] = sem.eval(st.expr, state)
            elif isinstance(st, Skip):
                pass
            elif isinstance(st, If):
                out1 = run(st.then, state)
                out2 = run(st.els, state)
                state = join_states(out1, out2)
            elif isinstance(st, While):
                head = dict(state)
                while True:
                    iterations += 1
                    body_out = run(st.body, head)
                    grown = join_states(head, body_out)
                    if grown == head:
                        break
                    head = grown
                points[f"L{st.label}"] = dict(head)
                state = head
        return state

    init = {v: lat.bottom for v in variables}
    final = run(program.body, init)
    points["end"] = final
    # fixpoint post-check on every loop head
    def recheck(stmts):
        for st in stmts:
            if isinstance(st, While):
                head = points[f"L{st.label}"]
                silent = dict(points)
                body_out = run(st.body, head)
                points.clear()
                points.update(silent)
                if join_states(head, body_out) != head:
                    raise GalkitError(f"loop head L{st.label} is not a fixpoint")
                recheck(st.body)
            elif isinstance(st, If):
                recheck(st.then)
                recheck(st.els)

    recheck(program.body)
    return AnalysisResult(points, iterations)


def format_state(state: dict, variables: list[str], bottom: str) -> str:
    shown = [
        f"{v} ↦ {state[v]}" for v in variables
        if v in state and state[v] != bottom
    ]
    return "{" + ", ".join(shown) + "}"


def format_result(result: AnalysisResult, program: Program, domain: CarrierConn) -> str:
    variables = program_vars(program)
    bottom = domain.abstract.bottom
    lines = []
    for k in range(1, program.n_labels + 1):
        label = f"L{k}"
        if label in result.points:
            lines.append(
                f"{label}: {format_state(result.points[label], variables, bottom)}"
            )
    lines.append(f"end: {format_state(result.points['end'], variables, bottom)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bounded concrete oracle


class _OutOfSteps(Exception):
    """The concrete oracle's step budget ran out."""


def concrete_run(program: Program, carrier, budget: int = STEP_BUDGET) -> dict:
    """Execute the program with clamped integer arithmetic, recording every
    variable valuation seen on entry to each program point; stops quietly
    when the step budget runs out.

    Returns a dict from label to the list of environments recorded there,
    labels in first-visit order; "end" holds the final environment and is
    present only when the run finished within the budget.  Every entry to a
    statement, and every return to a loop head, is one step.  Recorded
    environments are read-only and may be shared between observations: an
    assignment builds a new dict, so a run never mutates one it recorded.

    A run that does not terminate is not executed to the end of its budget.
    Control is structured and there are no procedures, so what follows an
    arrival at a loop head depends only on that loop occurrence and the
    environment; each compiled loop keeps its own table keyed by the
    environment's items, so a label or a ``While`` node that occurs twice is
    two loops.  The carrier is finite, so a run that does not terminate
    arrives at some loop head twice in one state, and from the first of those
    arrivals it repeats with period P, the steps between them.  On the first
    repeat the loop notes the step and every label's list length; on the
    second, one period later, it appends the observations of that period
    k = ⌊(budget − steps)/P⌋ times and adds k·P to the steps, then runs the
    fewer than P remaining steps, so the budget runs out at the step where a
    run of every step would stop.  So a spinning loop costs its transient
    plus two periods of execution; the lists are still filled in full.
    """
    seen: dict = {}
    by_label: dict = {}
    steps = 0
    clamp = carrier.clamp_int
    ops = {op: (lambda a, b, fn=fn: clamp(fn(a, b))) for op, fn in _ARITH.items()}
    ops.update(_COMPARE)

    def recorder(label):
        envs = by_label.setdefault(label, [])

        def note(env):
            nonlocal steps
            if steps >= budget:
                raise _OutOfSteps
            steps += 1
            if not envs:
                seen[label] = envs
            envs.append(env)
        return note

    def block(stmts):
        compiled = [stmt(st) for st in stmts]
        if len(compiled) == 1:
            return compiled[0]

        def run(env):
            for step in compiled:
                env = step(env)
            return env
        return run

    def stmt(st):
        note = recorder(f"L{st.label}")
        if isinstance(st, Assign):
            var, expr = st.var, _compile_expr(st.expr, clamp, ops)

            def assign(env):
                note(env)
                return {**env, var: expr(env)}
            return assign
        if isinstance(st, Skip):
            def skip(env):
                note(env)
                return env
            return skip
        if isinstance(st, If):
            cond = _compile_expr(st.cond, clamp, ops)
            then, els = block(st.then), block(st.els)

            def branch(env):
                note(env)
                return then(env) if cond(env) else els(env)
            return branch
        if isinstance(st, While):
            cond, body = _compile_expr(st.cond, clamp, ops), block(st.body)
            # environment items -> step of the first arrival, then (step,
            # every label's list length) at the first repeat; the labels are
            # read at run time, as a period may pass labels compiled later
            arrivals: dict = {}

            def repeat(key, mark):
                nonlocal steps
                if type(mark) is int:
                    arrivals[key] = (steps, [len(envs) for envs in by_label.values()])
                    return
                start, lengths = mark
                k = (budget - steps) // (steps - start)
                for envs, n in zip(by_label.values(), lengths):
                    envs.extend(envs[n:] * k)
                steps += k * (steps - start)

            def loop(env):
                while True:
                    note(env)
                    key = tuple(env.items())
                    mark = arrivals.get(key)
                    if mark is None:
                        arrivals[key] = steps
                    else:
                        repeat(key, mark)
                    if not cond(env):
                        return env
                    env = body(env)
            return loop
        raise TypeError(f"not a statement: {st!r}")

    run = block(program.body)
    try:
        env = run({})
    except _OutOfSteps:
        return seen
    seen["end"] = [env]
    return seen
