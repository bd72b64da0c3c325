"""The expression grammar round-trips: print a random tree, compile it, and
get the tree's own numpy value bit for bit; malformed text is only ever an
``ExpressionError``; and the flat postfix compiler accepts exactly what a
recursive-descent reference parser accepts, with the same bits."""

import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab import exprs
from drbsde_lab.exprs import MAX_NESTING, ExpressionError, compile_expression

UNARY = {"neg": np.negative, "abs": np.abs}
BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "min": np.minimum,
          "max": np.maximum}
# binding strength of what a node prints as: sums, products, negation, atoms
PREC = {"+": 1, "-": 1, "*": 2, "neg": 3}

leaves = st.one_of(
    st.just(("t",)),
    st.just(("state",)),
    st.tuples(st.just("const"), st.one_of(
        st.floats(0.0, 1e6), st.sampled_from([0.0, 1e-300, 1e300, 2.5e-7]))),
)


def extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), children),
        st.tuples(st.sampled_from(sorted(BINARY)), children, children),
    )


trees = st.recursive(leaves, extend, max_leaves=12)


def evaluate(node, t, state):
    """The tree's value computed with numpy directly."""
    op, *args = node
    if op == "const":
        return args[0]
    if op == "t":
        return t
    if op == "state":
        return state
    vals = [evaluate(a, t, state) for a in args]
    return (UNARY.get(op) or BINARY[op])(*vals)


def show(node, full: bool) -> str:
    """Print ``node`` in the grammar, with every parenthesis or only the
    ones that precedence and left associativity need."""
    op, *args = node
    if op == "const":
        return repr(args[0])
    if op in ("t", "state"):
        return op
    if op in ("abs", "min", "max"):
        return f"{op}({', '.join(show(a, full) for a in args)})"
    prec = PREC[op]

    def operand(child, right=False):
        text = show(child, full)
        inner = PREC.get(child[0], 4)
        tight = inner < prec or (right and inner == prec)
        return f"({text})" if full or tight else text

    if op == "neg":
        return f"-{operand(args[0])}"
    return f"{operand(args[0])} {op} {operand(args[1], right=True)}"


def bits(x, shape):
    return np.ascontiguousarray(np.broadcast_to(np.asarray(x, dtype=float), shape)).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(tree=trees, t=st.floats(0.0, 2.0),
       state=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e200])),
                      min_size=1, max_size=6))
@np.errstate(all="ignore")
def test_printed_tree_compiles_to_its_own_value(tree, t, state):
    state = np.array(state)
    want = bits(evaluate(tree, t, state), state.shape)
    for full in (False, True):
        fn = compile_expression(show(tree, full))
        np.testing.assert_array_equal(bits(fn(t, state), state.shape), want)


@settings(max_examples=500, deadline=None)
@given(src=st.text(alphabet="0123456789.eE+-*/(),tatestminaxbs _\t^", max_size=30))
def test_malformed_text_raises_only_expression_error(src):
    try:
        compile_expression(src)
    except ExpressionError:
        pass


# -- the reference: a recursive-descent parser of the grammar and a recursive
# -- interpreter of its tuple trees, as the compiler was before it went flat

REF_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<sym>[-+*(),]))"
)


def ref_tokenize(src):
    pos, out = 0, []
    while pos < len(src):
        m = REF_TOKEN.match(src, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"cannot tokenize {src[pos:]!r}")
        kind = m.lastgroup
        out.append((kind, float(m.group(kind)) if kind == "num" else m.group(kind)))
        pos = m.end()
    return out + [("end", "")]


class RefParser:
    FUNCS = {"min": 2, "max": 2, "abs": 1}

    def __init__(self, src):
        self.tokens, self.pos = ref_tokenize(src), 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, sym):
        if self.take() != ("sym", sym):
            raise ExpressionError(f"expected {sym!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError("trailing input")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            op = self.take()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("sym", "*"):
            self.take()
            node = ("*", node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("sym", "-"):
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in ("t", "state"):
                return (val,)
            arity = self.FUNCS.get(val)
            if arity is None:
                raise ExpressionError(f"unknown name {val!r}")
            self.expect("(")
            args = [self.expr()]
            for _ in range(arity - 1):
                self.expect(",")
                args.append(self.expr())
            self.expect(")")
            return (val, *args)
        if (kind, val) == ("sym", "("):
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}")


def ref_evaluate(node, t, state):
    op, *args = node
    if op == "const":
        return args[0]
    if op == "t":
        return t
    if op == "state":
        return state
    vals = [ref_evaluate(a, t, state) for a in args]
    if op == "neg":
        return -vals[0]
    if op in ("+", "-", "*"):
        a, b = vals
        return a + b if op == "+" else a - b if op == "-" else a * b
    return {"abs": np.abs, "min": np.minimum, "max": np.maximum}[op](*vals)


def ref_tree(src):
    """The reference's tree of ``src``, or None where it rejects it."""
    try:
        return RefParser(src).parse()
    except ExpressionError:
        return None


STATES = np.array([-1.5, 0.0, -0.0, 2.0, 1e200])
PIECES = ["state", "t", "min", "max", "abs", "exp", "neg", "(", ")", ",", "+", "-", "*", " ",
          "1", "0.5", "2.", ".25", "3e2", "1e-3", "e", ".", "_", "\t", "/"]


@settings(max_examples=1000, deadline=None)
@given(src=st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=14).map("".join),
    st.text(alphabet="0123456789.eE+-*(),tatestminaxbs _", max_size=20)),
    t=st.sampled_from([0.0, 0.25, 1.0, 2.0]))
@np.errstate(all="ignore")
def test_the_flat_compiler_agrees_with_the_reference_parser(src, t):
    tree = ref_tree(src)
    try:
        fn = compile_expression(src)
    except ExpressionError:
        assert tree is None, src
        return
    assert tree is not None, src
    np.testing.assert_array_equal(bits(fn(t, STATES), STATES.shape),
                                  bits(ref_evaluate(tree, t, STATES), STATES.shape))


@pytest.mark.parametrize("src", ["min(1, 2,)", "min(1)", "abs(1, 2)", "+1", "()", "min 1",
                                 "t(1)", "min(,1)", "min((1,2),3)", "5e", "1..2", "",
                                 "state ", "neg(state)", "min(state", "state)"])
def test_malformed_strings_are_rejected_by_both(src):
    assert ref_tree(src) is None
    with pytest.raises(ExpressionError):
        compile_expression(src)


@pytest.mark.parametrize("src", [
    "(" * 5000 + "state" + ")" * 5000,
    "-" * 5000 + "state",
    "abs(" * (MAX_NESTING + 1) + "state" + ")" * (MAX_NESTING + 1),
    "(" * MAX_NESTING + "1 + -state" + ")" * MAX_NESTING,
])
def test_nesting_beyond_the_cap_is_an_expression_error_of_one_short_line(src):
    with pytest.raises(ExpressionError, match=f"over {MAX_NESTING} parentheses") as info:
        compile_expression(src)
    assert len(str(info.value)) <= 150 and "\n" not in str(info.value)


@np.errstate(all="ignore")
def test_deep_expressions_within_the_cap_compile_to_their_numpy_values():
    negated = STATES
    for _ in range(900):
        negated = np.negative(negated)
    np.testing.assert_array_equal(bits(compile_expression("-" * 900 + "state")(1.0, STATES), 5),
                                  bits(negated, 5))
    walked = STATES
    for _ in range(240):
        walked = walked * 0.5 - 1.0
    nested = "(" * 240 + "state" + " * 0.5 - 1)" * 240
    np.testing.assert_array_equal(bits(compile_expression(nested)(1.0, STATES), 5),
                                  bits(walked, 5))
    # a parenthesis, a call and the operators pending inside reach the cap at once
    depth = MAX_NESTING - 3
    fn = compile_expression("(" * depth + "max(1, 2 * -state)" + ")" * depth)
    np.testing.assert_array_equal(fn(1.0, STATES), np.maximum(1.0, 2.0 * -STATES))


def test_a_long_expression_is_flat():
    kinks = " + ".join(f"0.001*max(state - {i / 1000:g}, 0)" for i in range(1000))
    want = sum(0.001 * np.maximum(STATES - i / 1000, 0) for i in range(1000))
    np.testing.assert_array_equal(compile_expression(kinks)(1.0, STATES), want)


def test_each_operand_is_released_when_its_operation_returns(monkeypatch):
    """Every value made so far is dead by the next call unless that call uses it."""
    made = []

    def recorded(f):
        def call(*args):
            alive = [ref() for ref in made]
            assert all(v is None or any(v is a for a in args) for v in alive)
            out = f(*args)
            made.append(weakref.ref(out))
            return out
        return call

    for key in ("+", "*", "abs", "max"):
        f, n, binds = exprs._OPS[key]
        monkeypatch.setitem(exprs._OPS, key, (recorded(f), n, binds))
    fn = compile_expression("max(abs(abs(" + "(" * 5 + "state" + " * 2 + 1)" * 5 + ")), 0)")
    fn(1.0, np.linspace(-1.0, 1.0, 7))
    assert len(made) == 13


def test_evaluation_holds_no_more_than_the_expression_written_out():
    """numpy reuses a temporary's buffer when nothing else holds it, in the
    compiled program as in Python's own ``a - b``."""
    state = np.linspace(-1.0, 1.0, 1 << 17)
    fn = compile_expression("max(state, -0.7) * 2 - 0.25 - 0.1*t")

    def peak(evaluate):
        tracemalloc.start()
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    written = peak(lambda: np.maximum(state, -0.7) * 2 - 0.25 - 0.1 * 1.0)
    assert peak(lambda: fn(1.0, state)) <= written + 4096
