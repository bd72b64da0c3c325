"""The expression grammar round-trips: print a random tree, compile it, and
get the tree's own numpy value bit for bit; malformed text is only ever an
``ExpressionError``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drbsde_lab.exprs import ExpressionError, compile_expression

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
