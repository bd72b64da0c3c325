"""Minimal expression grammar for obstacle and terminal specifications.

Configs carry obstacles as strings over a closed grammar -- ``+``, ``-``,
``*``, ``min``, ``max``, ``abs``, numeric constants, ``t`` and ``state`` --
instead of arbitrary code, so runs are reproducible without an embedded
evaluation environment.  Parsing is a tiny recursive descent; evaluation
broadcasts over numpy arrays.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<sym>[-+*(),]))"
)


class ExpressionError(ValueError):
    pass


def _tokenize(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"cannot tokenize {src[pos:]!r} in {src!r}")
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("sym", m.group("sym")))
        pos = m.end()
    out.append(("end", ""))
    return out


class _Parser:
    FUNCS = {"min": 2, "max": 2, "abs": 1}

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym: str):
        kind, val = self.take()
        if kind != "sym" or val != sym:
            raise ExpressionError(f"expected {sym!r} in {self.src!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input in {self.src!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (op, node, rhs)
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
                raise ExpressionError(f"unknown name {val!r} in {self.src!r}")
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
        raise ExpressionError(f"unexpected token {val!r} in {self.src!r}")


def _evaluate(node, t, state):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "t":
        return t
    if op == "state":
        return state
    if op == "neg":
        return -_evaluate(node[1], t, state)
    if op == "+":
        return _evaluate(node[1], t, state) + _evaluate(node[2], t, state)
    if op == "-":
        return _evaluate(node[1], t, state) - _evaluate(node[2], t, state)
    if op == "*":
        return _evaluate(node[1], t, state) * _evaluate(node[2], t, state)
    if op == "abs":
        return np.abs(_evaluate(node[1], t, state))
    if op == "min":
        return np.minimum(_evaluate(node[1], t, state), _evaluate(node[2], t, state))
    if op == "max":
        return np.maximum(_evaluate(node[1], t, state), _evaluate(node[2], t, state))
    raise ExpressionError(f"unknown node {op!r}")


def compile_expression(src: str) -> Callable:
    """Compile a grammar string to a broadcasting ``(t, state) -> value``."""
    tree = _Parser(src).parse()

    def fn(t, state):
        # an overflow is data, not a warning: callers reject non-finite values
        with np.errstate(over="ignore", invalid="ignore"):
            out = _evaluate(tree, t, state)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(state)).copy() \
            if np.shape(out) != np.shape(state) else np.asarray(out, dtype=float)

    fn.source = src
    return fn
