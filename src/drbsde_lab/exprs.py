"""Minimal expression grammar for obstacle and terminal specifications.

Configs carry obstacles as strings over a closed grammar -- ``+``, ``-``,
``*``, ``min``, ``max``, ``abs``, numeric constants, ``t`` and ``state`` --
instead of arbitrary code, so runs are reproducible without an embedded
evaluation environment.  One loop compiles a string to a flat postfix
program and one loop evaluates it, broadcasting over numpy arrays; both
read the operator table ``_OPS`` and neither recurses, so an expression may
be any length, with at most ``MAX_NESTING`` parentheses, calls and pending
operators open at once.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

import numpy as np

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<sym>[-+*(),]))"
)

# name -> (function, operand count, binding strength); strength 0 marks a
# function called by name, and "neg" is the prefix "-"
_OPS = {
    "+": (operator.add, 2, 1),
    "-": (operator.sub, 2, 1),
    "*": (operator.mul, 2, 2),
    "neg": (operator.neg, 1, 3),
    "abs": (np.abs, 1, 0),
    "min": (np.minimum, 2, 0),
    "max": (np.maximum, 2, 0),
}
MAX_NESTING = 1000


class ExpressionError(ValueError):
    pass


def _error(what: str, src: str, pos: int) -> ExpressionError:
    """An error quoting at most 50 characters of ``src`` around ``pos``."""
    near = ascii(src[max(pos - 25, 0):pos + 25])[:60]
    return ExpressionError(f"{what} at character {pos} of {len(src)} near {near}")


def _compile(src: str) -> list:
    """The postfix program of ``src``: floats, ``"t"``, ``"state"`` and ``_OPS``
    keys.  ``pending`` holds the operators not yet emitted and the open groups,
    ``[commas still due, name]``, a parenthesis having no name."""
    program, pending, operand, pos = [], [], True, 0  # operand: one comes next
    while True:
        m = _TOKEN.match(src, pos)
        if m is None and pos < len(src):
            raise _error("cannot read a token", src, pos)
        kind, tok = (m.lastgroup, m.group(m.lastgroup)) if m else ("end", "")
        start, pos = (m.start(kind), m.end()) if m else (pos, pos)
        unexpected = f"unexpected {ascii(tok[:20]) if tok else 'end'}"
        if operand:
            if kind == "num" or tok in ("t", "state"):
                program.append(float(tok) if kind == "num" else tok)
                operand = False
            elif tok == "-" or tok == "(":
                pending.append("neg" if tok == "-" else [0])
            elif kind == "name" and _OPS.get(tok, (None, 0, 1))[2] == 0:
                paren = _TOKEN.match(src, pos)  # a function name takes "(" next
                if not (paren and paren.group("sym") == "("):
                    raise _error(f"expected '(' after {tok!r}", src, pos)
                pending.append([_OPS[tok][1] - 1, tok])
                pos = paren.end()
            else:
                raise _error(unexpected, src, start)
        elif kind == "sym" and tok in "+-*":
            while (pending and isinstance(pending[-1], str)
                   and _OPS[pending[-1]][2] >= _OPS[tok][2]):
                program.append(pending.pop())
            pending.append(tok)
            operand = True
        else:  # ",", ")" and the end emit every pending operator
            while pending and isinstance(pending[-1], str):
                program.append(pending.pop())
            group = pending[-1] if pending else None
            if kind == "end" and group is None:
                return program
            if tok == "," and group and group[0] > 0:
                group[0] -= 1
                operand = True
            elif tok == ")" and group and group[0] == 0:
                program += pending.pop()[1:]
            else:
                raise _error(unexpected, src, start)
        if len(pending) > MAX_NESTING:
            raise _error(f"over {MAX_NESTING} parentheses, calls and operators open", src, start)


def _run(program: list, t, state):
    """Evaluate a postfix program.  Operations pop their operands: none outlives
    its call, and numpy may reuse a temporary's buffer, as in ``a - b``."""
    stack, names = [], {"t": t, "state": state}
    for op in program:
        if op in _OPS:
            f, n, _ = _OPS[op]
            stack.append(f(stack.pop(-2), stack.pop()) if n == 2 else f(stack.pop()))
        else:
            stack.append(names.get(op, op))
    return stack[0]


def compile_expression(src: str) -> Callable:
    """Compile a grammar string to a broadcasting ``(t, state) -> value``."""
    program = _compile(src)

    def fn(t, state):
        # an overflow is data, not a warning: callers reject non-finite values
        with np.errstate(over="ignore", invalid="ignore"):
            out = _run(program, t, state)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(state)).copy() \
            if np.shape(out) != np.shape(state) else np.asarray(out, dtype=float)

    fn.source = src
    return fn
