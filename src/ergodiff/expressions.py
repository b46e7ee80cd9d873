"""Tiny arithmetic-expression grammar for user-declared coefficient functions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := exp | tanh | abs

Compiled expressions evaluate elementwise over numpy arrays.  Parse errors
carry the 1-based column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionError

__all__ = ["parse_expression", "CompiledExpression"]

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_]+)|([()+\-*/^]))")

_FUNCS: dict[str, Callable] = {"exp": np.exp, "tanh": np.tanh, "abs": np.abs}
_CONSTS = {"pi": np.pi, "e": np.e}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m or m.end() == i:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}",
                                  position=len(src) - len(stripped))
        if m.group(1) is not None:
            tokens.append(_Token("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(_Token("name", m.group(2), m.start(2)))
        else:
            tokens.append(_Token("op", m.group(3), m.start(3)))
        i = m.end()
    return tokens


class CompiledExpression:
    """Callable compiled from an expression string; vectorized over x."""

    def __init__(self, source: str, fn: Callable):
        self.source = source
        self._fn = fn

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"CompiledExpression({self.source!r})"


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression",
                                  position=len(self.src) - 1)
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionError(f"expected {op!r}, found {tok.text!r}",
                                  position=tok.pos)

    def parse(self) -> Callable:
        fn = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(f"trailing input {tok.text!r}", position=tok.pos)
        return fn

    def _expr(self) -> Callable:
        left = self._term()
        while (tok := self._peek()) is not None \
                and tok.kind == "op" and tok.text in "+-":
            self._next()
            right = self._term()
            if tok.text == "+":
                left = (lambda a, b: lambda x: a(x) + b(x))(left, right)
            else:
                left = (lambda a, b: lambda x: a(x) - b(x))(left, right)
        return left

    def _term(self) -> Callable:
        left = self._factor()
        while (tok := self._peek()) is not None \
                and tok.kind == "op" and tok.text in "*/":
            self._next()
            right = self._factor()
            if tok.text == "*":
                left = (lambda a, b: lambda x: a(x) * b(x))(left, right)
            else:
                left = (lambda a, b: lambda x: a(x) / b(x))(left, right)
        return left

    def _factor(self) -> Callable:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            inner = self._factor()
            return (lambda a: lambda x: -a(x))(inner)
        return self._power()

    def _power(self) -> Callable:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self._next()
            exponent = self._factor()
            return (lambda a, b: lambda x: a(x) ** b(x))(base, exponent)
        return base

    def _atom(self) -> Callable:
        tok = self._next()
        if tok.kind == "num":
            val = float(tok.text)
            return lambda x: np.full_like(x, val)
        if tok.kind == "name":
            name = tok.text
            if name == "x":
                return lambda x: x
            if name in _CONSTS:
                val = _CONSTS[name]
                return lambda x: np.full_like(x, val)
            if name in _FUNCS:
                func = _FUNCS[name]
                self._expect_op("(")
                arg = self._expr()
                self._expect_op(")")
                return (lambda fu, a: lambda x: fu(a(x)))(func, arg)
            raise ExpressionError(f"unknown name {name!r}", position=tok.pos)
        if tok.text == "(":
            inner = self._expr()
            self._expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {tok.text!r}", position=tok.pos)


def parse_expression(source: str) -> CompiledExpression:
    """Compile an expression over ``x`` into a vectorized callable."""
    if not source or not source.strip():
        raise ExpressionError("empty expression", position=0)
    parser = _Parser(source)
    fn = parser.parse()
    return CompiledExpression(source.strip(), fn)
