"""Parser for model equations.

Grammar::

    model  := lhs '=' term ('+' term)*
    lhs    := '1' | NAME
    term   := factor ('*' factor)*
    factor := '1' | NAME
    NAME   := [A-Za-z_][A-Za-z0-9_]*

The left side is the response (the literal ``1`` makes the model
implicit); each right-side term becomes one regressor direction, with
``*`` building interaction directions like ``x*y``.  The constant ``1``
may stand alone as a term (an explicit intercept) but not inside a
product, where it would silently collapse.  Syntax errors raise
:class:`~latreg.errors.FormulaError` carrying the 0-based offset of the
offending character.  The whole text is split into tokens before any
is parsed, so a character that starts no token is the error reported.
"""

from __future__ import annotations

import re

from .errors import FormulaError
from .estimators import ModelSpec
from .lattice import Direction, UNITY

__all__ = ["parse_model"]

_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<number>\d+(?:\.\d+)?)"
                    r"|(?P<op>[=+*])")


def parse_model(text: str) -> ModelSpec:
    """Parse an equation like ``"y = 1 + x"`` or ``"1 = x + y + x*y"``.

    Raises :class:`FormulaError` with a position on syntax errors and
    plain :class:`ValueError` on semantic ones (duplicate regressors,
    response repeated on the right side).
    """
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    # The end token is never a factor, so the token after a factor exists.
    tokens.append(("end", "", len(text)))

    def factor(kind: str, value: str, at: int,
               in_product: bool = False) -> Direction:
        if kind == "name":
            return Direction(value)
        if kind != "number":
            got = f", got {value!r}" if kind == "op" else ""
            raise FormulaError(f"expected a column name or 1{got}", at)
        if value != "1":
            raise FormulaError(f"only the constant 1 is allowed, not {value!r}", at)
        if in_product:
            raise FormulaError("the constant 1 may not appear inside a product", at)
        return UNITY

    response = factor(*tokens[0])
    if tokens[1][1] != "=":
        raise FormulaError("expected '=' after the response", tokens[1][2])
    regressors, i = [], 2
    while True:
        term, start = factor(*tokens[i]), tokens[i][2]
        i += 1
        while tokens[i][1] == "*":
            if term.is_unity:
                raise FormulaError(
                    "the constant 1 may not appear inside a product", start)
            term *= factor(*tokens[i + 1], in_product=True)
            i += 2
        regressors.append(term)
        kind, value, at = tokens[i]
        if kind == "end":
            return ModelSpec(response=response, regressors=tuple(regressors))
        if value != "+":
            raise FormulaError(
                f"expected '+' or end of expression, got {value!r}", at)
        i += 1
