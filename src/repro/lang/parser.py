"""Parser for the Trill-like query subset SCALO supports.

Grammar (supporting the paper's Listings 1 and 2)::

    program := [ "var" IDENT "=" ] chain
    chain   := ("stream" | IDENT) ("." call)*
    call    := IDENT "(" [arg ("," arg)*] ")"
    arg     := IDENT "=" value | value
    value   := NUMBER [UNIT] | STRING | IDENT | lambda | slice | call-ish

Lambdas (``s => s.data``) and slice expressions (``w[-100ms:100ms]``) are
captured verbatim as opaque values — the compiler treats them as
selection parameters, matching the paper's static-scheduling restriction
(no data-dependent control flow on device).
"""

from __future__ import annotations

import re

from repro.errors import QuerySyntaxError
from repro.lang.ast import Call, QueryChain, Value

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>=>)
  | (?P<number>-?\d+(?:\.\d+)?)(?P<unit>ms|s|us|Hz|KHz|MHz)?
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<op>[().,=\[\]:<>+\-*/])
    """,
    re.VERBOSE,
)

_UNIT_TO_MS = {"ms": 1.0, "s": 1e3, "us": 1e-3}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise QuerySyntaxError(
                    f"unexpected character {text[pos]!r} at offset {pos}"
                )
            pos = match.end()
            kind = match.lastgroup
            if kind == "ws":
                continue
            if kind == "unit":
                kind = "number"
            if match.group("number") is not None:
                self.items.append(("number", match.group(0)))
            elif match.group("arrow") is not None:
                self.items.append(("arrow", "=>"))
            elif match.group("ident") is not None:
                self.items.append(("ident", match.group("ident")))
            elif match.group("string") is not None:
                self.items.append(("string", match.group("string"))),
            else:
                self.items.append(("op", match.group("op")))
        self.pos = 0

    def peek(self, ahead: int = 0) -> tuple[str, str] | None:
        index = self.pos + ahead
        return self.items[index] if index < len(self.items) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> str:
        token_kind, token_value = self.next()
        if token_kind != kind or (value is not None and token_value != value):
            raise QuerySyntaxError(
                f"expected {value or kind}, got {token_value!r}"
            )
        return token_value


def _parse_number(raw: str) -> Value:
    match = re.fullmatch(r"(-?\d+(?:\.\d+)?)(ms|s|us|Hz|KHz|MHz)?", raw)
    assert match is not None
    number = float(match.group(1))
    unit = match.group(2)
    if unit in _UNIT_TO_MS:
        return Value("duration_ms", raw, number * _UNIT_TO_MS[unit])
    return Value("number", raw, number)


def _capture_balanced(tokens: _Tokens) -> str:
    """Capture a balanced expression (for lambdas) verbatim until a
    top-level ',' or ')'."""
    depth = 0
    parts: list[str] = []
    while True:
        token = tokens.peek()
        if token is None:
            raise QuerySyntaxError("unterminated expression")
        kind, value = token
        if depth == 0 and kind == "op" and value in (",", ")"):
            break
        if kind == "op" and value in "([":
            depth += 1
        elif kind == "op" and value in ")]":
            depth -= 1
        tokens.next()
        parts.append(value)
    return " ".join(parts)


def _parse_value(tokens: _Tokens) -> Value:
    kind, raw = tokens.peek()  # type: ignore[misc]
    # lambda: IDENT => ...
    if kind == "ident":
        nxt = tokens.peek(1)
        if nxt is not None and nxt[0] == "arrow":
            name = tokens.next()[1]
            tokens.next()  # =>
            body = _capture_balanced(tokens)
            return Value("lambda", f"{name} => {body}")
    if kind == "number":
        tokens.next()
        return _parse_number(raw)
    if kind == "string":
        tokens.next()
        return Value("string", raw.strip("\"'"))
    if kind == "ident":
        # identifier possibly followed by slices/dots — capture verbatim
        body = _capture_balanced(tokens)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", body):
            return Value("symbol", body)
        return Value("slice" if "[" in body else "lambda", body)
    if kind == "op" and raw == "-":
        body = _capture_balanced(tokens)
        return Value("slice", body)
    raise QuerySyntaxError(f"cannot parse value near {raw!r}")


def _parse_call(tokens: _Tokens) -> Call:
    name = tokens.expect("ident")
    tokens.expect("op", "(")
    args: list[Value] = []
    kwargs: list[tuple[str, Value]] = []
    while True:
        token = tokens.peek()
        if token is None:
            raise QuerySyntaxError("unterminated call")
        if token == ("op", ")"):
            tokens.next()
            break
        # keyword argument?
        nxt = tokens.peek(1)
        if (
            token[0] == "ident"
            and nxt == ("op", "=")
            and (tokens.peek(2) or ("", ""))[0] != "op"
        ):
            key = tokens.next()[1]
            tokens.next()  # =
            kwargs.append((key, _parse_value(tokens)))
        else:
            args.append(_parse_value(tokens))
        token = tokens.peek()
        if token == ("op", ","):
            tokens.next()
    return Call(name, tuple(args), tuple(kwargs))


def parse_query(text: str) -> QueryChain:
    """Parse one query statement into a :class:`QueryChain`.

    Examples:
        >>> chain = parse_query(
        ...     "var movements = stream.window(wsize=50ms).sbp()"
        ...     ".kf(kf_params).call_runtime()")
        >>> chain.call_names
        ['window', 'sbp', 'kf', 'call_runtime']
    """
    text = text.strip().rstrip(";")
    if not text:
        raise QuerySyntaxError("empty query")
    tokens = _Tokens(text)

    chain = QueryChain()
    token = tokens.peek()
    if token == ("ident", "var"):
        tokens.next()
        chain.var_name = tokens.expect("ident")
        tokens.expect("op", "=")

    root = tokens.expect("ident")
    if root != "stream":
        raise QuerySyntaxError(f"chains must start at 'stream', got {root!r}")
    while tokens.peek() is not None:
        tokens.expect("op", ".")
        chain.calls.append(_parse_call(tokens))
    if not chain.calls:
        raise QuerySyntaxError("a query needs at least one operation")
    return chain
