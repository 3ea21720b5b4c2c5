"""AST for the Trill-like query language (paper §3.7, Listings 1-2)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Value:
    """A literal argument: number with optional unit, string, or symbol."""

    kind: str  # "number" | "duration_ms" | "string" | "symbol" | "lambda" | "slice"
    raw: str
    number: float | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.raw


@dataclass(frozen=True)
class Call:
    """One method invocation in a chain: ``name(arg, kw=value)``."""

    name: str
    args: tuple[Value, ...] = ()
    kwargs: tuple[tuple[str, Value], ...] = ()

    def kwarg(self, key: str) -> Value | None:
        for k, v in self.kwargs:
            if k == key:
                return v
        return None


@dataclass
class QueryChain:
    """A full query: ``var name = stream.call1(...).call2(...)``."""

    calls: list[Call] = field(init=False, default_factory=list)
    var_name: str | None = field(init=False, default=None)

    @property
    def call_names(self) -> list[str]:
        return [c.name for c in self.calls]
