"""Trill-like query language: parser and compiler (paper §3.7)."""

from repro.lang.ast import Call, QueryChain, Value
from repro.lang.compiler import (
    METHOD_OPERATORS,
    CompiledQuery,
    compile_query,
    compile_text,
)
from repro.lang.parser import parse_program, parse_query

__all__ = [
    "Call",
    "QueryChain",
    "Value",
    "METHOD_OPERATORS",
    "CompiledQuery",
    "compile_query",
    "compile_text",
    "parse_program",
    "parse_query",
]
