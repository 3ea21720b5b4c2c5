"""Trill-like query language: parser and compiler (paper §3.7)."""
