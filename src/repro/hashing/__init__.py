"""Locality-sensitive hashing: SCALO's fast-but-approximate similarity."""
