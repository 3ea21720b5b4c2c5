"""Compression substrate: the HCOMP/DCOMP hash codec and an LZ baseline."""
