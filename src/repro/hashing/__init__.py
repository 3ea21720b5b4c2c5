"""Locality-sensitive hashing: SCALO's fast-but-approximate similarity."""

from repro.hashing.collision import CollisionChecker, HashRecord, RecentHashStore
from repro.hashing.emd_hash import EMDHash
from repro.hashing.lsh import (
    LSHConfig,
    LSHFamily,
    MEASURE_PRESETS,
    SUPPORTED_MEASURES,
)
from repro.hashing.minhash import finalize_hash, minhash_signature_batch
from repro.hashing.ngram import ngram_value_matrix
from repro.hashing.sketch import random_projection_vector, sign_sketch_batch

__all__ = [
    "CollisionChecker",
    "HashRecord",
    "RecentHashStore",
    "EMDHash",
    "LSHConfig",
    "LSHFamily",
    "MEASURE_PRESETS",
    "SUPPORTED_MEASURES",
    "finalize_hash",
    "minhash_signature_batch",
    "ngram_value_matrix",
    "random_projection_vector",
    "sign_sketch_batch",
]
