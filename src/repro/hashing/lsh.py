"""The unified LSH family configurable per similarity measure.

The paper's key discovery (§3.2) is that one SSH-style LSH, by varying its
window and n-gram parameters, serves DTW, Euclidean distance *and*
cross-correlation; EMD reuses the dot-product step with a square-root
finish.  :class:`LSHFamily` is that single configurable hash.  Presets for
each measure come from the Fig. 14 design-space sweep (regenerable with
``repro.eval.hash_params``).

A hash is a tuple of small integer components (1-2 bytes total — "100x
smaller than signals").  Matching uses an OR-construction (any component
equal), deliberately biasing errors toward false positives, which the
exact comparison later resolves (§6.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.emd_hash import EMDHash
from repro.hashing.minhash import minhash_signature_batch
from repro.hashing.ngram import ngram_value_matrix
from repro.hashing.sketch import random_projection_vector, sign_sketch_batch

#: Measures the family supports.
SUPPORTED_MEASURES = ("dtw", "euclidean", "xcor", "emd")


@dataclass(frozen=True)
class LSHConfig:
    """Parameters of one configured hash function.

    Attributes:
        measure: which similarity measure this hash approximates.
        sketch_window: HCONV sliding sub-window length ``w`` (samples).
        ngram: shingle size ``n`` (bits); ignored for EMD.
        stride: HCONV hop between sliding positions.
        n_components: independent hash components (OR-construction width).
        bits: width of each component; the paper uses 8-bit hashes.
        normalise: z-score windows first (on for XCOR).
        seed: shared seed — all implants must agree on it.
        min_matching: components that must collide to declare a match
            (1 = OR construction, biased to false positives).
    """

    measure: str = "dtw"
    sketch_window: int = 16
    ngram: int = 8
    stride: int = 1
    n_components: int = 12
    bits: int = 4
    normalise: bool = False
    seed: int = 7
    min_matching: int = 7

    def __post_init__(self) -> None:
        if self.measure not in SUPPORTED_MEASURES:
            raise ConfigurationError(
                f"measure must be one of {SUPPORTED_MEASURES}, got {self.measure!r}"
            )
        if self.sketch_window < 1:
            raise ConfigurationError("sketch window must be >= 1")
        if self.ngram < 1:
            raise ConfigurationError("n-gram size must be >= 1")
        if not 1 <= self.min_matching <= self.n_components:
            raise ConfigurationError(
                "min_matching must be between 1 and n_components"
            )

    @property
    def hash_bytes(self) -> int:
        """Wire size of one hash (bytes), for network accounting."""
        return max(1, (self.n_components * self.bits + 7) // 8)


#: Fig. 14-derived default parameters per measure (window, n-gram, normalise).
#: The signature is 12 components x 4 bits = 6 B raw, 1-2 B after HCOMP
#: compression on the highly-skewed component streams; matching requires
#: 7 of 12 components to agree, leaving the residual errors biased toward
#: false positives (resolved by the exact comparison, §6.5).
MEASURE_PRESETS: dict[str, LSHConfig] = {
    "dtw": LSHConfig(measure="dtw", sketch_window=16, ngram=8),
    "euclidean": LSHConfig(measure="euclidean", sketch_window=8, ngram=8),
    "xcor": LSHConfig(measure="xcor", sketch_window=40, ngram=8,
                      normalise=True),
    "emd": LSHConfig(measure="emd", n_components=4, bits=8, min_matching=3),
}


class LSHFamily:
    """A configured locality-sensitive hash for one similarity measure.

    Example:
        >>> family = LSHFamily.for_measure("dtw")
        >>> h = family.hash_window(np.sin(np.linspace(0, 6, 120)))
        >>> family.matches(h, h)
        True
    """

    def __init__(self, config: LSHConfig):
        self.config = config
        if config.measure == "emd":
            self._emd = EMDHash(
                n_components=config.n_components, seed=config.seed
            )
            self._projection = None
        else:
            self._emd = None
            self._projection = random_projection_vector(
                config.sketch_window, config.seed
            )
        self._seeds = [config.seed * 1000 + i for i in range(config.n_components)]

    @classmethod
    def for_measure(cls, measure: str, **overrides) -> "LSHFamily":
        """Build a family from the per-measure preset, with overrides."""
        try:
            preset = MEASURE_PRESETS[measure]
        except KeyError:
            raise ConfigurationError(
                f"no preset for measure {measure!r}; choose from "
                f"{sorted(MEASURE_PRESETS)}"
            ) from None
        if overrides:
            from dataclasses import replace

            preset = replace(preset, **overrides)
        return cls(preset)

    # -- hashing ---------------------------------------------------------------

    def hash_window(self, window: np.ndarray) -> tuple[int, ...]:
        """Hash one signal window to its component tuple.

        The one-row view of :meth:`hash_windows`.
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 1:
            raise ConfigurationError("hash_window expects a single 1-D window")
        return tuple(self.hash_windows(window[None, :])[0].tolist())

    def hash_windows(self, windows: np.ndarray) -> np.ndarray:
        """Batch-hash ``(n_windows, window_len)`` rows in single passes.

        The sketch is one strided matmul over the whole batch, n-gram
        values are packed with one shift per n-gram bit, and the min-hash
        scores only the shingle values each row contains
        (:func:`~repro.hashing.minhash.minhash_signature_batch`).  Row
        ``i`` depends only on ``windows[i]``; the one-pass sampler in
        ``tests/minhash_oracle.py`` is the reference it is
        property-tested against (``tests/test_query_batching.py``).

        Returns:
            ``(n_windows, n_components)`` int64 array of components.
        """
        batch = np.asarray(windows, dtype=float)
        if batch.ndim != 2:
            raise ConfigurationError("hash_windows expects (n_windows, samples)")
        if self._emd is not None:
            return self._emd.hash_windows(batch)
        bits = sign_sketch_batch(
            batch,
            self._projection,
            stride=self.config.stride,
            normalise=self.config.normalise,
        )
        if bits.shape[1] < self.config.ngram:
            # degenerate geometry: every row's n-gram profile is empty
            return np.zeros((batch.shape[0], len(self._seeds)), dtype=np.int64)
        return minhash_signature_batch(
            ngram_value_matrix(bits, self.config.ngram),
            self._seeds,
            self.config.bits,
        )

    def hash_channels(self, windows: np.ndarray) -> list[tuple[int, ...]]:
        """Hash each row of a ``(n_channels, n_samples)`` array."""
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 2:
            raise ConfigurationError("expected (channels, samples)")
        return [tuple(row) for row in self.hash_windows(windows).tolist()]

    # -- matching ----------------------------------------------------------------

    def matches(self, sig_a: tuple[int, ...], sig_b: tuple[int, ...]) -> bool:
        """Collision decision under the configured OR/AND construction."""
        if len(sig_a) != len(sig_b):
            raise ConfigurationError("signature lengths differ")
        agreeing = sum(1 for a, b in zip(sig_a, sig_b) if a == b)
        return agreeing >= self.config.min_matching

    def matches_many(
        self, signatures: np.ndarray, signature: tuple[int, ...] | np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`matches` of many signatures against one, or
        against as many, row by row.

        Args:
            signatures: ``(n, n_components)`` component array (e.g. the
                output of :meth:`hash_windows`).
            signature: the probe signature, or an ``(n, n_components)``
                array whose row ``i`` is compared with ``signatures[i]``.

        Returns:
            Boolean array of shape ``(n,)``.
        """
        sigs = np.asarray(signatures)
        probe = np.asarray(signature)
        if sigs.ndim != 2 or probe.shape not in (sigs.shape[1:], sigs.shape):
            raise ConfigurationError("signature lengths differ")
        agreeing = (sigs == probe).sum(axis=1)
        return agreeing >= self.config.min_matching

    # -- wire format ---------------------------------------------------------------

    def pack(self, signature: tuple[int, ...]) -> bytes:
        """Serialise a signature for transmission (fixed width)."""
        out = bytearray()
        for component in signature:
            width = max(1, (self.config.bits + 7) // 8)
            out += int(component & ((1 << (8 * width)) - 1)).to_bytes(
                width, "little"
            )
        return bytes(out)

    def unpack(self, payload: bytes) -> tuple[int, ...]:
        """Inverse of :func:`pack`."""
        width = max(1, (self.config.bits + 7) // 8)
        expected = width * self.config.n_components
        if len(payload) != expected:
            raise ConfigurationError(
                f"expected {expected} bytes, got {len(payload)}"
            )
        return tuple(
            int.from_bytes(payload[i * width : (i + 1) * width], "little")
            for i in range(self.config.n_components)
        )
