"""A lightweight runtime executing compiled queries on sample arrays.

The on-device MC runtime listens for code/data and reconfigures pipelines
(paper §3.7); this software twin executes a compiled chain directly on a
``(channels, samples)`` array so examples and tests can run end-to-end:
parse -> compile -> execute.

Operators needing trained models (``svm``, ``kf``, ``nn``,
``seizure_detect``) read them from the runtime's model registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import CompilationError
from repro.lang.compiler import CompiledQuery
from repro.signal.features import (
    nonlinear_energy,
    spike_band_power_multichannel,
)
from repro.signal.filters import ButterworthBandpass
from repro.signal.windows import channel_windows, ms_to_samples
from repro.units import ADC_SAMPLE_RATE_HZ


@dataclass
class QueryRuntime:
    """Execute compiled queries against multichannel recordings."""

    fs_hz: float = ADC_SAMPLE_RATE_HZ
    models: dict[str, Any] = field(default_factory=dict)
    bbf_band_hz: tuple[float, float] = (100.0, 3000.0)

    def register_model(self, name: str, model: Any) -> None:
        """Register a trained model (``svm``, ``kf``, ``nn``, ``detector``)."""
        self.models[name] = model

    def _require_model(self, name: str) -> Any:
        try:
            return self.models[name]
        except KeyError:
            raise CompilationError(
                f"query needs a registered {name!r} model"
            ) from None

    def execute(self, compiled: CompiledQuery, recording: np.ndarray) -> Any:
        """Run the chain; returns the final operator's output.

        The data shape morphs through the chain: ``(channels, samples)``
        at the source, ``(channels, windows, wlen)`` after ``window``,
        feature arrays after the extractors, decisions at the sinks.
        """
        data: Any = np.asarray(recording, dtype=float)
        if data.ndim != 2:
            raise CompilationError("recordings are (channels, samples)")

        for operator in compiled.dataflow.operators:
            data = self._apply(operator.name, operator.params, data)
        return data

    def _apply(self, op: str, params: dict, data: Any) -> Any:
        if op == "window":
            wsize = params.get("wsize")
            window_ms = wsize.number if wsize is not None else 4.0
            wlen = ms_to_samples(window_ms, self.fs_hz)
            return channel_windows(data, wlen)
        if op == "sbp":
            if data.ndim == 3:  # (channels, windows, wlen)
                return np.mean(np.abs(data), axis=2).T  # (windows, channels)
            return spike_band_power_multichannel(data)
        if op == "bbf":
            bbf = ButterworthBandpass(*self.bbf_band_hz, fs_hz=self.fs_hz)
            return bbf(data)
        if op == "fft":
            return np.abs(np.fft.rfft(data, axis=-1))
        if op == "neo":
            if data.ndim == 2:
                return np.stack([nonlinear_energy(ch) for ch in data])
            raise CompilationError("neo expects (channels, samples)")
        if op == "kf":
            from repro.decoders.kalman import KalmanFilter

            model = self._require_model("kf")
            return KalmanFilter(model).run(np.atleast_2d(data))
        if op == "nn":
            model = self._require_model("nn")
            return np.stack([model.forward(row) for row in np.atleast_2d(data)])
        if op == "svm":
            model = self._require_model("svm")
            return model.predict(np.atleast_2d(data))
        if op == "seizure_detect":
            detector = self._require_model("detector")
            if data.ndim == 3:
                return np.stack(
                    [detector.detect_channels(data[:, w, :])
                     for w in range(data.shape[1])],
                    axis=1,
                )  # (channels, windows)
            return detector.detect_channels(data)
        if op == "hash":
            from repro.hashing.lsh import LSHFamily

            lsh = self.models.get("lsh") or LSHFamily.for_measure("dtw")
            if data.ndim == 3:
                channels, windows, samples = data.shape
                signatures = [
                    tuple(sig)
                    for sig in lsh.hash_windows(data.reshape(-1, samples)).tolist()
                ]
                return [
                    signatures[c * windows : (c + 1) * windows]
                    for c in range(channels)
                ]
            raise CompilationError("hash expects windowed data")
        if op == "select":
            return data  # selection predicates are schedule-time filters
        if op == "map":
            return data
        if op in ("call_runtime", "stimulate", "store", "load", "pack",
                  "unpack", "compress", "decompress", "ccheck", "thr",
                  "dwt", "xcor", "dtw", "emd", "ngram", "emdh"):
            return data  # pass-through in the software runtime
        raise CompilationError(f"runtime cannot execute operator {op!r}")
