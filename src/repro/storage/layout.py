"""NVM data layout co-designed with PE access patterns (paper §3.3).

The ADCs and LSH PEs emit samples *electrode-interleaved*: at every tick,
one sample from each electrode.  Stored as-is, retrieving a contiguous
window of one electrode touches many discontinuous NVM locations.  SCALO
reorganises data in the SC's write buffer so each electrode's samples are
stored in contiguous *chunks*; reads become single sequential accesses.

The paper reports the trade-off: writes take 5x longer (1.75 ms) but
reads get 10x faster (0.035 ms), and reads are on the critical path while
writes are not.  This module is the cost model of both layouts.
"""

from __future__ import annotations

from repro.errors import StorageError

#: Default chunk size (samples of one electrode stored contiguously).
DEFAULT_CHUNK_SAMPLES = 120  # one 4 ms window

#: Calibrated per-window costs from the paper (§3.3): with the chunked
#: layout, retrieving one electrode's 4 ms window costs 0.035 ms; in the
#: raw interleaved layout it is 10x slower.  Writes are the mirror image:
#: 0.35 ms to stream a window out raw, 1.75 ms (5x) with reorganisation.
CHUNKED_READ_MS_PER_WINDOW = 0.035
INTERLEAVED_READ_MS_PER_WINDOW = 0.35
RAW_WRITE_MS_PER_WINDOW = 0.35
CHUNKED_WRITE_MS_PER_WINDOW = 1.75


def read_cost_ms(
    window_samples: int,
    n_channels: int,
    chunked: bool,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
) -> float:
    """NVM time to retrieve one electrode's contiguous window.

    In the interleaved layout the window's samples are strided across all
    ``n_channels`` rows spanning many pages and each 8-byte read unit
    yields at most one useful sample group; in the chunked layout the
    window is ceil(window/chunk) sequential chunk reads.  Costs are
    anchored to the paper's measured 0.035 ms (chunked) vs 10x
    (interleaved) per 4 ms window and scale linearly with window length.
    """
    if window_samples <= 0 or n_channels <= 0:
        raise StorageError("window and channel counts must be positive")
    n_windows = -(-window_samples // chunk_samples)
    if chunked:
        return n_windows * CHUNKED_READ_MS_PER_WINDOW
    return n_windows * INTERLEAVED_READ_MS_PER_WINDOW


def write_cost_ms(
    window_samples: int,
    chunked: bool,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
) -> float:
    """NVM time to persist one electrode-window of streamed samples."""
    if window_samples <= 0:
        raise StorageError("window length must be positive")
    n_windows = -(-window_samples // chunk_samples)
    per_window = CHUNKED_WRITE_MS_PER_WINDOW if chunked else RAW_WRITE_MS_PER_WINDOW
    return n_windows * per_window
