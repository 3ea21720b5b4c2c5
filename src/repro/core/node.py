"""One SCALO implant: fabric + storage + radios + ADC/DAC glue.

:class:`ScaloNode` wires the substrates into the per-implant device of
paper Fig. 2: it ingests electrode samples window by window, stores them
through the SC, hashes them with the shared LSH, answers collision
checks, and keeps a power ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.fabric import Fabric
from repro.hardware.microcontroller import Microcontroller
from repro.hashing.collision import CollisionChecker, HashRecord, RecentHashStore
from repro.hashing.lsh import LSHFamily
from repro.network.radio import EXTERNAL_RADIO, LOW_POWER, RadioSpec
from repro.storage.controller import StorageController
from repro.storage.nvm import NVMDevice
from repro.units import (
    ADC_POWER_MW_PER_ELECTRODE,
    ELECTRODES_PER_NODE,
    NODE_POWER_CAP_MW,
    WINDOW_SAMPLES,
)


@dataclass
class ScaloNode:
    """One implant."""

    node_id: int
    n_electrodes: int = ELECTRODES_PER_NODE
    lsh: LSHFamily = field(default_factory=lambda: LSHFamily.for_measure("dtw"))
    intra_radio: RadioSpec = field(default_factory=lambda: LOW_POWER)
    external_radio: RadioSpec = field(default_factory=lambda: EXTERNAL_RADIO)
    nvm_capacity_bytes: int = 256 * 1024 * 1024  # scaled-down functional NVM
    window_samples: int = WINDOW_SAMPLES
    hash_horizon_ms: float = 100.0
    power_cap_mw: float = NODE_POWER_CAP_MW

    def __post_init__(self) -> None:
        if self.n_electrodes < 1:
            raise ConfigurationError("need at least one electrode")
        self.fabric = Fabric()
        self.mc = Microcontroller()
        self.storage = StorageController(
            device=NVMDevice(capacity_bytes=self.nvm_capacity_bytes),
            lsh=self.lsh,
        )
        self.hash_store = RecentHashStore(self.hash_horizon_ms)
        self.checker = CollisionChecker(self.lsh.config.min_matching)
        self._window_index = 0

    # -- data path ------------------------------------------------------------------

    @property
    def window_ms(self) -> float:
        from repro.units import ADC_SAMPLE_RATE_HZ

        return self.window_samples * 1e3 / ADC_SAMPLE_RATE_HZ

    @property
    def now_ms(self) -> float:
        return self._window_index * self.window_ms

    def ingest_window(self, windows: np.ndarray,
                      store_signals: bool = True) -> list[tuple[int, ...]]:
        """Process one multi-electrode window: store + hash.

        Args:
            windows: ``(n_electrodes, window_samples)``.
            store_signals: persist raw windows to the NVM (on for every
                paper application).

        Returns:
            The per-electrode hash signatures for this window.
        """
        windows = np.asarray(windows)
        if windows.shape != (self.n_electrodes, self.window_samples):
            raise ConfigurationError(
                f"expected {(self.n_electrodes, self.window_samples)}, "
                f"got {windows.shape}"
            )
        index = self._window_index
        self._window_index += 1
        time_ms = self.now_ms

        signatures = self.lsh.hash_channels(
            np.asarray(windows, dtype=float)
        )
        if store_signals:
            # int16-exact rows reuse these hashes for the signature cache
            self.storage.store_channel_windows(index, windows, signatures)
        self.storage.store_hash_batch(index, time_ms, signatures)
        self.hash_store.add_batch(time_ms, signatures)
        self.hash_store.evict_before(time_ms - 4 * self.hash_horizon_ms)
        return signatures

    # -- crash / recovery -------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: everything in SRAM vanishes.

        The window counter, the recent-hash store, and the storage
        controller's metadata registers are volatile; the NVM pages and
        the journal survive for :meth:`recover` to replay.
        """
        self._window_index = 0
        self.hash_store = RecentHashStore(self.hash_horizon_ms)
        self.storage.lose_sram()

    def recover(self):
        """Reboot: replay checkpoint + journal, re-warm the SRAM caches.

        Restores the window counter from the highest journaled hash
        batch and re-reads the recent batches (within the collision
        horizon) back into the :class:`RecentHashStore` — honest page
        reads.  Batches rotted beyond ECC are skipped, not fatal: the
        node comes back degraded rather than not at all.

        Returns:
            :class:`~repro.storage.controller.StorageRecovery`.
        """
        from repro.errors import StorageError

        report = self.storage.recover()
        stored = self.storage.stored_hash_windows()
        self._window_index = max(stored) + 1 if stored else 0
        horizon = (self.now_ms - 4 * self.hash_horizon_ms, self.now_ms)
        for window in stored:
            time_ms = self.storage.hash_batch_time(window)
            if time_ms is None or not horizon[0] <= time_ms <= horizon[1]:
                continue
            try:
                signatures = self.storage.read_hash_batch(window)
            except StorageError:
                continue  # rotted beyond ECC — warm cache stays cold here
            self.hash_store.add_batch(time_ms, signatures)
        return report

    def check_remote_hashes(
        self, signatures: list[tuple[int, ...]]
    ) -> list[tuple[int, HashRecord]]:
        """CCHECK: match received hashes against the recent local store."""
        local = self.hash_store.recent(self.now_ms)
        return self.checker.check(signatures, local)

    def read_window(self, electrode: int, window_index: int) -> np.ndarray:
        return self.storage.read_window(electrode, window_index)

    # -- power ledger ----------------------------------------------------------------

    def adc_power_mw(self) -> float:
        return ADC_POWER_MW_PER_ELECTRODE * self.n_electrodes

    def idle_power_mw(self) -> float:
        """Power with the fabric configured but no data flowing."""
        from repro.storage.nvm import LEAKAGE_MW

        return (
            self.fabric.static_uw / 1e3
            + self.mc.idle_power_mw
            + LEAKAGE_MW
        )

    def active_power_mw(self) -> float:
        """Idle + ADC + fabric dynamic power at current configuration."""
        return (
            self.idle_power_mw()
            + self.adc_power_mw()
            + self.fabric.dynamic_uw / 1e3
        )

    def within_power_cap(self) -> bool:
        return self.active_power_mw() <= self.power_cap_mw
