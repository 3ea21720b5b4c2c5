"""The on-node RISC-V microcontroller (MC): the constants the models read.

The MC configures PE pipelines, runs stimulation commands, executes
algorithms with no dedicated PE (e.g. the fast 1-D EMD), and performs
system chores like clock synchronisation (paper §3.2).  It runs at a fixed
20 MHz with 8 KB SRAM.

The scheduler charges its idle power to every node
(:data:`repro.scheduler.model.BASE_STATIC_MW`), and the architecture
comparison (paper §6.1) prices HALO+NVM's software hashing and sorting in
MC cycles (:mod:`repro.core.architectures`).
"""

from __future__ import annotations

#: MC clock (paper §3.2).
MC_FREQ_MHZ = 20.0

#: Idle (retention) power of the MC (mW); the paper does not tabulate the
#: MC in Table 1.
MC_IDLE_POWER_MW = 0.05
