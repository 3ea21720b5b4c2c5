"""SCALO: an accelerator-rich distributed BCI system — software reproduction.

This package reproduces *SCALO: An Accelerator-Rich Distributed System for
Scalable Brain-Computer Interfacing* (ISCA 2023) as a pure-Python system:
every hardware component (PE fabric, NVM, radios, TDMA network) is a
deterministic metered model built from the paper's published numbers, and
every algorithm (LSH, DTW/EMD/XCOR similarity, compression, decoders,
spike sorting, the ILP scheduler, the query language) is implemented for
real and runs on synthetic neural data.

The root package imports nothing, so ``import repro.units`` loads one
module.  The stable entry points live in :mod:`repro.api`; every other
name is imported from the module that defines it::

    from repro.api import build_system, run_query
    system = build_system(n_nodes=4, electrodes_per_node=8)
    print(system.thermal_check())

Package map:

* :mod:`repro.hardware` — PE catalog (Table 1), clock domains, fabric, MC constants.
* :mod:`repro.signal` — SBP/NEO/THR feature kernels.
* :mod:`repro.similarity` — DTW, Euclidean, cross-correlation, EMD.
* :mod:`repro.hashing` — the configurable LSH family + collision checking.
* :mod:`repro.compression` — HCOMP/DCOMP hash codec, LZ baseline.
* :mod:`repro.network` — packets, CRC, BER channel, radios, TDMA.
* :mod:`repro.storage` — NVM device, chunked layout, storage controller.
* :mod:`repro.linalg` — MAD, Gauss-Jordan INV, work splitting.
* :mod:`repro.decoders` — SVM / shallow NN / Kalman + decompositions.
* :mod:`repro.apps` — seizure propagation, movement intent, spike
  sorting, interactive queries.
* :mod:`repro.scheduler` — task models, the ILP, materialisation.
* :mod:`repro.lang` — the Trill-like query language.
* :mod:`repro.datasets` — synthetic iEEG and spike datasets.
* :mod:`repro.core` — nodes, the distributed system, Table 2 designs,
  thermal model, clock sync.
* :mod:`repro.serving` — fleet-scale query serving: admission control,
  coalescing, deadline scheduling.
* :mod:`repro.fabric` — multi-tenant fleet fabric: consistent-hash
  tenant routing, noisy-neighbour isolation, population queries.
* :mod:`repro.eval` — one experiment driver per paper table/figure.
* :mod:`repro.api` — the facade: build a fleet or fabric, run queries,
  run serving sessions.
"""

__version__ = "1.0.0"
