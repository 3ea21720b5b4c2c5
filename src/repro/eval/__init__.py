"""Experiment drivers: one module per paper table/figure.

| Paper artefact | Module |
|---|---|
| Table 1, Table 3 | :mod:`repro.eval.tables` |
| Fig. 8a/8b/8c, §6.2 scalars | :mod:`repro.eval.throughput` |
| Fig. 9a/9b, §6.3 scalars | :mod:`repro.eval.application` |
| Fig. 10 | :mod:`repro.eval.queries` |
| Fig. 11 | :mod:`repro.eval.hash_accuracy` |
| Fig. 12 | :mod:`repro.eval.network_errors` |
| Fig. 12 + ARQ recovery | :mod:`repro.eval.resilience` |
| Fig. 13 | :mod:`repro.eval.radio_dse` |
| Fig. 14 | :mod:`repro.eval.hash_params` |
| Fig. 15 | :mod:`repro.eval.delay` |
"""
