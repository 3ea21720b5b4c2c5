"""Fleet-scale query serving: admission control, coalescing, EDF dispatch.

The multiplexing layer between many concurrent clients and the batched
query path: a bounded admission queue with per-client token buckets
(overload sheds with :class:`~repro.errors.QueryRejected`), micro-batch
coalescing of compatible queries into one scan per wave, and
earliest-deadline-first dispatch with deadline-miss accounting — all in
simulated time, deterministic for a given seed and fault plan.

:mod:`repro.serving.reliability` layers chaos hardening on top:
seeded retries (client- and server-side), per-node circuit breakers,
and graded brownout tiers.  See DESIGN.md "Serving model" and
"Fault-aware serving".
"""
