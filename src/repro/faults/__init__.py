"""Fault injection and resilience: plans, health monitoring, replay.

The substrate behind the resilience evaluation
(:mod:`repro.eval.resilience`): deterministic fault plans scheduled in
TDMA-round time, a missed-heartbeat failure detector, and an injector
that replays a plan against a live :class:`~repro.core.system.ScaloSystem`.
"""
