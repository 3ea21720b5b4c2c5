"""Per-tenant SLOs over the fabric's ``fabric.{tenant}.*`` counters.

The PR-7 :class:`~repro.telemetry.health.slo.SLOEngine` matches counters by
*name* (summing across label sets), so per-tenant objectives need
per-tenant counter names — the fabric books ``fabric.t03.submitted``,
``.shed``, ``.completed``, and ``.deadline_miss`` per tenant exactly so
these portfolios have something to burn against.  Append the result of
:func:`tenant_slos` to ``DEFAULT_SERVING_SLOS`` when building a
:class:`~repro.telemetry.health.engine.HealthEngine` for a fabric run and the
existing burn-rate alerting, incident recorder, and report plumbing
work per tenant with no engine changes.
"""

from __future__ import annotations

from repro.telemetry.health.slo import SLO

#: The objective of each tenant's availability and deadline SLOs: looser
#: than the fleet-wide serving SLOs, because a single tenant's sample is
#: small, and the min-event guards keep a handful of early sheds from
#: firing a page.
TENANT_OBJECTIVE = 0.90


def tenant_slos(tenants) -> tuple[SLO, ...]:
    """One availability + one deadline SLO per tenant."""
    slos: list[SLO] = []
    for tenant in tenants:
        slos.append(
            SLO(
                name=f"fabric-{tenant}-availability",
                objective=TENANT_OBJECTIVE,
                bad_counters=(f"fabric.{tenant}.shed",),
                total_counters=(f"fabric.{tenant}.submitted",),
                window_rounds=(6, 32),
                burn_rate_thresholds=(10.0, 4.0),
                window_min_events=(4, 10),
                description=f"tenant {tenant}: admitted / offered requests",
            )
        )
        slos.append(
            SLO(
                name=f"fabric-{tenant}-deadline",
                objective=TENANT_OBJECTIVE,
                bad_counters=(f"fabric.{tenant}.deadline_miss",),
                total_counters=(f"fabric.{tenant}.completed",),
                window_rounds=(6, 32),
                burn_rate_thresholds=(10.0, 4.0),
                window_min_events=(4, 10),
                description=f"tenant {tenant}: answers before deadline",
            )
        )
    return tuple(slos)
