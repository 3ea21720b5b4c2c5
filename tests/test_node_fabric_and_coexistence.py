"""Tests: interactive queries coexist with the running application (§2.2).

The scheduler and :class:`~repro.apps.queries.QueryCostModel` decide
whether a query's power fits beside the seizure flows.
"""

from repro.apps.queries import QueryCostModel, QuerySpec, query_data_bytes
from repro.network.radio import EXTERNAL_RADIO
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    seizure_detection_task,
)
from repro.units import ELECTRODES_PER_NODE, NODE_POWER_CAP_MW


class TestQueryCoexistence:
    """§2.2: interactive querying must not disrupt the running apps."""

    def _seizure_flows(self):
        return [
            Flow(seizure_detection_task(), electrode_cap=ELECTRODES_PER_NODE),
            Flow(hash_similarity_task("all_all", net_budget_ms=1.0),
                 electrode_cap=ELECTRODES_PER_NODE),
            Flow(dtw_similarity_task("one_all", net_budget_ms=4.0),
                 electrode_cap=ELECTRODES_PER_NODE),
        ]

    def test_query_power_fits_alongside_the_application(self):
        # a hash-based Q2 costs ~3 mW (Fig. 10); reserve it from the cap
        query_cost = QueryCostModel(n_nodes=11).cost(
            QuerySpec("q2", 110.0, 0.05)
        )
        assert query_cost.power_mw < 5.0

        baseline = SchedulerProblem(
            11, self._seizure_flows(), power_budget_mw=NODE_POWER_CAP_MW
        ).solve()
        with_query = SchedulerProblem(
            11, self._seizure_flows(),
            power_budget_mw=NODE_POWER_CAP_MW - query_cost.power_mw,
        ).solve()

        # detection keeps running at a meaningful rate during the query
        detect = next(
            a for a in with_query.allocations
            if a.flow.task.name == "seizure_detection"
        )
        assert detect.electrodes_per_node > 48
        # and the degradation is graceful, not a collapse
        assert with_query.weighted_mbps() > 0.5 * baseline.weighted_mbps()

    def test_query_uses_the_external_radio_not_the_tdma_medium(self):
        # the intra-SCALO medium stays with the application flows: the
        # query's transmit leg rides the 46 Mbps external radio
        cost = QueryCostModel(n_nodes=11).cost(QuerySpec("q3", 110.0, 1.0))
        total_bytes = query_data_bytes(110.0, 11, ELECTRODES_PER_NODE)
        assert EXTERNAL_RADIO.data_rate_mbps == 46.0
        assert cost.transmit_ms == EXTERNAL_RADIO.airtime_ms(8 * total_bytes)

    def test_dtw_query_would_not_coexist(self):
        """The §6.4 point of hash-based querying: an exact-DTW Q2 needs
        ~15 mW and cannot run next to anything."""
        dtw_cost = QueryCostModel(n_nodes=11).cost(
            QuerySpec("q2", 110.0, 0.05, use_hash=False)
        )
        remaining = NODE_POWER_CAP_MW - dtw_cost.power_mw
        import pytest as _pytest

        from repro.errors import SchedulingError

        with _pytest.raises(SchedulingError):
            SchedulerProblem(
                11, self._seizure_flows(), power_budget_mw=max(remaining, 0.1)
            ).solve()
