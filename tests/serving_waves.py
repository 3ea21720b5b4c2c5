"""Test-side capture of the full answer behind each serving wave.

A :class:`~repro.serving.server.QueryResponse` carries a wave's row
count and row CRC, not its rows.  A test that checks the rows
themselves wraps the engine the server runs and keeps every
:class:`~repro.apps.queries.DistributedQueryResult` it returns.
"""

from __future__ import annotations


def record_waves(server) -> list:
    """Wrap ``server.engine.run``; returns the list each call appends to.

    The server runs the engine once per wave, so wave ``w``'s result is
    at index ``w - 1`` (wave ids start at 1).
    """
    results = []
    run = server.engine.run

    def recording_run(*args, **kwargs):
        result = run(*args, **kwargs)
        results.append(result)
        return result

    server.engine.run = recording_run
    return results
