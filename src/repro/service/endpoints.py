"""JSON snapshot endpoints served over the wire (`status`/`metrics`/...).

Thin assembly over the monitoring layer's snapshot renderers: the text
reports in :mod:`repro.monitoring.report` answer a DBA at a terminal,
these answer a program on the other end of a socket.  Everything returned
here is a plain dict of JSON-safe values (the protocol layer's
``jsonable`` sweeps up stragglers like tuples and byte signatures).
"""

from __future__ import annotations

from repro.monitoring.report import activity_snapshot, governor_snapshot


def status_snapshot(service) -> dict:
    """The one-call health view: service, engine activity, monitoring.

    Mirrors the CLI's ``.status`` habit — governor ladder position,
    active/blocked queries, monitoring configuration counts, plus the
    service tier's own connection/request/backpressure counters.
    """
    server = service.db
    sqlcm = service.sqlcm
    streams = (sqlcm.stream_engine() if sqlcm.has_streams else None)
    return {
        "time": server.clock.now,
        "service": service.describe(),
        "driver": service.driver.describe(),
        "activity": activity_snapshot(server),
        "governor": governor_snapshot(sqlcm),
        "monitoring": {
            "rules": len(sqlcm.rules),
            "lats": len(list(sqlcm.lats())),
            "streams": (len(streams.queries()) if streams else 0),
            "rule_errors": sqlcm.rule_errors,
            "dead_letters": sqlcm.dead_letters.depth,
        },
        "incidents": _incident_counts(sqlcm),
    }


def _incident_counts(sqlcm) -> dict:
    if not sqlcm.has_incidents:
        return {"enabled": False, "open": 0, "total": 0}
    manager = sqlcm.incident_manager()
    incidents = manager.incidents()
    open_count = sum(1 for i in incidents if i.resolved_at is None)
    return {"enabled": True, "open": open_count, "total": len(incidents)}


def metrics_snapshot(server) -> dict:
    """The observability registry (counters/gauges/histograms/attribution).

    Requires ``server.enable_observability()``; reports ``enabled: false``
    otherwise instead of erroring — metrics being off is a configuration,
    not a failure.
    """
    if not server.observability_enabled:
        return {"enabled": False}
    snapshot = server.obs.snapshot()
    snapshot["enabled"] = True
    snapshot["monitor_cost_total"] = server.monitor_cost_total
    return snapshot
