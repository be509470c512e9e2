"""The query protocol, driven through ``Querying`` alone on a fake host.

``tests.helpers.FakeMind`` stands in for the MindNode: a real simulator,
op table and index, with routes and sends logged instead of delivered.
Failure reports and responses go straight to the protocol's entry points.
"""

from repro.core.query import RangeQuery
from repro.core.querying import Querying
from tests.core.test_crash_lifecycle import make_schema
from tests.helpers import FakeMind


def start(replication=0, query=None):
    host = FakeMind()
    host.add_index(make_schema(), replication=replication)
    querying = Querying(host)
    done = []
    op_id = querying.query(query or RangeQuery("f", {"x": (0.0, 1000.0)}), done.append)
    ((bits, kind, inner, _),) = host.routed
    assert kind == "subquery" and inner["attempt"] == 1
    return host, querying, op_id, inner["version"], bits, done


def response(op_id, version, region, attempt=1):
    return {
        "qid": op_id, "version": version, "region": region, "spawned": [], "records": [],
        "path": [], "responder": "r", "attempt": attempt, "failover": False,
    }


def test_a_spawned_region_that_fails_unannounced_is_adopted_and_retried():
    # A responder split the query and routed region "0110" as attempt 1;
    # that sub-query fails before the response announcing it arrives.
    # The originator adopts the region and retries it after a backoff.
    host, querying, op_id, version, _, _ = start()
    querying.subquery_failed(op_id, version, "0110", 1)
    region = host.ops[op_id].regions[f"{version}:0110"]
    assert host.ops[op_id].metric.retries == 1 and region.ladder.backoff_event is not None

    host.sim.run_until(host.sim.now + 1.0)

    bits, kind, inner, kw = host.routed[-1]
    assert (bits, kind, inner["attempt"], kw["attempt"]) == ("0110", "subquery", 2, 2)


def test_a_failover_onto_a_region_that_already_answered_fetches_nothing():
    # Primary "0" keeps failing; its replica region "1" already answered
    # this query from its whole store, so once the primary is exhausted
    # the region is dropped and the query completes without it.
    host, querying, op_id, version, primary, done = start(
        replication=1, query=RangeQuery("f", {"x": (0.0, 100.0)})
    )
    assert primary == "0"
    querying._apply_query_response(response(op_id, version, "1"))
    for stamp in range(1, host.mind_config.retry_max_attempts + 1):
        assert host.routed[-1][2]["attempt"] == stamp
        querying.subquery_failed(op_id, version, primary, stamp)
        host.sim.run_until(host.sim.now + 10.0)

    (metric,) = done
    assert metric.complete and metric.failed_regions == set()
    assert (metric.retries, metric.failovers, metric.regions) == (2, 1, 1)
    assert [bits for bits, _, _, _ in host.routed] == ["0", "0", "0"]
    assert host.ops == {}
