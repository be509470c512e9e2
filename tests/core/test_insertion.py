"""The insert protocol, driven through ``Insertion`` alone on a fake host.

``tests.helpers.FakeMind`` stands in for the MindNode: a real simulator,
op table and index, with routes and sends logged instead of delivered.
"""

from repro.core.insertion import Insertion
from repro.core.records import Record
from repro.overlay.code import Code
from tests.core.test_crash_lifecycle import make_schema
from tests.helpers import FakeMind


def envelope_for(record, target="01"):
    inner = {"index": "f", "record": record.to_wire(), "op_id": "o:1", "attempt": 1}
    return {"target": target, "origin": "o", "hops": 2, "inner": inner}


def test_an_owner_that_left_the_overlay_reports_the_insert_failed():
    # The insert was accepted, then the owner left the overlay while its
    # DAC held the write: it reports the attempt failed at once (so the
    # originator retries now, not at its watchdog) and stores nothing.
    host = FakeMind()
    state = host.add_index(make_schema(), replication=1)
    insertion = Insertion(host)
    insertion._arrive_insert(envelope_for(Record([1.0, 2.0], key=7)))
    host.active = False
    host.sim.run_until_idle()

    assert host.failed == ["left-overlay"]
    assert len(state.store) == 0 and host.records_stored == 0
    assert host.sent == []


def test_replicas_go_once_to_each_neighbor_and_follow_link_changes():
    # Level 2 at "0101" replicates to regions "0100" and "0111".  One link
    # holds both, so it gets one copy; a link that holds neither gets none.
    host = FakeMind(code="0101", links=[("a", Code("01")), ("b", Code("1"))])
    state = host.add_index(make_schema(), replication=2)
    insertion = Insertion(host)
    insertion._replicate(state, Record([1.0, 2.0], key=1))
    assert [(dst, kind) for dst, kind, _ in host.sent] == [("a", "replica_store")]

    # A new link set (a new links() key) is scanned afresh: targets in
    # order, each holder once ("a" holds both).
    host.link_list = [("c", Code("0100")), ("d", Code("0111")), ("a", Code("01"))]
    host._links_key += 1
    del host.sent[:]
    insertion._replicate(state, Record([3.0, 4.0], key=2))
    assert [dst for dst, _, _ in host.sent] == ["c", "a", "d"]
