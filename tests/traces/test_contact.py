"""Unit tests for the contact-trace model."""

import pytest

from repro.errors import TraceConsistencyError
from repro.traces.contact import Contact, ContactTrace


class TestContact:
    def test_canonical_pair_ordering(self):
        contact = Contact(0.0, 10.0, 5, 2)
        assert contact.node_a == 2
        assert contact.node_b == 5
        assert contact.pair == (2, 5)

    def test_duration(self):
        assert Contact(3.0, 10.0, 0, 1).duration == 7.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(TraceConsistencyError):
            Contact(10.0, 3.0, 0, 1)

    def test_rejects_self_contact(self):
        with pytest.raises(TraceConsistencyError):
            Contact(0.0, 1.0, 3, 3)

    def test_peer_of(self):
        contact = Contact(0.0, 1.0, 2, 7)
        assert contact.peer_of(2) == 7
        assert contact.peer_of(7) == 2
        with pytest.raises(ValueError):
            contact.peer_of(4)

    def test_involves(self):
        contact = Contact(0.0, 1.0, 2, 7)
        assert contact.involves(2) and contact.involves(7)
        assert not contact.involves(0)

    def test_ordering_is_temporal(self):
        early = Contact(1.0, 2.0, 0, 1)
        late = Contact(3.0, 4.0, 0, 1)
        assert early < late


class TestContactTrace:
    def _trace(self):
        contacts = [
            Contact(10.0, 20.0, 0, 1),
            Contact(0.0, 5.0, 1, 2),
            Contact(30.0, 45.0, 0, 2),
        ]
        return ContactTrace(contacts, num_nodes=3, granularity=5.0, name="t")

    def test_contacts_sorted_by_start(self):
        trace = self._trace()
        starts = [c.start for c in trace]
        assert starts == sorted(starts)

    def test_basic_accessors(self):
        trace = self._trace()
        assert trace.num_nodes == 3
        assert trace.num_contacts == 3
        assert trace.start_time == 0.0
        assert trace.end_time == 45.0
        assert trace.duration == 45.0
        assert len(trace) == 3

    def test_end_time_is_latest_end_not_last_start(self):
        # The contact that starts last ends first: the end is the
        # maximum over every contact's end, not the last record's.
        trace = ContactTrace(
            [Contact(0.0, 100.0, 0, 1), Contact(50.0, 60.0, 1, 2)], num_nodes=3
        )
        assert trace.contacts[-1].end == 60.0
        assert trace.end_time == 100.0
        assert trace.duration == 100.0

    def test_declared_end_time_wins_over_derived_end(self):
        trace = ContactTrace(
            [Contact(0.0, 100.0, 0, 1), Contact(50.0, 60.0, 1, 2)],
            num_nodes=3,
            start_time=-10.0,
            end_time=250.0,
        )
        assert trace.end_time == 250.0
        assert trace.duration == 260.0
        assert ContactTrace([], num_nodes=2, end_time=40.0).end_time == 40.0

    def test_num_nodes_inferred(self):
        trace = ContactTrace([Contact(0.0, 1.0, 2, 9)])
        assert trace.num_nodes == 10

    def test_empty_trace_needs_num_nodes(self):
        with pytest.raises(TraceConsistencyError):
            ContactTrace([])
        trace = ContactTrace([], num_nodes=5)
        assert trace.duration == 0.0

    def test_rejects_out_of_range_node(self):
        with pytest.raises(TraceConsistencyError):
            ContactTrace([Contact(0.0, 1.0, 0, 5)], num_nodes=3)

    def test_pair_contact_counts(self):
        trace = self._trace()
        counts = trace.pair_contact_counts()
        assert counts == {(0, 1): 1, (1, 2): 1, (0, 2): 1}

    def test_contacts_in_window_half_open(self):
        trace = self._trace()
        window = trace.contacts_in_window(0.0, 10.0)
        assert [c.pair for c in window] == [(1, 2)]
        # start == window end is excluded
        assert all(c.start < 10.0 for c in window)

    def test_slice_preserves_node_count(self):
        trace = self._trace()
        sliced = trace.slice(0.0, 12.0)
        assert sliced.num_nodes == 3
        assert sliced.num_contacts == 2

    def test_split_halves_partitions_contacts(self):
        trace = self._trace()
        warmup, evaluation = trace.split_halves()
        assert warmup.num_contacts + evaluation.num_contacts == trace.num_contacts
        midpoint = trace.start_time + trace.duration / 2
        assert all(c.start < midpoint for c in warmup)
        assert all(c.start >= midpoint for c in evaluation)
