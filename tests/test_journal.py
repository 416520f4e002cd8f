"""The durable request journal (repro.serve.journal)."""

import json
import os

import pytest

from repro.reliability.faults import FaultPlan
from repro.serve.journal import (MAX_RECOVERY_ATTEMPTS, PendingEntry,
                                 RequestJournal, _segment_name)


def wire(n):
    return {"colors": 3, "tag": f"req-{n}"}


def digest(n):
    return f"{n:064x}"


class TestWriteAheadSemantics:
    def test_admit_then_done_leaves_nothing_pending(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_done(digest(1))
            assert journal.pending() == []

    def test_unfinished_admit_is_pending(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_admit(digest(2), wire(2))
            journal.record_done(digest(1))
            pending = journal.pending()
            assert [entry.digest for entry in pending] == [digest(2)]
            assert pending[0].request == wire(2)
            assert pending[0].attempts == 0

    def test_pending_survives_reopen(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
        # A fresh instance over the same directory — the crashed-server
        # boot path — sees the unfinished entry.
        with RequestJournal(str(tmp_path)) as journal:
            pending = journal.pending()
            assert [entry.digest for entry in pending] == [digest(1)]

    def test_attempts_accumulate_across_boots(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_attempt(digest(1))
        with RequestJournal(str(tmp_path)) as journal:
            assert journal.pending()[0].attempts == 1
            journal.record_attempt(digest(1))
            assert journal.pending()[0].attempts == 2
            assert journal.pending()[0].attempts >= MAX_RECOVERY_ATTEMPTS

    def test_interrupted_replay_withdraws_its_attempt(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_interrupted(digest(1))  # nothing to withdraw
            assert journal.pending()[0].attempts == 0
            journal.record_attempt(digest(1))
            journal.record_attempt(digest(1))
            journal.record_interrupted(digest(1))
            assert journal.pending()[0].attempts == 1
            journal.rotate()  # the withdrawn count is what carries on
        with RequestJournal(str(tmp_path)) as journal:
            assert journal.pending()[0].attempts == 1

    def test_duplicate_admits_collapse(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_admit(digest(1), wire(1))
            assert len(journal.pending()) == 1


class TestPoison:
    def test_poisoned_entries_are_excluded(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_poison(digest(1), "crashed recovery twice")
            assert journal.pending() == []
            assert journal.poisoned() == {digest(1):
                                          "crashed recovery twice"}
            included = journal.pending(include_poisoned=True)
            assert [entry.digest for entry in included] == [digest(1)]

    def test_poison_survives_rotation_and_reopen(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_poison(digest(1), "bad")
            journal.rotate()
        with RequestJournal(str(tmp_path)) as journal:
            assert journal.pending() == []
            assert digest(1) in journal.poisoned()


class TestRotation:
    def test_rotation_carries_pending_forward(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_admit(digest(2), wire(2))
            journal.record_done(digest(1))
            journal.record_attempt(digest(2))
            journal.rotate()
            pending = journal.pending()
            assert [entry.digest for entry in pending] == [digest(2)]
            assert pending[0].attempts == 1  # attempts survive rotation
        # Only the fresh segment remains on disk.
        segments = [name for name in os.listdir(str(tmp_path))
                    if name.startswith("journal-")]
        assert len(segments) == 1

    def test_auto_rotation_at_segment_cap(self, tmp_path):
        journal = RequestJournal(str(tmp_path), segment_max_bytes=512)
        for n in range(20):
            journal.record_admit(digest(n), wire(n))
            journal.record_done(digest(n))
        assert journal.rotations >= 1
        assert journal.pending() == []
        journal.close()

    def test_compacted_journal_is_small(self, tmp_path):
        journal = RequestJournal(str(tmp_path))
        for n in range(50):
            journal.record_admit(digest(n), wire(n))
            journal.record_done(digest(n))
        journal.compact()
        total = sum(os.path.getsize(os.path.join(str(tmp_path), name))
                    for name in os.listdir(str(tmp_path)))
        assert total < 1024  # all admit/done noise dropped
        journal.close()


class TestTornTails:
    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            path = os.path.join(str(tmp_path), _segment_name(journal._seq))
        # Simulate power loss mid-append: garbage half-record at the
        # tail of the active segment.
        with open(path, "ab") as stream:
            stream.write(b'{"type": "admit", "digest": "dead')
        with RequestJournal(str(tmp_path)) as journal:
            pending = journal.pending()
            assert [entry.digest for entry in pending] == [digest(1)]
            assert journal.torn_lines >= 1

    def test_injected_torn_write_loses_only_that_record(self, tmp_path):
        plan = FaultPlan.parse("seed=1; journal_torn_write@journal:"
                               "p=1,max=1")
        with RequestJournal(str(tmp_path), faults=plan) as journal:
            journal.record_admit(digest(1), wire(1))  # torn: lost
            journal.record_admit(digest(2), wire(2))  # durable
            pending = journal.pending()
            assert [entry.digest for entry in pending] == [digest(2)]


class TestHygiene:
    def test_counts_shape(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            counts = journal.counts()
            assert counts["appends"] == 1
            assert counts["pending"] == 1
            assert counts["poisoned"] == 0

    def test_records_are_json_lines(self, tmp_path):
        with RequestJournal(str(tmp_path)) as journal:
            journal.record_admit(digest(1), wire(1))
            journal.record_done(digest(1))
            path = os.path.join(str(tmp_path), _segment_name(journal._seq))
        with open(path, "rb") as stream:
            for line in stream:
                record = json.loads(line)
                assert record["type"] in ("admit", "done")
