"""Durable write-ahead request journal for the solve service.

The service's promise is *zero lost admitted requests*: once admission
control says yes, the request must eventually produce an answer — even
if the server process is SIGKILLed with the job still on the worker
pool.  The journal is how that promise survives a crash:

* **admit** is written (and fsync'd) *before* the job enters the pool:
  the full request wire dict keyed by its content digest, so a fresh
  process can reconstruct and re-run the exact request.
* **done** is written once a response was produced for the digest —
  any terminal status counts, because the submitter got an answer.
* **attempt** is written by recovery *before* replaying an entry, so a
  request that crashes the server during replay is counted across
  boots and **poison**-marked (skipped forever) after
  ``MAX_RECOVERY_ATTEMPTS`` tries instead of crash-looping recovery.
* **interrupted** withdraws the last attempt: the service's own drain
  or stop ended that replay, which is no crash.

Storage is append-only JSON Lines in numbered segment files
(``journal-000001.jsonl`` …) inside one directory.  Appends go to the
highest-numbered segment as a single ``write`` followed by ``fsync``.
When the active segment outgrows ``segment_max_bytes`` the journal
**rotates**: the still-pending state (admits with their accumulated
attempt counts) is carried forward into the next segment via a temp
file + ``os.replace`` + directory fsync — an atomic publish, exactly
like the result cache's disk writes — and the older segments are
deleted.  Rotation is therefore also compaction: completed entries
vanish with their segment.

Recovery (:meth:`RequestJournal.pending`) replays every segment in
order.  A torn final line — a crash or an injected
``journal_torn_write`` fault mid-append — parses as garbage and is
dropped (counted in ``torn_lines``); every complete record before it
is honoured.  A torn *admit* is safe to drop: the fsync had not
returned, so the submitter never got past admission.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..reliability.faults import FaultInjector, FaultPlan

#: Registry prefix for the mirrored counters.
_METRIC_PREFIX = "serve.journal."

#: Recovery gives up on an entry after this many crashed replays.
MAX_RECOVERY_ATTEMPTS = 2

_SEGMENT_RE = re.compile(r"^journal-(\d{6})\.jsonl$")


def _segment_name(seq: int) -> str:
    return f"journal-{seq:06d}.jsonl"


@dataclass
class PendingEntry:
    """One admitted-but-unfinished request, as recovered from disk."""

    digest: str
    request: Dict
    #: Crashed recovery attempts so far (across boots).
    attempts: int = 0


class RequestJournal:
    """Append-only, crash-recoverable record of admitted requests.

    Single-writer by design: the asyncio server appends only from its
    event loop.  Appends are small (one JSON line) and fsync'd, so the
    durability point of ``record_admit`` is its return — the server
    must not submit the job to the pool before that.
    """

    def __init__(self, directory: str, segment_max_bytes: int = 1 << 20,
                 faults=None) -> None:
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        plan = FaultPlan.resolve(faults)
        self._injector = (FaultInjector(plan, label="journal",
                                        sites=("journal",))
                          if plan is not None else None)
        self.appends = 0
        self.rotations = 0
        self.torn_lines = 0
        #: Poison marks seen by the last :meth:`pending` scan (rotation
        #: carries them forward so the mark outlives compaction).
        self._poisoned_items: List = []
        #: True while the active segment ends in a torn half-line.
        self._torn_tail = False
        self._stream = None
        os.makedirs(directory, exist_ok=True)
        self._seq = max(self._segments() or [0])
        if self._seq == 0:
            self._seq = 1
        self._open_active()

    # -- the write path ------------------------------------------------

    def record_admit(self, digest: str, request_wire: Dict) -> None:
        """Durably record one admitted request *before* it runs."""
        self._append({"type": "admit", "digest": digest,
                      "request": request_wire})

    def record_done(self, digest: str) -> None:
        """The digest produced a response; recovery must skip it."""
        self._append({"type": "done", "digest": digest})

    def record_attempt(self, digest: str) -> None:
        """Recovery is about to replay the digest (crash accounting)."""
        self._append({"type": "attempt", "digest": digest})

    def record_interrupted(self, digest: str) -> None:
        """The service's own drain or stop ended the digest's replay:
        the attempt recorded before it does not count."""
        self._append({"type": "interrupted", "digest": digest})

    def record_poison(self, digest: str, reason: str = "") -> None:
        """The digest crashed recovery too often; never replay again."""
        self._append({"type": "poison", "digest": digest,
                      "reason": reason})

    def _append(self, record: Dict) -> None:
        data = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        if self._torn_tail:
            # The previous append was torn mid-line: terminate that
            # garbage line first, so only the torn record is lost and
            # this one parses on its own line.
            data = b"\n" + data
        if self._injector is not None:
            torn = self._injector.torn_write(data)
            if torn is not None:
                # Injected power loss: a partial line, no fsync — the
                # record is *lost* and recovery must shrug it off.
                self._mirror("torn_writes")
                self._stream.write(torn)
                self._stream.flush()
                self._torn_tail = True
                return
        self._torn_tail = False
        self._stream.write(data)
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.appends += 1
        self._mirror("appends")
        if self._stream.tell() >= self.segment_max_bytes:
            self.rotate()

    # -- rotation / compaction -----------------------------------------

    def rotate(self) -> None:
        """Carry pending state into a fresh segment, drop the old ones.

        The new segment is built in a temp file and published with
        ``os.replace`` + directory fsync, so a crash anywhere in here
        leaves either the old segments or the complete new one — never
        a half-written head.
        """
        pending = self.pending(include_poisoned=True)
        next_seq = self._seq + 1
        path = os.path.join(self.directory, _segment_name(next_seq))
        descriptor, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".journal-", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as stream:
                for entry in pending:
                    record = {"type": "admit", "digest": entry.digest,
                              "request": entry.request,
                              "attempts": entry.attempts}
                    stream.write(json.dumps(record, sort_keys=True)
                                 .encode("utf-8") + b"\n")
                for digest, reason in self._poisoned_items:
                    stream.write(json.dumps(
                        {"type": "poison", "digest": digest,
                         "reason": reason},
                        sort_keys=True).encode("utf-8") + b"\n")
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_path, path)
            self._fsync_directory()
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        old_segments = [seq for seq in self._segments() if seq < next_seq]
        if self._stream is not None:
            self._stream.close()
        self._seq = next_seq
        self._open_active()
        for seq in old_segments:
            try:
                os.unlink(os.path.join(self.directory, _segment_name(seq)))
            except OSError:
                pass
        self._fsync_directory()
        self.rotations += 1
        self._mirror("rotations")

    def compact(self) -> None:
        """Alias for :meth:`rotate` — the drain path calls this to
        leave the smallest possible journal behind."""
        self.rotate()

    # -- recovery ------------------------------------------------------

    def pending(self, include_poisoned: bool = False) -> List[PendingEntry]:
        """Admitted-but-unfinished entries, in admission order.

        Re-reads the segments from disk (the journal is the source of
        truth, not in-memory state — a fresh process calls this first).
        Poisoned digests are excluded unless ``include_poisoned`` —
        rotation needs them to carry the poison marks forward.
        """
        entries: Dict[str, PendingEntry] = {}
        poisoned: Dict[str, str] = {}
        for seq in self._segments():
            path = os.path.join(self.directory, _segment_name(seq))
            for record in self._read_segment(path):
                kind = record.get("type")
                digest = str(record.get("digest", ""))
                if not digest:
                    continue
                if kind == "admit":
                    if digest not in entries:
                        entries[digest] = PendingEntry(
                            digest=digest,
                            request=dict(record.get("request") or {}),
                            attempts=int(record.get("attempts", 0)))
                elif kind == "attempt":
                    if digest in entries:
                        entries[digest].attempts += 1
                elif kind == "interrupted":
                    if digest in entries:
                        entries[digest].attempts = max(
                            0, entries[digest].attempts - 1)
                elif kind == "done":
                    entries.pop(digest, None)
                elif kind == "poison":
                    poisoned[digest] = str(record.get("reason", ""))
        self._poisoned_items = list(poisoned.items())
        if include_poisoned:
            return list(entries.values())
        return [entry for entry in entries.values()
                if entry.digest not in poisoned]

    def poisoned(self) -> Dict[str, str]:
        """Digest → reason for every poison-marked entry."""
        self.pending(include_poisoned=True)
        return dict(self._poisoned_items)

    def _read_segment(self, path: str) -> List[Dict]:
        records: List[Dict] = []
        try:
            with open(path, "rb") as stream:
                raw = stream.read()
        except OSError:
            return records
        lines = raw.split(b"\n")
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A torn line.  Only a crashed *tail* is expected; an
                # unparsable line mid-segment is counted all the same
                # and skipped — recovery must never die on its input.
                self.torn_lines += 1
                self._mirror("torn_lines")
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    # -- plumbing ------------------------------------------------------

    def _segments(self) -> List[int]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _open_active(self) -> None:
        path = os.path.join(self.directory, _segment_name(self._seq))
        self._stream = open(path, "ab")

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def counts(self) -> Dict[str, int]:
        """Counter snapshot for the ``metrics`` op's ``journal``
        section."""
        return {"appends": self.appends, "rotations": self.rotations,
                "torn_lines": self.torn_lines, "segment": self._seq,
                "pending": len(self.pending()),
                "poisoned": len(self._poisoned_items)}

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _mirror(name: str) -> None:
        if obs_metrics.enabled():
            obs_metrics.registry().inc(_METRIC_PREFIX + name)
