"""Streaming campaign aggregation: O(1) memory at any trial count.

Every campaign folds each canonical injection record into fixed-size
state the moment it exists (from a live trial or a recovered journal
line):

* outcome tallies, per fault target (the rate table);
* the ordered hash-of-hashes fingerprint
  (:class:`~repro.faults.campaign.FingerprintStream`);
* one fingerprint stream per shard, so the report can publish
  composable per-shard fingerprints without retaining a single trial.

:class:`~repro.faults.campaign.CampaignReport` renders its rate table,
summary, fingerprint and manifest from this state alone; per-trial
results are kept beside it only when no journal holds them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.faults.campaign import CampaignConfig, FingerprintStream, Outcome
from repro.faults.models import FaultTarget

__all__ = ["StreamingAggregator"]


class StreamingAggregator:
    """Folds ordered injection records into fixed-size aggregate state.

    Records must arrive in schedule order (the supervisor and journal
    recovery both guarantee it); the aggregator enforces the expected
    index sequence so a shuffled or foreign record stream fails loudly
    instead of silently corrupting the fingerprint.

    Args:
        config: the campaign being aggregated.
        indices: the expected trial indices, in order (the full
            schedule, or one shard's slice).
        bounds: per-shard ``[start, stop)`` ranges; each completed
            trial also feeds its shard's own fingerprint stream.
    """

    def __init__(
        self,
        config: CampaignConfig,
        indices: Iterable[int],
        bounds: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.config = config
        self._expected = iter(indices)
        self.by_target: dict[FaultTarget, Counter] = {}
        self.overall: Counter = Counter()
        self.count = 0
        self._stream = FingerprintStream()
        self._bounds = tuple(bounds)
        self._shard_streams = [FingerprintStream() for _ in self._bounds]
        self.event_counts: Counter = Counter()

    def add(self, index: int, record: dict) -> str:
        """Fold one canonical record; returns its per-trial digest.

        Raises :class:`ValueError` when *index* is not the next trial
        the aggregate expects - out-of-order folding would silently
        change the fingerprint, so it is never allowed.
        """
        expected = next(self._expected, None)
        if expected != index:
            raise ValueError(
                f"streaming aggregation is ordered: expected trial "
                f"{expected}, got {index}"
            )
        target = FaultTarget(record["target"])
        outcome = Outcome(record["outcome"])
        self.by_target.setdefault(target, Counter())[outcome] += 1
        self.overall[outcome] += 1
        self.count += 1
        digest = self._stream.add_record(record)
        for shard, (start, stop) in enumerate(self._bounds):
            if start <= index < stop:
                self._shard_streams[shard].add(digest)
                break
        return digest

    def fold_events(self, events: Iterable[dict]) -> int:
        """Tally a JSONL trace-event stream (PR 5 schema) by kind.

        Counts land in :attr:`event_counts` and surface through the
        campaign manifest's ``events`` section - constant memory, so a
        multi-gigabyte event stream folds as cheaply as an empty one.
        Returns how many events were folded.
        """
        folded = 0
        for event in events:
            kind = event.get("event")
            if isinstance(kind, str):
                self.event_counts[kind] += 1
                folded += 1
        return folded

    def fingerprint(self) -> str:
        """The ordered hash-of-hashes over every folded record."""
        return self._stream.hexdigest()

    def shard_fingerprints(self) -> list[str]:
        """Per-shard fingerprints (compose to :meth:`fingerprint`)."""
        return [stream.hexdigest() for stream in self._shard_streams]

    def shard_sizes(self) -> list[int]:
        """Folded trial counts per shard."""
        return [stream.count for stream in self._shard_streams]
