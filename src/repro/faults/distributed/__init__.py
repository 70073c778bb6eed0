"""Crash-safe, resumable, sharded fault campaigns.

These are the stages of the one campaign pipeline behind
:func:`repro.faults.campaign.run_campaign` - schedule, supervisor,
journal, aggregator - which scales from a few trials in one process to
millions of trials on infrastructure that fails:

* :mod:`~repro.faults.distributed.sharding` - the campaign's schedule,
  split deterministically into contiguous shards; per-shard
  fingerprints compose to the whole-campaign fingerprint.
* :mod:`~repro.faults.distributed.supervisor` - executes the trials in
  this process or on a process pool, with optional per-trial wall-clock
  timeouts, bounded retry with deterministic backoff jitter,
  permanent-failure quarantine, and dead-worker pool recovery.
* :mod:`~repro.faults.distributed.journal` - crash-safe JSONL trial
  journals (fsync per trial, atomic index sidecar, torn-tail recovery);
  ``kill -9`` loses at most the trial in flight.
* :mod:`~repro.faults.distributed.streaming` - O(1)-memory aggregation
  into the rate table / summary / fingerprint of
  :class:`~repro.faults.campaign.CampaignReport`.

The load-bearing invariant across all of it: the *executed trials* are
a pure function of the campaign config, so however a campaign is
sharded, killed, resumed, retried, or parallelised, its fingerprint is
byte-identical to the uninterrupted in-process run's.
"""

from repro.faults.distributed.journal import (
    DEFAULT_INDEX_INTERVAL,
    INDEX_SCHEMA,
    JOURNAL_SCHEMA,
    JournalError,
    RecoveryStats,
    TrialJournal,
    read_index,
    recover_journal,
)
from repro.faults.distributed.sharding import (
    ShardedSchedule,
    Trial,
    compose_fingerprints,
    shard_bounds,
    shard_schedule,
)
from repro.faults.distributed.streaming import StreamingAggregator
from repro.faults.distributed.supervisor import (
    RetryPolicy,
    SupervisionStats,
    TrialSupervisor,
    execute_trial,
    infra_result,
)

__all__ = [
    "DEFAULT_INDEX_INTERVAL",
    "INDEX_SCHEMA",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RecoveryStats",
    "RetryPolicy",
    "ShardedSchedule",
    "StreamingAggregator",
    "SupervisionStats",
    "Trial",
    "TrialJournal",
    "TrialSupervisor",
    "compose_fingerprints",
    "execute_trial",
    "infra_result",
    "read_index",
    "recover_journal",
    "shard_bounds",
    "shard_schedule",
]
