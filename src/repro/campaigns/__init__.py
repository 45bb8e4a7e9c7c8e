"""Shared campaign infrastructure: kernel, sharded runtime, SIGINT, salvage.

The generative campaign (``repro generate``) and the sanitizer-validation
campaign (``repro sancheck``) are different pipelines over the same
shape: a deterministic seed list walked in order, checkpointed at seed
boundaries, banking into a keyed, deduped corpus.  This package holds
the machinery that shape shares:

* :mod:`repro.campaigns.kernel` — the one seed walk both campaigns
  run: resume and checkpoint through one state record (``RPRCAMP1``,
  also each shard's result record), and one banking step that counts a
  key the bank already holds as a duplicate.  Each campaign supplies
  only its per-seed step, seed list, labels and result type;
* :mod:`repro.campaigns.sigint` — deferred Ctrl-C: interrupt at a seed
  boundary with the checkpoint flushed, never mid-seed;
* :mod:`repro.campaigns.runtime` — the sharded, self-healing campaign
  supervisor (seed-range partitioning, watchdogs, quarantine, and a
  merge that replays shard key streams through the kernel's banking
  step);
* :mod:`repro.campaigns.fsck` — corpus salvage for corrupted banks
  (``repro bank fsck``).
"""
