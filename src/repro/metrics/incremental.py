"""Incremental staleness accounting (the deployment metric path).

A collection pass could re-derive every lag metric from scratch at the
end of a run by walking each server's full apply log and each user's
full observation log through :func:`~repro.metrics.consistency.update_lags`
(a ``searchsorted`` per update per replica).  These trackers maintain
the same quantities *incrementally* -- a few float operations per
version-change or visit event, hooked into
:attr:`~repro.cdn.server.ServerActor.on_apply_hooks` and the
:class:`~repro.cdn.cohort.UserCohort` response path -- so collection
is a cheap read of running state.

Invariant: each tracker equals the re-scan functions of
:mod:`repro.metrics.consistency` (``mean_update_lag``,
``stale_observation_fraction``) bit for bit, structurally:

- Apply logs record strictly increasing versions (the cache layer only
  appends strictly newer writes), so the first log entry whose running
  max reaches update ``i`` is exactly the apply that covered ``i``; the
  tracker scores ``i`` at that moment with the same float subtraction.
- Covered updates form a prefix ``1..V_final`` and censored updates the
  tail, in both derivations, so the lag list feeding ``np.mean`` has
  the same values in the same order (pairwise summation is
  order-sensitive, so order is part of the contract).
- The stale-visit count compares each observation against the running
  maximum seen *before* it, with the same strict ``<``.

``tests/test_metrics.py`` checks trackers against the re-scans, and
``tests/test_golden_digests.py`` pins whole-deployment outcomes.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports (the cdn
    # package imports the metrics package at module load, so importing
    # back at runtime would be circular)
    from ..cdn.content import LiveContent

__all__ = [
    "ServerLagTracker",
    "UserObservationTracker",
    "AggregateUserMetrics",
    "aggregate_user_rollup",
]


class ServerLagTracker:
    """Running per-update lags of one server replica.

    ``on_apply(now, version)`` must be called exactly when a strictly
    newer *version* lands in the replica's cache (wire it to
    ``ServerActor.on_apply_hooks``); versions across calls are therefore
    strictly increasing.

    *times* lets many trackers share one update-times list (the cohort
    plane builds hundreds of thousands of trackers per run); when given
    it must equal ``list(content.update_times)`` and is never mutated.
    """

    __slots__ = ("_times", "_lags", "_covered")

    def __init__(
        self, content: LiveContent, times: Optional[List[float]] = None
    ) -> None:
        self._times = times if times is not None else list(content.update_times)
        self._lags: List[float] = []
        #: Highest update index already scored (covered prefix).
        self._covered = 0

    def on_apply(self, now: float, version: int) -> None:
        times = self._times
        top = min(version, len(times))
        covered = self._covered
        if top <= covered:
            return
        lags = self._lags
        for index in range(covered + 1, top + 1):
            lags.append(max(0.0, now - times[index - 1]))
        self._covered = top

    def mean_lag(self, censor_at: float) -> float:
        """Mean update lag with never-covered updates censored at
        *censor_at* -- equals ``mean_update_lag(content, apply_log,
        censor_at=censor_at)`` on the replica's full log.  Non-destructive."""
        times = self._times
        lags = self._lags + [
            max(0.0, censor_at - times[index - 1])
            for index in range(self._covered + 1, len(times) + 1)
        ]
        if not lags:
            return 0.0
        return float(np.mean(lags))


class UserObservationTracker:
    """Running per-update lags and stale-visit count of one end user.

    ``on_observe`` must be called once per recorded
    :class:`~repro.cdn.client.Observation`, in observation order.
    Unlike server
    applies, observed versions may regress (a redirection to a stale
    server); regressions below the running maximum count as stale visits
    and never advance coverage.
    """

    __slots__ = ("_times", "_lags", "_seen", "_stale", "_total")

    def __init__(
        self, content: LiveContent, times: Optional[List[float]] = None
    ) -> None:
        self._times = times if times is not None else list(content.update_times)
        self._lags: List[float] = []
        #: Running maximum observed version (-1 before any visit).
        self._seen = -1
        self._stale = 0
        self._total = 0

    def on_observe(self, now: float, version: int) -> None:
        self._total += 1
        seen = self._seen
        if version < seen:
            self._stale += 1
            return
        if version > seen:
            times = self._times
            lags = self._lags
            for index in range(max(seen, 0) + 1, min(version, len(times)) + 1):
                lags.append(max(0.0, now - times[index - 1]))
            self._seen = version

    def mean_lag(self, censor_at: float) -> float:
        """Mean first-sight update lag, censored at *censor_at* -- equals
        ``mean_update_lag`` on the user's full observation log."""
        times = self._times
        covered = min(max(self._seen, 0), len(times))
        lags = self._lags + [
            max(0.0, censor_at - times[index - 1])
            for index in range(covered + 1, len(times) + 1)
        ]
        if not lags:
            return 0.0
        return float(np.mean(lags))

    def stale_fraction(self) -> float:
        """Equals ``stale_observation_fraction`` on the observation log."""
        if not self._total:
            return 0.0
        return self._stale / self._total


class AggregateUserMetrics:
    """O(1)-per-user staleness accumulators for planet-scale runs.

    The per-user tracker keeps a lag *list* per user (and the testbed
    keys one metrics-dict entry per user), which is the wrong memory
    shape for a million users.  This class keeps four unboxed scalars
    per user slot -- running max version, lag sum, stale count, visit
    count -- in :mod:`array` storage, and the collection pass groups
    slots by home server (:func:`aggregate_user_rollup`).

    The aggregate mode is its own metrics layout, not a bit-compatible
    re-expression of the per-user mode: lag sums accumulate left to
    right (the per-user tracker feeds ``np.mean``'s pairwise
    summation), and the reported dicts are keyed by home server.
    Sharded runs merge deterministically (see
    ``repro.experiments.sharding``).

    ``on_observe`` mirrors :meth:`UserObservationTracker.on_observe`
    exactly (same strict comparisons, same censor clamping); versions
    may regress and count as stale visits.
    """

    __slots__ = ("_times", "_seen", "_lag_sum", "_stale", "_total")

    def __init__(
        self,
        content: LiveContent,
        n_slots: int,
        times: Optional[List[float]] = None,
    ) -> None:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        self._times = times if times is not None else list(content.update_times)
        self._seen = array("q", [-1]) * n_slots
        self._lag_sum = array("d", [0.0]) * n_slots
        self._stale = array("q", [0]) * n_slots
        self._total = array("q", [0]) * n_slots

    @property
    def n_slots(self) -> int:
        return len(self._seen)

    def on_observe(self, slot: int, now: float, version: int) -> None:
        self._total[slot] += 1
        seen = self._seen[slot]
        if version < seen:
            self._stale[slot] += 1
            return
        if version > seen:
            times = self._times
            lag = self._lag_sum[slot]
            for index in range(max(seen, 0) + 1, min(version, len(times)) + 1):
                lag += max(0.0, now - times[index - 1])
            self._lag_sum[slot] = lag
            self._seen[slot] = version

    def mean_lags(self, censor_at: float) -> List[float]:
        """Per-slot mean first-sight lag, never-seen updates censored at
        *censor_at*.  Non-destructive; the censor loop only walks each
        slot's uncovered tail (empty for users that saw every update)."""
        times = self._times
        n_times = len(times)
        out: List[float] = []
        for slot in range(len(self._seen)):
            covered = min(max(self._seen[slot], 0), n_times)
            total = self._lag_sum[slot]
            for index in range(covered + 1, n_times + 1):
                total += max(0.0, censor_at - times[index - 1])
            out.append(total / n_times if n_times else 0.0)
        return out

    def stale_fractions(self) -> List[float]:
        return [
            self._stale[slot] / total if total else 0.0
            for slot, total in enumerate(self._total)
        ]


def aggregate_user_rollup(
    aggregate: AggregateUserMetrics,
    node_ids: Sequence[str],
    censor_at: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Group per-slot aggregates by home server.

    *node_ids* are the user node ids in slot order; the home server is
    recovered from the testbed's ``<server>-user-<i>`` naming, so the
    grouping is stable under population sharding.
    Returns ``(user_lags, user_stale_fractions)`` keyed by server node
    id, both plain per-group means accumulated in slot order.
    """
    means = aggregate.mean_lags(censor_at)
    fracs = aggregate.stale_fractions()
    lag_sums: Dict[str, float] = {}
    frac_sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for slot, node_id in enumerate(node_ids):
        group = node_id.rsplit("-user-", 1)[0]
        if group in counts:
            counts[group] += 1
            lag_sums[group] += means[slot]
            frac_sums[group] += fracs[slot]
        else:
            counts[group] = 1
            lag_sums[group] = means[slot]
            frac_sums[group] = fracs[slot]
    user_lags = {group: lag_sums[group] / counts[group] for group in counts}
    stale = {group: frac_sums[group] / counts[group] for group in counts}
    return user_lags, stale
