"""Online workload estimators: trend-aware rates and template mixes.

All three estimators learn incrementally from the stream as it is
served — no training pass, no stored history beyond O(1) state — and
none of them ever reads wall time on its own: time enters only through
``observe(..., now=...)`` / an injected clock, so a scripted schedule
replays to bit-identical forecasts.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping

from repro.errors import ServiceError


class HoltForecaster:
    """Holt double-exponential smoothing: a level plus a linear trend.

    The textbook recurrence (WiSeDB's arrival-rate model is the same
    shape):

    * ``level = alpha * x + (1 - alpha) * (level + trend)``
    * ``trend = beta * (level - prev_level) + (1 - beta) * trend``

    ``forecast(h)`` extrapolates ``level + h * trend`` — the trend term
    is what lets the planner provision *ahead* of a ramp instead of
    chasing it, which plain EWMA (``beta=0``) cannot do.
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ServiceError("alpha must be in (0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ServiceError("beta must be in [0, 1]")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.level = 0.0
        self.trend = 0.0
        self.observations = 0

    def observe(self, value: float) -> None:
        """Fold one sample into the level/trend state."""
        value = float(value)
        if self.observations == 0:
            self.level = value
        else:
            prev = self.level
            self.level = self.alpha * value + (1.0 - self.alpha) * (
                self.level + self.trend
            )
            self.trend = (
                self.beta * (self.level - prev) + (1.0 - self.beta) * self.trend
            )
        self.observations += 1

    def forecast(self, horizon: float = 1.0) -> float:
        """Predicted value ``horizon`` steps ahead (never negative)."""
        return max(0.0, self.level + float(horizon) * self.trend)

    def snapshot(self) -> dict:
        return {
            "level": self.level,
            "trend": self.trend,
            "observations": self.observations,
            "alpha": self.alpha,
            "beta": self.beta,
        }


class ArrivalRateForecaster:
    """One tenant's arrivals/second, learned from bucketed counts.

    Arrivals are accumulated into fixed-width time buckets on the
    injected clock; each bucket that *closes* (time moved past its
    edge) feeds its rate — count / width — into a
    :class:`HoltForecaster`, and buckets that passed with no arrivals
    feed zeros, so an idle tenant's forecast decays instead of
    freezing at its last busy rate. ``forecast()`` extrapolates one
    bucket ahead by default: the rate the *next* planning interval
    should expect, not the rate the last one saw.
    """

    MAX_GAP_BUCKETS = 64  # catch-up bound after a clock jump

    def __init__(
        self,
        window_seconds: float = 1.0,
        alpha: float = 0.5,
        beta: float = 0.3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ServiceError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self._holt = HoltForecaster(alpha=alpha, beta=beta)
        self._clock = clock
        self._bucket_start: float | None = None
        self._bucket_count = 0
        self.total_observed = 0

    def _roll(self, now: float) -> None:
        """Close every bucket whose edge ``now`` has passed."""
        if self._bucket_start is None:
            self._bucket_start = now
            return
        gap = 0
        while now - self._bucket_start >= self.window_seconds:
            if gap < self.MAX_GAP_BUCKETS:
                self._holt.observe(self._bucket_count / self.window_seconds)
            self._bucket_count = 0
            self._bucket_start += self.window_seconds
            gap += 1
        if gap >= self.MAX_GAP_BUCKETS:
            # a pathological clock jump: don't replay unbounded zeros,
            # just land the bucket grid at the present
            self._bucket_start = now

    def observe(self, count: int = 1, now: float | None = None) -> None:
        """Record ``count`` arrivals at time ``now`` (clock when omitted)."""
        if count < 0:
            raise ServiceError("cannot observe a negative arrival count")
        now = self._clock() if now is None else float(now)
        self._roll(now)
        self._bucket_count += int(count)
        self.total_observed += int(count)

    def forecast(self, now: float | None = None, horizon: float = 1.0) -> float:
        """Predicted arrivals/second, ``horizon`` buckets ahead."""
        now = self._clock() if now is None else float(now)
        self._roll(now)
        if self._holt.observations == 0:
            # no closed bucket yet: the open bucket's partial rate is
            # the only signal there is
            elapsed = (
                now - self._bucket_start if self._bucket_start is not None else 0.0
            )
            if elapsed <= 0.0:
                return 0.0
            return self._bucket_count / max(elapsed, 1e-9)
        return self._holt.forecast(horizon)

    def snapshot(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "total_observed": self.total_observed,
            "open_bucket_count": self._bucket_count,
            **self._holt.snapshot(),
        }


class TemplateMixForecaster:
    """EWMA over a categorical distribution (template / label shares).

    Each observed batch is normalized to shares, then folded into the
    running mix with weight ``alpha`` — categories absent from the
    batch decay toward zero, so yesterday's hot template stops looking
    hot. ``mix()`` is always a proper distribution (sums to 1 when
    non-empty); negligible shares are pruned so a long-lived tenant
    cannot grow an unbounded key set.
    """

    MIN_SHARE = 1e-4  # shares below this are pruned

    def __init__(self, alpha: float = 0.3, max_keys: int = 512) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ServiceError("alpha must be in (0, 1]")
        if max_keys < 1:
            raise ServiceError("max_keys must be >= 1")
        self.alpha = float(alpha)
        self.max_keys = int(max_keys)
        self._shares: dict = {}
        self.batches_observed = 0

    def observe(self, counts: Mapping) -> None:
        """Fold one batch's per-category counts into the mix."""
        total = sum(counts.values())
        if total <= 0:
            return
        decay = 1.0 - self.alpha
        for key in self._shares:
            self._shares[key] *= decay
        for key, count in counts.items():
            self._shares[key] = self._shares.get(key, 0.0) + self.alpha * (
                count / total
            )
        self._prune()
        self.batches_observed += 1

    def _prune(self) -> None:
        if len(self._shares) > self.max_keys or any(
            share < self.MIN_SHARE for share in self._shares.values()
        ):
            kept = sorted(
                (
                    (key, share)
                    for key, share in self._shares.items()
                    if share >= self.MIN_SHARE
                ),
                key=lambda item: (-item[1], str(item[0])),
            )[: self.max_keys]
            self._shares = dict(kept)

    def mix(self) -> dict:
        """The current forecast mix, normalized to sum to 1."""
        total = sum(self._shares.values())
        if total <= 0:
            return {}
        return {key: share / total for key, share in self._shares.items()}

    def share(self, key) -> float:
        return self.mix().get(key, 0.0)

    def top(self, k: int = 5) -> list:
        """The ``k`` hottest categories as ``(key, share)`` pairs."""
        return sorted(
            self.mix().items(), key=lambda item: (-item[1], str(item[0]))
        )[: max(0, k)]

    def snapshot(self) -> dict:
        return {
            "alpha": self.alpha,
            "batches_observed": self.batches_observed,
            "keys": len(self._shares),
            "top": [[str(key), share] for key, share in self.top(5)],
        }
