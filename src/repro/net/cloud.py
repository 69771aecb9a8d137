"""The backend data endpoint and the paper's end-to-end uptime metric.

§4's top-level metric: "some data arrives at some interval of time up to
once a week that is publicly accessible at centurysensors.com."
``CloudEndpoint`` counts every delivery and evaluates weekly uptime; it
also models the one *certain* maintenance event the paper calls out —
the 10-year maximum domain lease — as a renewal that, if ever missed,
takes the public page dark until re-registered.

Deliveries are packet-free: a report arrives as its source name alone
(:meth:`CloudEndpoint.deliver`).  The endpoint keeps running
aggregates, not records — an :class:`ArrivalTrack` for all arrivals and
one per registered source group (the fifty-year experiment's two arms)
— which evaluate the weekly metric and the longest silence exactly.
Per-arrival :class:`~repro.radio.packets.DeliveryRecord` objects are an
opt-in (``store_deliveries=True``) for consumers that need the rows
themselves or windows the aggregates cannot resolve.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core import units
from ..core.engine import Simulation
from ..core.entity import Entity, EntityState
from ..radio.packets import DeliveryRecord

#: ICANN's maximum registration period (§4.5, ref [18]).
MAX_DOMAIN_LEASE: float = units.years(10.0)

_ACTIVE = EntityState.ACTIVE


class ArrivalTrack:
    """Running aggregates of one stream of arrival times.

    Arrivals come in simulation order, so times never decrease.  The
    track keeps per-week arrival counts (weeks numbered from t=0), the
    first and last arrival, how many arrivals share the last instant,
    and the longest gap between consecutive arrivals.  That is enough
    to evaluate, exactly and with the same float operations as the
    record-scanning references (:func:`~repro.analysis.uptime.interval_coverage`,
    :func:`~repro.analysis.uptime.longest_gap`), any window ``[0, end)``
    that ends at or after the last arrival: arrivals at exactly ``end``
    fall outside the window and are subtracted from the total, and they
    cannot change the longest silence (the gap that ends at them equals
    the gap to the window's end).
    """

    __slots__ = ("week_counts", "first", "last", "last_count", "max_gap")

    def __init__(self) -> None:
        self.week_counts: Dict[int, int] = {}
        self.first: float = -1.0
        self.last: float = -1.0
        self.last_count: int = 0
        self.max_gap: float = 0.0

    def add(self, t: float) -> None:
        """Count one arrival at time ``t`` (no earlier than the last)."""
        week = int(t // units.WEEK)
        counts = self.week_counts
        counts[week] = counts.get(week, 0) + 1
        last = self.last
        if t > last:
            if last < 0.0:
                self.first = t
            elif t - last > self.max_gap:
                self.max_gap = t - last
            self.last = t
            self.last_count = 1
        else:
            self.last_count += 1

    def _check_window(self, end: float) -> None:
        if self.last > end:
            raise ValueError(
                "arrival aggregates cannot evaluate a window ending at "
                f"{end} before the last arrival at {self.last}"
            )

    def report(self, end: float) -> "UptimeReport":
        """Weekly uptime over ``[0, end)`` (see :meth:`CloudEndpoint.weekly_uptime`)."""
        n_weeks = _whole_weeks(0.0, end)
        self._check_window(end)
        total = sum(self.week_counts.values())
        if self.last >= end:
            total -= self.last_count  # arrivals at exactly ``end``
        hit = [False] * n_weeks
        for week in self.week_counts:
            if week < n_weeks:
                hit[week] = True
        return _report_from_hits(hit, total)

    def longest_silence(self, end: float) -> float:
        """Longest stretch of ``[0, end)`` without an arrival, in seconds.

        Equal to ``longest_gap(arrivals, 0.0, end)``.
        """
        self._check_window(end)
        if self.last < 0.0:
            return end
        return max(self.first, self.max_gap, end - self.last)


class CloudEndpoint(Entity):
    """The data display webpage / collection endpoint.

    ``renewal_miss_probability`` is the chance any given domain renewal
    is fumbled (staff turnover over 50 years makes this non-zero); a
    missed renewal causes an outage of ``renewal_recovery`` before
    someone notices and re-registers.
    """

    TIER = "cloud"

    def __init__(
        self,
        sim: Simulation,
        name: str = "centurysensors.com",
        renewal_miss_probability: float = 0.0,
        renewal_recovery: float = units.days(30.0),
        store_deliveries: bool = False,
    ) -> None:
        super().__init__(sim, name)
        if not 0.0 <= renewal_miss_probability <= 1.0:
            raise ValueError("renewal_miss_probability must be in [0, 1]")
        self.renewal_miss_probability = renewal_miss_probability
        self.renewal_recovery = renewal_recovery
        #: Optional override: a callable ``t -> miss probability`` used
        #: instead of the constant, e.g. an experimenter-succession
        #: model whose handoffs erode institutional memory (§4.5).
        self.miss_probability_fn = None
        #: Records opt-in.  By default the endpoint keeps only running
        #: aggregates (:class:`ArrivalTrack`s, the gap histogram, the
        #: delivered counter): a fifty-year run or a 100k-device month
        #: would otherwise pin hundreds of thousands to millions of
        #: record objects for a metric that needs per-week counts.  With
        #: ``store_deliveries=True`` every arrival is also kept as a
        #: :class:`DeliveryRecord` in ``deliveries``.
        self.store_deliveries = store_deliveries
        self.deliveries: Optional[List[DeliveryRecord]] = (
            [] if store_deliveries else None
        )
        self.per_device_last: Dict[str, float] = {}
        self._arrivals = ArrivalTrack()
        self._groups: Dict[str, ArrivalTrack] = {}
        self._group_of: Dict[str, ArrivalTrack] = {}
        self.domain_up = True
        # Endpoint accounting in the run's metrics registry.  The
        # delivered counter closes the link-conservation chain the
        # auditor checks (device -> gateway -> endpoint); the gap
        # histogram buckets per-device inter-arrival times at 1 h, 6 h,
        # 1 d, 1 w, 4 w — the last edge being the paper's uptime window.
        metrics = sim.metrics
        self._c_delivered = metrics.counter(
            "net_packets_delivered_total", tier=self.TIER, entity=self.name
        )
        self._c_renewals = metrics.counter(
            "net_domain_renewals_total", tier=self.TIER, entity=self.name
        )
        self._c_missed_renewals = metrics.counter(
            "net_domain_renewals_missed_total", tier=self.TIER, entity=self.name
        )
        self._h_gap = metrics.histogram(
            "net_delivery_gap_seconds",
            edges=(3600.0, 21600.0, 86400.0, 604800.0, 2419200.0),
            tier=self.TIER,
            entity=self.name,
        )
        # Hot-path contract: deliver() bumps the bucket list directly
        # (one bisect + one list store), no method call per packet.
        self._gap_edges = self._h_gap.edges
        self._gap_buckets = self._h_gap.bucket_counts

    def on_deploy(self) -> None:
        self.sim.call_in(
            MAX_DOMAIN_LEASE, self._domain_renewal, label=f"lease:{self.name}"
        )

    def _domain_renewal(self) -> None:
        if not self.alive:
            return
        self._c_renewals.value += 1
        rng = self.sim.rng("domain-renewals")
        miss_probability = self.renewal_miss_probability
        if self.miss_probability_fn is not None:
            miss_probability = float(self.miss_probability_fn(self.sim.now))
        if rng.random() < miss_probability:
            self._c_missed_renewals.value += 1
            self.domain_up = False
            self.sim.record("domain-lapse", self.name)
            self.sim.call_in(self.renewal_recovery, self._domain_recover)
        self.sim.call_in(MAX_DOMAIN_LEASE, self._domain_renewal)

    def _domain_recover(self) -> None:
        self.domain_up = True
        self.sim.record("domain-recover", self.name)

    def accepting(self) -> bool:
        """True if a delivery offered right now would be recorded publicly."""
        return self.alive and self.domain_up and self.forced_degradations == 0

    def add_to_group(self, group: str, source: str) -> None:
        """Count ``source``'s future arrivals in ``group``'s aggregates.

        Register a source before it first reports (a device joining
        mid-run registers at construction); each source belongs to at
        most one group.
        """
        track = self._groups.get(group)
        if track is None:
            track = self._groups[group] = ArrivalTrack()
        self._group_of[source] = track

    def group_arrivals(self, group: str) -> ArrivalTrack:
        """The running aggregates of ``group`` (empty if nothing registered)."""
        track = self._groups.get(group)
        return track if track is not None else ArrivalTrack()

    def deliver(self, source: str, via_gateway: str, via_backhaul: str) -> bool:
        """Record one report from ``source``.  Returns False if the endpoint is dark.

        Inlines :meth:`accepting`: this runs once per delivered report.
        """
        if (
            self.state is not _ACTIVE
            or not self.domain_up
            or self.forced_degradations
        ):
            return False
        now = self.sim.now
        records = self.deliveries
        if records is not None:
            records.append(DeliveryRecord(source, now, via_gateway, via_backhaul))
        self._arrivals.add(now)
        group = self._group_of.get(source)
        if group is not None:
            group.add(now)
        self._c_delivered.value += 1
        per_device_last = self.per_device_last
        last = per_device_last.get(source)
        if last is not None:
            self._gap_buckets[bisect_left(self._gap_edges, now - last)] += 1
        per_device_last[source] = now
        return True

    # Compatibility views over the registry-backed counters.
    @property
    def delivered_count(self) -> int:
        """Packets recorded, independent of delivery-record storage.

        The registry-backed counter is the single source of truth;
        ``deliveries`` exists only while ``store_deliveries`` is on, so
        aggregate consumers (the invariant auditor, fleet summaries)
        read this instead.
        """
        return self._c_delivered.value

    @property
    def delivery_gap_buckets(self) -> tuple:
        """Bucket counts of the per-device inter-arrival histogram.

        A read-only aggregate view (1 h / 6 h / 1 d / 1 w / 4 w edges
        plus overflow) that exists in both delivery-storage modes.
        """
        return tuple(self._gap_buckets)

    @property
    def domain_renewals(self) -> int:
        """Domain lease renewals attempted (registry-backed)."""
        return self._c_renewals.value

    @domain_renewals.setter
    def domain_renewals(self, value: int) -> None:
        self._c_renewals.value = value

    @property
    def missed_renewals(self) -> int:
        """Renewals fumbled, taking the page dark (registry-backed)."""
        return self._c_missed_renewals.value

    @missed_renewals.setter
    def missed_renewals(self, value: int) -> None:
        self._c_missed_renewals.value = value

    # ------------------------------------------------------------------
    # The paper's uptime metric
    # ------------------------------------------------------------------
    def weekly_uptime(self, start: float, end: float) -> "UptimeReport":
        """Fraction of whole weeks in [start, end) with >= 1 arrival.

        This is exactly the §4 metric: the experiment is "up" in a week
        if *some* data arrived that week.  Arrivals at or after ``end``
        are outside the window, ``total_deliveries`` included.

        With records kept, any window evaluates.  Without them the
        running aggregates resolve windows that start at 0 and end at
        or after the last arrival — the shape every run-end summary
        asks for — and the two modes return the same report there.
        """
        if self.deliveries is None:
            if start != 0.0:
                raise ValueError(
                    "store_deliveries=False endpoints bucket arrivals "
                    "from t=0; weekly_uptime requires start == 0.0"
                )
            return self._arrivals.report(end)
        n_weeks = _whole_weeks(start, end)
        arrivals = [
            r.received_at for r in self.deliveries if start <= r.received_at < end
        ]
        hit = [False] * n_weeks
        for t in arrivals:
            index = int((t - start) // units.WEEK)
            if index < n_weeks:
                hit[index] = True
        return _report_from_hits(hit, len(arrivals))

    def device_silence(self, horizon_end: float) -> Dict[str, float]:
        """Seconds since each known device was last heard, at ``horizon_end``."""
        return {
            name: horizon_end - last for name, last in self.per_device_last.items()
        }


@dataclass(frozen=True)
class UptimeReport:
    """Result of evaluating the weekly-uptime metric over a window."""

    weeks: int
    up_weeks: int
    uptime: float
    longest_gap_weeks: int
    total_deliveries: int

    def meets_goal(self, required: float = 0.99) -> bool:
        """Did the system hit the target weekly uptime?"""
        return self.uptime >= required


def _whole_weeks(start: float, end: float) -> int:
    """Whole weeks in ``[start, end)``; rejects empty and sub-week windows."""
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    n_weeks = int((end - start) // units.WEEK)
    if n_weeks == 0:
        raise ValueError("window shorter than one week")
    return n_weeks


def _report_from_hits(hit: List[bool], total_deliveries: int) -> UptimeReport:
    n_weeks = len(hit)
    up_weeks = sum(hit)
    # Longest dark run, in whole weeks.
    longest_gap = 0
    current = 0
    for h in hit:
        if h:
            current = 0
        else:
            current += 1
            longest_gap = max(longest_gap, current)
    return UptimeReport(
        weeks=n_weeks,
        up_weeks=up_weeks,
        uptime=up_weeks / n_weeks,
        longest_gap_weeks=longest_gap,
        total_deliveries=total_deliveries,
    )
