"""Tests for repro.net.cloud."""

import pytest

from repro.core import units
from repro.net import MAX_DOMAIN_LEASE, CloudEndpoint


class TestDelivery:
    def test_deliver_records(self, sim):
        cloud = CloudEndpoint(sim, store_deliveries=True)
        cloud.deploy()
        assert cloud.deliver("dev-1", "gw", "bh")
        assert len(cloud.deliveries) == 1
        record = cloud.deliveries[0]
        assert (record.source, record.via_gateway, record.via_backhaul) == (
            "dev-1",
            "gw",
            "bh",
        )
        assert cloud.per_device_last["dev-1"] == 0.0

    def test_dead_endpoint_refuses(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        cloud.fail()
        assert not cloud.deliver("dev-1", "gw", "bh")

    def test_device_silence(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        cloud.deliver("a", "gw", "bh")
        sim.run_until(units.days(3.0))
        silence = cloud.device_silence(sim.now)
        assert silence["a"] == pytest.approx(units.days(3.0))


class TestWeeklyUptime:
    def test_full_uptime(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        for week in range(10):
            sim.run_until(week * units.WEEK + 1.0)
            cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 10 * units.WEEK)
        assert report.uptime == 1.0
        assert report.longest_gap_weeks == 0
        assert report.meets_goal(0.99)

    def test_partial_uptime_and_gap(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        # Arrivals only in weeks 0 and 5 of a 6-week window.
        cloud.deliver("dev-1", "gw", "bh")
        sim.run_until(5 * units.WEEK + 1.0)
        cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 6 * units.WEEK)
        assert report.up_weeks == 2
        assert report.uptime == pytest.approx(2.0 / 6.0)
        assert report.longest_gap_weeks == 4
        assert not report.meets_goal()

    def test_multiple_arrivals_one_week_count_once(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        for _ in range(5):
            cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 2 * units.WEEK)
        assert report.up_weeks == 1
        assert report.total_deliveries == 5

    def test_window_validation(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        with pytest.raises(ValueError):
            cloud.weekly_uptime(10.0, 10.0)
        with pytest.raises(ValueError):
            cloud.weekly_uptime(0.0, units.DAY)


class TestDomainLease:
    def test_renewals_every_ten_years(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=0.0)
        cloud.deploy()
        sim.run_until(units.years(50.0) + units.DAY)
        assert cloud.domain_renewals == 5
        assert cloud.missed_renewals == 0
        assert cloud.domain_up

    def test_lease_constant(self):
        assert MAX_DOMAIN_LEASE == units.years(10.0)

    def test_certain_miss_darkens_page(self, sim):
        cloud = CloudEndpoint(
            sim, renewal_miss_probability=1.0, renewal_recovery=units.days(30.0)
        )
        cloud.deploy()
        sim.run_until(units.years(10.0) + units.days(1.0))
        assert not cloud.domain_up
        assert not cloud.accepting()
        sim.run_until(units.years(10.0) + units.days(31.0))
        assert cloud.domain_up

    def test_lapse_refuses_deliveries(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=1.0)
        cloud.deploy()
        sim.run_until(units.years(10.0) + units.DAY)
        assert not cloud.deliver("dev-1", "gw", "bh")

    def test_lapses_recorded(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=1.0)
        cloud.deploy()
        sim.run_until(units.years(21.0))
        assert len(sim.records("domain-lapse")) == 2

    def test_probability_validation(self, sim):
        with pytest.raises(ValueError):
            CloudEndpoint(sim, renewal_miss_probability=1.5)


def twin_endpoints(sim):
    """A records endpoint and an aggregate-only one, fed the same arrivals."""
    stored = CloudEndpoint(sim, name="stored", store_deliveries=True)
    aggregate = CloudEndpoint(sim, name="aggregate")
    stored.deploy()
    aggregate.deploy()
    return stored, aggregate


class TestAggregateMode:
    def test_records_are_opt_in(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        assert cloud.deliver("dev-1", "gw", "bh")
        assert cloud.deliveries is None
        assert cloud.delivered_count == 1

    def test_window_ending_at_last_arrival(self, sim):
        # Regression: a run whose last reports land at exactly the
        # horizon (50 Julian years is exactly 73,050 six-hour periods)
        # made aggregate mode raise instead of leaving those arrivals
        # out of [0, end) as the records path does.
        assert units.years(50.0) == 73_050 * units.hours(6.0)
        stored, aggregate = twin_endpoints(sim)
        end = 3 * units.WEEK
        for t in (0.0, units.WEEK + 5.0, end):
            sim.run_until(t)
            for cloud in (stored, aggregate):
                cloud.deliver("dev-1", "gw", "bh")
                cloud.deliver("dev-2", "gw", "bh")
        report = aggregate.weekly_uptime(0.0, end)
        assert report == stored.weekly_uptime(0.0, end)
        assert report.total_deliveries == 4
        assert (report.weeks, report.up_weeks, report.longest_gap_weeks) == (3, 2, 1)

    def test_window_before_last_arrival_needs_records(self, sim):
        stored, aggregate = twin_endpoints(sim)
        sim.run_until(2 * units.WEEK)
        for cloud in (stored, aggregate):
            cloud.deliver("dev-1", "gw", "bh")
        with pytest.raises(ValueError):
            aggregate.weekly_uptime(0.0, units.WEEK)
        with pytest.raises(ValueError):
            aggregate.weekly_uptime(units.WEEK, 3 * units.WEEK)
        assert stored.weekly_uptime(0.0, units.WEEK).total_deliveries == 0
        assert stored.weekly_uptime(units.WEEK, 3 * units.WEEK).up_weeks == 1

    def test_group_aggregates_match_record_scan(self, sim):
        from repro.analysis.uptime import interval_coverage, longest_gap

        stored, aggregate = twin_endpoints(sim)
        # Each group's longest silence is decided by a different gap:
        # the lead-in ("late"), one between arrivals ("gappy"), and the
        # tail once the window runs on to day 80.  Repeated instants
        # and an ungrouped source ride along.
        days = {
            "late": (20.0, 20.0, 23.0, 30.0, 41.0),
            "gappy": (5.0, 5.0, 8.0, 30.0, 41.0),
            "ungrouped": (1.0, 41.0),
        }
        for group in ("late", "gappy"):
            aggregate.add_to_group(group, group)
        arrivals = sorted(
            (units.days(d), source) for source, ds in days.items() for d in ds
        )
        for t, source in arrivals:
            sim.run_until(t)
            stored.deliver(source, "gw", "bh")
            aggregate.deliver(source, "gw", "bh")
        for group in ("late", "gappy"):
            track = aggregate.group_arrivals(group)
            times = [r.received_at for r in stored.deliveries if r.source == group]
            for end in (units.days(41.0), units.days(50.0), units.days(80.0)):
                assert track.report(end).uptime == interval_coverage(times, 0.0, end)
                assert track.longest_silence(end) == longest_gap(times, 0.0, end)
        assert aggregate.group_arrivals("late").longest_silence(units.days(50.0)) == (
            units.days(20.0)
        )
        assert aggregate.group_arrivals("gappy").longest_silence(units.days(50.0)) == (
            units.days(22.0)
        )
        unknown = aggregate.group_arrivals("nobody")
        assert unknown.report(units.WEEK).up_weeks == 0
        assert unknown.longest_silence(units.WEEK) == units.WEEK
