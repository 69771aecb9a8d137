"""The endpoint's running per-arm aggregates against the record scan.

``FiftyYearExperiment`` reads each arm's weekly uptime and longest gap
from the endpoint's arrival groups instead of scanning delivery records.
For every named scenario, those numbers must equal
:func:`~repro.analysis.uptime.interval_coverage` /
:func:`~repro.analysis.uptime.longest_gap` over the records of an
endpoint opted into keeping them, and an aggregate-only run must publish
the same result as a records run.
"""

import functools

import pytest

from repro.analysis.uptime import interval_coverage, longest_gap
from repro.core import units
from repro.experiment import FiftyYearExperiment, fifty_year
from repro.experiment.fifty_year import HELIUM_ARM, OWNED_ARM
from repro.experiment.scenarios import SCENARIOS, scenario_config
from repro.net import CloudEndpoint

#: 104 weeks is a whole number of daily report periods, so every device
#: deployed at t=0 reports at exactly the horizon: the arrival the
#: window [0, horizon) must leave out.
HORIZON = units.weeks(104.0)
REPORT_INTERVAL = units.days(1.0)
SEED = 5


def run(name, store_deliveries, monkeypatch):
    """Run one scenario; with ``store_deliveries`` its endpoint keeps records."""
    config = scenario_config(
        name, SEED, horizon=HORIZON, report_interval=REPORT_INTERVAL
    )
    endpoint = functools.partial(CloudEndpoint, store_deliveries=store_deliveries)
    with monkeypatch.context() as patch:
        patch.setattr(fifty_year, "CloudEndpoint", endpoint)
        experiment = FiftyYearExperiment(config)
        result = experiment.run()
    return experiment, result


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_arm_aggregates_match_record_scan(name, monkeypatch):
    experiment, result = run(name, True, monkeypatch)
    records = experiment.endpoint.deliveries
    assert records, "scenario delivered nothing; the comparison would be vacuous"
    assert records[-1].received_at >= HORIZON  # an arrival at exactly the horizon
    arms = ((OWNED_ARM, experiment.devices_154), (HELIUM_ARM, experiment.devices_lora))
    for arm, devices in arms:
        names = {d.name for d in devices}
        arrivals = [r.received_at for r in records if r.source in names]
        coverage = interval_coverage(arrivals, 0.0, HORIZON) if arrivals else 0.0
        gap_weeks = int(longest_gap(arrivals, 0.0, HORIZON) // units.WEEK)
        assert result.arms[arm].weekly_uptime == coverage
        assert result.arms[arm].longest_gap_weeks == gap_weeks


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_aggregate_only_run_publishes_the_same_result(name, monkeypatch):
    stored_experiment, stored = run(name, True, monkeypatch)
    aggregate_experiment, aggregate = run(name, False, monkeypatch)
    assert aggregate_experiment.endpoint.deliveries is None
    assert aggregate.overall == stored.overall
    assert aggregate.arms == stored.arms
    assert aggregate.overall.total_deliveries == sum(
        1 for r in stored_experiment.endpoint.deliveries if r.received_at < HORIZON
    )


def test_growing_fleet_adds_devices_mid_run(monkeypatch):
    # Guards the scenario sweep above: the joiners must really exist for
    # the growing-fleet case to cover sources registered mid-run.
    config = scenario_config("growing-fleet", SEED, horizon=HORIZON)
    experiment, _ = run("growing-fleet", False, monkeypatch)
    joined = experiment.devices_lora[config.n_lora_devices:]
    assert joined
    assert all(d.deployed_at > 0.0 for d in joined)
    assert sum(d.delivered for d in joined) > 0
