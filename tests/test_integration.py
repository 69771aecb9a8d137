"""Cross-module integration tests: whole-system behaviours the paper
argues for, exercised end to end through the public API."""

import pytest

from repro.core import Simulation, units
from repro.core.policy import AttachmentPolicy
from repro.energy import Capacitor, CathodicProtectionSource, HarvestingSystem
from repro.net import (
    CampusBackhaul,
    CellularBackhaul,
    CloudEndpoint,
    EdgeDevice,
    Network,
    OwnedGateway,
    Position,
    associate_by_coverage,
)
from repro.radio import ieee802154
from repro.reliability import kaplan_meier


def build_city_block(sim, n_devices=6, backhaul_cls=CampusBackhaul, **backhaul_kwargs):
    """A little deployment: cloud <- backhaul <- 2 gateways <- devices.

    The endpoint keeps records: the sunset test evaluates a window that
    starts mid-run, which running aggregates cannot resolve.
    """
    cloud = CloudEndpoint(sim, store_deliveries=True)
    backhaul = backhaul_cls(sim, **backhaul_kwargs)
    backhaul.add_dependency(cloud)
    gateways = []
    for position in (Position(0, 0), Position(120, 0)):
        gateway = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=position,
        )
        gateway.add_dependency(backhaul)
        gateways.append(gateway)
    devices = []
    for index in range(n_devices):
        device = EdgeDevice(
            sim,
            technology="802.15.4",
            spec=ieee802154.default_spec(),
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.hours(6.0),
            position=Position(10.0 + 20.0 * index, 10.0),
            power=HarvestingSystem(
                source=CathodicProtectionSource(),
                storage=Capacitor(capacity_j=2.0, stored_j=1.0),
            ),
        )
        devices.append(device)
    associate_by_coverage(devices, gateways, max_gateways_per_device=2)
    net = Network(
        sim=sim, endpoint=cloud, backhauls=[backhaul], gateways=gateways, devices=devices
    )
    net.deploy_all()
    return net


class TestEndToEndDelivery:
    def test_year_of_weekly_uptime(self):
        sim = Simulation(seed=5)
        net = build_city_block(sim)
        sim.run_until(units.years(1.0))
        report = net.endpoint.weekly_uptime(0.0, units.years(1.0))
        assert report.uptime == 1.0
        assert net.delivery_summary().delivery_rate > 0.7

    def test_energy_neutral_over_years(self):
        sim = Simulation(seed=6)
        net = build_city_block(sim, n_devices=2)
        sim.run_until(units.years(3.0))
        for device in net.devices:
            assert device.energy_denied == 0
            assert not device.power.browned_out


class TestInfrastructureDependency:
    def test_cellular_sunset_kills_end_to_end_service(self):
        # §3.4: "device owners have no option ... devices must be replaced."
        sim = Simulation(seed=7)
        net = build_city_block(
            sim,
            backhaul_cls=CellularBackhaul,
            generation="2G",
            sunset_at=units.years(1.0),
        )
        sim.run_until(units.years(2.0))
        before = net.endpoint.weekly_uptime(0.0, units.years(1.0))
        after = net.endpoint.weekly_uptime(units.years(1.0), units.years(2.0))
        assert before.uptime > 0.95
        assert after.uptime == 0.0
        # Devices are all still alive: working hardware, zero service.
        assert all(d.alive for d in net.devices)
        assert net.hierarchy.stranded_devices() == net.hierarchy.tier("device")

    def test_gateway_redundancy_masks_single_failure(self):
        sim = Simulation(seed=8)
        net = build_city_block(sim)
        sim.call_at(units.months(6.0), net.gateways[0].fail)
        sim.run_until(units.years(1.0))
        report = net.endpoint.weekly_uptime(0.0, units.years(1.0))
        assert report.uptime == 1.0  # second gateway carries the block


class TestSurvivalAnalysisPipeline:
    def test_kaplan_meier_on_simulated_fleet(self, rng):
        # Sample a harvesting fleet, censor at a 50-year study window,
        # and verify the estimator reproduces the model's survival.
        from repro.reliability import energy_harvesting_device

        model = energy_harvesting_device()
        lifetimes = model.sample(rng, 3000)
        window = units.years(50.0)
        observed = lifetimes <= window
        durations = lifetimes.clip(max=window)
        curve = kaplan_meier(durations, observed)
        t_check = units.years(20.0)
        assert curve.at(t_check) == pytest.approx(model.survival(t_check), abs=0.03)


class TestAttachmentPolicyEndToEnd:
    def test_stranded_fraction_policy_gap(self):
        # Same physical deployment; instance-bound devices lose service
        # when their gateway dies, compliant devices keep reporting.
        outcomes = {}
        for policy in (AttachmentPolicy.ANY_COMPATIBLE, AttachmentPolicy.INSTANCE_BOUND):
            sim = Simulation(seed=9)
            cloud = CloudEndpoint(sim)
            backhaul = CampusBackhaul(sim)
            backhaul.add_dependency(cloud)
            gateways = []
            for position in (Position(0, 0), Position(40, 0)):
                gateway = OwnedGateway(
                    sim,
                    spec=ieee802154.default_spec(),
                    path_loss=ieee802154.urban_path_loss(),
                    position=position,
                )
                gateway.add_dependency(backhaul)
                gateways.append(gateway)
            device = EdgeDevice(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=ieee802154.airtime_s(24),
                report_interval=units.hours(6.0),
                position=Position(5, 5),
                attachment=policy,
            )
            device.add_dependency(gateways[0])
            device.add_dependency(gateways[1])
            cloud.deploy()
            backhaul.deploy()
            for g in gateways:
                g.deploy()
            device.deploy()
            sim.call_at(units.months(1.0), gateways[0].fail)
            sim.run_until(units.years(1.0))
            outcomes[policy] = device.delivery_rate
        assert outcomes[AttachmentPolicy.ANY_COMPATIBLE] > 0.8
        assert outcomes[AttachmentPolicy.INSTANCE_BOUND] < 0.2
