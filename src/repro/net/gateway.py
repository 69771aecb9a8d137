"""Gateways: the translation layer between device radios and the backhaul.

Per §3.2's takeaways, a gateway "should primarily act only as a router":
``Gateway.receive`` checks a blocklist and forwards up the dependency
DAG, deferring all decision-making to the backend.  What it routes is a
report reduced to ``(source, credit_units)`` — no frame object is built
on the way from device to endpoint.  The stateful
alternative (per-device connection keys, closed-loop control) is
represented by :class:`~repro.core.policy.GatewayRole` and shows up as a
commissioning cost when gateways are replaced.

``OwnedGateway`` is the paper's Raspberry-Pi-class, campus-backhauled
unit — it fails per the platform reliability model and may be maintained.
``ThirdPartyGateway`` is a hotspot someone else operates (the Helium
case) — it *churns*: its owner may unplug it at any time.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.engine import Simulation
from ..core.entity import Entity, EntityState
from ..core.policy import GatewayRole
from ..radio.link import PathLossModel, RadioSpec
from .geometry import ORIGIN, Position

_ACTIVE = EntityState.ACTIVE


class Gateway(Entity):
    """Base gateway: radio endpoint + packet router.

    ``technology`` must match the transmitting device's radio for a
    packet to be heard at all.  ``spec``/``path_loss`` define the uplink
    the device sees towards this gateway.
    """

    TIER = "gateway"

    def __init__(
        self,
        sim: Simulation,
        technology: str,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        role: GatewayRole = GatewayRole.ROUTER_ONLY,
    ) -> None:
        super().__init__(sim, name)
        self.technology = technology
        self.spec = spec
        self.path_loss = path_loss
        self.position = position
        self.role = role
        self.blocklist: Set[str] = set()
        # Per-hop packet accounting in the run's metrics registry; the
        # legacy attribute names remain as read/write properties below,
        # and the invariant auditor's link-conservation check reads the
        # same instruments the forwarding path writes.
        metrics = sim.metrics
        self._c_received = metrics.counter(
            "net_packets_received_total", tier=self.TIER, entity=self.name
        )
        self._c_forwarded = metrics.counter(
            "net_packets_forwarded_total", tier=self.TIER, entity=self.name
        )
        self._c_drop_blocklist = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="blocklist",
        )
        self._c_drop_backhaul = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="backhaul",
        )
        self._c_drop_endpoint = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="endpoint",
        )

    def block(self, device_name: str) -> None:
        """Add a known-bad device to the forwarding blocklist (§3.2)."""
        self.blocklist.add(device_name)

    def unblock(self, device_name: str) -> None:
        """Remove a device from the blocklist."""
        self.blocklist.discard(device_name)

    def hears(self) -> bool:
        """True if the gateway can currently receive radio traffic.

        The report loops of :class:`~repro.net.device.EdgeDevice` and
        :class:`~repro.net.cohort.DeviceCohort` inline this same test
        (``state is ACTIVE`` and no forced degradation) on the few links
        they actually try; keep the two in step.
        """
        return self.state is _ACTIVE and self.forced_degradations == 0

    def receive(self, source: str, credit_units: int) -> bool:
        """Accept a radio-decoded report from ``source`` and forward it.

        Returns True iff the report reached a recording endpoint.  Drop
        reasons are counted for the benchmarks' loss breakdowns.
        ``credit_units`` is what the report costs on a paid network;
        owned gateways carry it for free.
        """
        if self.state is not _ACTIVE or self.forced_degradations:
            return False
        return self._route(source)

    def _route(self, source: str) -> bool:
        self._c_received.value += 1
        if source in self.blocklist:
            self._c_drop_blocklist.value += 1
            return False
        for backhaul in self.depends_on:
            carries = getattr(backhaul, "carries_traffic", None)
            if carries is None or not carries():
                continue
            for endpoint in backhaul.depends_on:
                deliver = getattr(endpoint, "deliver", None)
                if deliver is None:
                    continue
                if deliver(source, self.name, backhaul.name):
                    self._c_forwarded.value += 1
                    return True
                self._c_drop_endpoint.value += 1
                return False
        self._c_drop_backhaul.value += 1
        return False

    # Compatibility views over the registry-backed counters (setters for
    # corruption-injection tests; reads and writes share one instrument).
    @property
    def packets_received(self) -> int:
        """Radio-decoded packets accepted (registry-backed)."""
        return self._c_received.value

    @packets_received.setter
    def packets_received(self, value: int) -> None:
        self._c_received.value = value

    @property
    def packets_forwarded(self) -> int:
        """Packets that reached a recording endpoint (registry-backed)."""
        return self._c_forwarded.value

    @packets_forwarded.setter
    def packets_forwarded(self, value: int) -> None:
        self._c_forwarded.value = value

    @property
    def drops_blocklist(self) -> int:
        """Packets refused by the forwarding blocklist (registry-backed)."""
        return self._c_drop_blocklist.value

    @drops_blocklist.setter
    def drops_blocklist(self, value: int) -> None:
        self._c_drop_blocklist.value = value

    @property
    def drops_backhaul(self) -> int:
        """Packets lost to a down backhaul (registry-backed)."""
        return self._c_drop_backhaul.value

    @drops_backhaul.setter
    def drops_backhaul(self, value: int) -> None:
        self._c_drop_backhaul.value = value

    @property
    def drops_endpoint(self) -> int:
        """Packets refused by a dark endpoint (registry-backed)."""
        return self._c_drop_endpoint.value

    @drops_endpoint.setter
    def drops_endpoint(self, value: int) -> None:
        self._c_drop_endpoint.value = value

    def commissioning_hours(self) -> float:
        """Labor to stand up a replacement for this gateway.

        Router-only gateways commission in an hour; stateful controllers
        must re-key every dependent device (§3.2's traffic-light case),
        which scales with attachment count.
        """
        base = 1.0
        if self.role is GatewayRole.ROUTER_ONLY:
            return base
        return base + 0.25 * len(self.dependents)


class OwnedGateway(Gateway):
    """A self-deployed, self-maintained 802.15.4 gateway (§4.2 case 1).

    Aggressively firewalled for the transmit-only application, so the
    security risk of unattended operation is bounded; reliability is the
    Raspberry-Pi-class platform model.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        role: GatewayRole = GatewayRole.ROUTER_ONLY,
    ) -> None:
        super().__init__(
            sim,
            technology="802.15.4",
            spec=spec,
            path_loss=path_loss,
            position=position,
            name=name,
            role=role,
        )


class ThirdPartyGateway(Gateway):
    """Someone else's hotspot ferrying our data for pay (§4.2 case 2).

    ``departs_at`` is the owner-churn time: the hotspot simply goes away
    (owner moved, mining stopped paying, hardware bricked).  No
    maintenance is possible — we don't own it.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        departs_at: Optional[float] = None,
        asn: Optional[int] = None,
    ) -> None:
        super().__init__(
            sim,
            technology="lora",
            spec=spec,
            path_loss=path_loss,
            position=position,
            name=name,
            role=GatewayRole.ROUTER_ONLY,
        )
        self.departs_at = departs_at
        self.asn = asn
        #: Optional payment hook: any object with ``debit(credits) -> bool``.
        #: Set by :class:`~repro.net.helium.HeliumNetwork` so forwarding is
        #: refused once the prepaid wallet runs dry.
        self.wallet = None
        self._c_drop_unpaid = sim.metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="unpaid",
        )
        if asn is not None:
            self.tags["asn"] = str(asn)

    @property
    def drops_unpaid(self) -> int:
        """Packets refused because the prepaid wallet was dry (registry-backed)."""
        return self._c_drop_unpaid.value

    @drops_unpaid.setter
    def drops_unpaid(self, value: int) -> None:
        self._c_drop_unpaid.value = value

    def receive(self, source: str, credit_units: int) -> bool:
        if self.state is not _ACTIVE or self.forced_degradations:
            return False
        if self.wallet is not None and not self.wallet.debit(credit_units):
            self._c_drop_unpaid.value += 1
            return False
        return self._route(source)

    def on_deploy(self) -> None:
        if self.departs_at is not None:
            when = max(self.departs_at, self.sim.now)
            self.sim.call_at(when, self._depart, label=f"churn:{self.name}")

    def _depart(self) -> None:
        if self.alive:
            self.retire(reason="owner-churn")


def migrate_devices(
    outgoing: Gateway, incoming: Gateway, rehome_allowed: bool = True
) -> List[Entity]:
    """Move ``outgoing``'s dependents to ``incoming`` (§3.2 commissioning).

    Models the outgoing gateway acting as a trusted third party for
    migration.  If ``rehome_allowed`` is False (instance-bound devices),
    nothing migrates and the devices are stranded.  Returns the migrated
    devices.
    """
    if not rehome_allowed:
        return []
    migrated = []
    for device in list(outgoing.dependents):
        device.remove_dependency(outgoing)
        device.add_dependency(incoming)
        migrated.append(device)
    return migrated
