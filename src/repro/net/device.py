"""Edge devices: energy-harvesting, transmit-only sensors (§4.1).

An ``EdgeDevice`` wakes on its reporting interval, pays the energy cost
of one duty cycle, and blurts a report at every reachable gateway of its
radio technology until one decodes it.  It is incapable of receiving —
minimal security risk, limited longitudinal trust, and no dependence on
any *specific* gateway instance (when its attachment policy allows).

Device hardware failure is a component-level competing-risks process
armed at deployment.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..core.engine import PeriodicTask, Simulation
from ..core.entity import Entity, EntityState
from ..core.policy import AttachmentPolicy
from ..energy.harvester import HarvestingSystem
from ..radio.link import RadioSpec, link_trial
from ..radio.packets import credit_units
from ..reliability.distributions import LifetimeDistribution
from ..reliability.failure import FailureProcess
from .gateway import Gateway
from .geometry import ORIGIN, Position

#: A broadcast is heard (or not) by everything in range at once; trying
#: the four best live links covers any realistic decode set.  Shared by
#: the per-entity duty cycle, the spatial-index candidate query, and the
#: cohort-batched path, so all three try identical link sequences.
MAX_LINKS_TRIED = 4

_ACTIVE = EntityState.ACTIVE


class EdgeDevice(Entity):
    """A transmit-only monitoring sensor.

    Parameters
    ----------
    technology:
        Radio family, must match candidate gateways ("802.15.4"/"lora").
    spec:
        Uplink radio parameters.
    airtime_s:
        Time on air for this device's frame (from the PHY model).
    report_interval:
        Seconds between scheduled transmissions.
    payload_bytes:
        Size of one report; fixes ``credit_units``, what a report costs
        on a paid network.
    power:
        Harvesting system, or None for an always-powered node (the
        energy constraint is then skipped; hardware lifetime still
        applies via ``lifetime_model``).
    lifetime_model:
        Component-level competing-risks model armed at deployment; None
        disables hardware failure (useful in unit tests).
    attachment:
        Whether the device may use any compatible gateway or is bound to
        its first.
    """

    TIER = "device"

    def __init__(
        self,
        sim: Simulation,
        technology: str,
        spec: RadioSpec,
        airtime_s: float,
        report_interval: float,
        payload_bytes: int = 24,
        position: Position = ORIGIN,
        power: Optional[HarvestingSystem] = None,
        lifetime_model: Optional[LifetimeDistribution] = None,
        attachment: AttachmentPolicy = AttachmentPolicy.ANY_COMPATIBLE,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        if report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if airtime_s <= 0.0:
            raise ValueError("airtime_s must be positive")
        self.technology = technology
        self.spec = spec
        self.airtime_s = airtime_s
        self.report_interval = report_interval
        self.payload_bytes = payload_bytes
        self.position = position
        self.power = power
        self.lifetime_model = lifetime_model
        self.attachment = attachment
        #: What one report costs on a paid network, fixed by the payload.
        self.credit_units = credit_units(payload_bytes)

        #: Cached nearest-first candidate list, current at
        #: ``_candidate_version`` (the simulation's ``topology_version``,
        #: bumped by every entity lifecycle transition and dependency
        #: rewiring).  On a version move it is kept if the reuse rule
        #: still accepts it (see :meth:`candidate_gateways`).
        self._candidate_cache: Optional[List[Gateway]] = None
        self._candidate_version: int = -1
        #: What the cache was built from: the dependency list, and the
        #: index's nearest-hearing answer with the index generation it
        #: is exact at.
        self._cached_deps: List[Entity] = []
        self._nearest: List[Gateway] = []
        self._nearest_generation: int = 0
        #: The link table, rebuilt with the candidate cache: one
        #: ``(gateway, mean_loss_db, shadowing_sigma_db)`` per candidate,
        #: in candidate order.  Exact, not approximate: the mean loss is
        #: a function of the two positions, this device's frequency and
        #: the gateway's path-loss model, and all four are fixed at
        #: construction.
        self._links: List[Tuple[Gateway, float, float]] = []
        # The duty cycle's named streams, resolved once (streams are
        # seeded by name alone, so when they are created never matters).
        self._radio_rng = sim.rng("radio")
        self._sensing_rng = sim.rng("sensing")
        self._energy_rng = sim.rng("energy")

        #: Optional spatial discovery: a
        #: :class:`~repro.net.topology.GatewayIndex` answering
        #: nearest-hearing queries.  When set, transmissions consider
        #: these gateways in addition to static ``depends_on`` links —
        #: the device relies on *properties* of infrastructure, not
        #: specific instances.
        self.gateway_index = None

        # Duty-cycle accounting lives in the run's metrics registry —
        # one labelled instrument per outcome, registered once here and
        # bumped by direct reference in the warm path.  The legacy
        # attribute names remain as read/write properties below.
        metrics = sim.metrics
        self._c_attempts = metrics.counter(
            "net_reports_attempted_total", tier=self.TIER, entity=self.name
        )
        self._c_delivered = metrics.counter(
            "net_reports_delivered_total", tier=self.TIER, entity=self.name
        )
        self._c_energy_denied = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="energy",
        )
        self._c_no_gateway = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="no-gateway",
        )
        self._c_radio_lost = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="radio",
        )
        self._task: Optional[PeriodicTask] = None
        self._failure: Optional[FailureProcess] = None
        self._last_energy_step: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_deploy(self) -> None:
        self._last_energy_step = self.sim.now
        if self.lifetime_model is not None:
            self._failure = FailureProcess(
                self.sim, self, self.lifetime_model, stream="device-hw"
            )
            self._failure.arm()
        self._task = self.sim.every(
            self.report_interval, self._report, label=f"report:{self.name}"
        )

    def on_end(self, reason: str) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
        if self._failure is not None:
            self._failure.disarm()
            self._failure = None

    # ------------------------------------------------------------------
    # The duty cycle
    # ------------------------------------------------------------------
    @property
    def gateway_index(self):
        """The spatial-discovery index (see ``__init__``), or None."""
        return self._gateway_index

    @gateway_index.setter
    def gateway_index(self, index) -> None:
        self._gateway_index = index
        self._candidate_cache = None

    def candidate_gateways(self) -> List[Gateway]:
        """Gateways this device may try, ordered nearest-first.

        Instance-bound devices only ever try their *literal first*
        dependency — the §3.1 anti-pattern whose cost the policy
        ablation measures.  The binding is to the commissioned instance
        itself: if that dependency is incompatible or not a gateway at
        all, the device is stranded rather than silently rebound to a
        later dependency.

        Other devices add the ``MAX_LINKS_TRIED`` nearest gateways their
        ``gateway_index`` reports able to hear.  Because ``hears()``
        only flips on version-bumping transitions and :meth:`_report`
        both skips non-hearing candidates and stops after
        ``MAX_LINKS_TRIED`` hearing links, the tried-link sequence is
        identical to trying every live gateway nearest-first.

        The list is cached.  When the simulation's topology version
        moves, the cache is kept if ``depends_on`` is unchanged and the
        index's :meth:`~repro.net.topology.GatewayIndex.still_nearest`
        accepts the cached nearest-hearing answer; otherwise it is
        rebuilt.  Either way it is exact, not approximate.  Entries may
        since have died — callers must check :meth:`Gateway.hears` on
        the links they actually try.
        """
        version = self.sim.topology_version
        if self._candidate_version == version and self._candidate_cache is not None:
            return self._candidate_cache
        if self.reusable_cache() is None:
            nearest = self._nearest_now()
            gateways = self._merge(nearest)
            position = self.position
            frequency_hz = self.spec.frequency_hz
            links = []
            for g in gateways:
                model = g.path_loss
                distance = max(position.distance_to(g.position), 1.0)
                links.append(
                    (g, model.mean_loss_db(distance, frequency_hz), model.shadowing_sigma_db)
                )
            self._candidate_cache = gateways
            self._links = links
            self._cached_deps = list(self.depends_on)
            self._nearest = nearest
        index = self._discovery()
        if index is not None:
            self._nearest_generation = index.generation
        self._candidate_version = version
        return self._candidate_cache

    def reusable_cache(self) -> Optional[List[Gateway]]:
        """The cached candidates if current or still exact, else None.

        Applies the reuse rule of :meth:`candidate_gateways` without
        changing anything on this device.
        """
        cached = self._candidate_cache
        if cached is None or self._candidate_version == self.sim.topology_version:
            return cached
        if self.depends_on != self._cached_deps:
            return None
        index = self._discovery()
        if index is not None and not index.still_nearest(
            self._nearest, self._nearest_generation, self.position, MAX_LINKS_TRIED
        ):
            return None
        return cached

    def fresh_candidates(self) -> List[Gateway]:
        """The candidate list recomputed from scratch, cache untouched."""
        return self._merge(self._nearest_now())

    def _discovery(self):
        """The index this device discovers gateways through, or None."""
        if self.attachment is AttachmentPolicy.INSTANCE_BOUND:
            return None
        return self._gateway_index

    def _nearest_now(self) -> List[Gateway]:
        """The index's current nearest-hearing answer ([] without one)."""
        index = self._discovery()
        if index is None:
            return []
        return index.nearest_hearing(self.position, MAX_LINKS_TRIED)

    def _merge(self, nearest: List[Gateway]) -> List[Gateway]:
        """Dependencies plus ``nearest``: compatible, deduplicated, nearest-first."""
        candidates = list(self.depends_on)
        if self.attachment is AttachmentPolicy.INSTANCE_BOUND:
            candidates = candidates[:1]
        candidates.extend(nearest)
        seen = set()
        gateways = []
        technology = self.technology
        for g in candidates:
            if not isinstance(g, Gateway) or g.technology != technology:
                continue
            if id(g) in seen:
                continue
            seen.add(id(g))
            gateways.append(g)
        position = self.position
        gateways.sort(key=lambda g: position.distance_sq_to(g.position))
        return gateways

    def _report(self) -> None:
        if self.state is not _ACTIVE or self.forced_degradations:
            return  # dead, or muted by an injected degrade window
        self._c_attempts.value += 1
        power = self.power
        if power is not None:
            now = self.sim.now
            power.step(now - self._last_energy_step, self._energy_rng)
            self._last_energy_step = now
            if not power.try_transmit(self.airtime_s):
                self._c_energy_denied.value += 1
                return
        # The reading goes nowhere (delivery is packet-free), but its
        # draw stays: the "sensing" stream keeps its place in every run.
        self._sensing_rng.normal(1.0, 0.05)
        if self._candidate_version != self.sim.topology_version:
            self.candidate_gateways()
        rng = self._radio_rng
        spec = self.spec
        # A broadcast is heard (or not) by everything in range at once;
        # trying the four best live links covers any realistic decode
        # set.  Liveness (Gateway.hears, inlined) is checked lazily on
        # the links actually tried, never on the whole table.
        tried = 0
        for gateway, mean_loss_db, sigma_db in self._links:
            if gateway.state is not _ACTIVE or gateway.forced_degradations:
                continue
            tried += 1
            if link_trial(spec, mean_loss_db, sigma_db, rng):
                if gateway.receive(self.name, self.credit_units):
                    self._c_delivered.value += 1
                return
            if tried == MAX_LINKS_TRIED:
                break
        if tried == 0:
            self._c_no_gateway.value += 1
        else:
            self._c_radio_lost.value += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    # Compatibility views over the registry-backed counters.  Setters
    # exist because corruption-injection tests (and any legacy caller)
    # assign these directly; the write lands in the same instrument the
    # duty cycle bumps, so there is exactly one source of truth.
    @property
    def attempts(self) -> int:
        """Scheduled reports attempted (registry-backed)."""
        return self._c_attempts.value

    @attempts.setter
    def attempts(self, value: int) -> None:
        self._c_attempts.value = value

    @property
    def delivered(self) -> int:
        """Reports that reached a recording endpoint (registry-backed)."""
        return self._c_delivered.value

    @delivered.setter
    def delivered(self, value: int) -> None:
        self._c_delivered.value = value

    @property
    def energy_denied(self) -> int:
        """Reports skipped for lack of harvested energy (registry-backed)."""
        return self._c_energy_denied.value

    @energy_denied.setter
    def energy_denied(self, value: int) -> None:
        self._c_energy_denied.value = value

    @property
    def no_gateway(self) -> int:
        """Reports with no live compatible gateway in range (registry-backed)."""
        return self._c_no_gateway.value

    @no_gateway.setter
    def no_gateway(self, value: int) -> None:
        self._c_no_gateway.value = value

    @property
    def radio_lost(self) -> int:
        """Reports lost on the radio link (registry-backed)."""
        return self._c_radio_lost.value

    @radio_lost.setter
    def radio_lost(self, value: int) -> None:
        self._c_radio_lost.value = value

    @property
    def delivery_rate(self) -> float:
        """Fraction of scheduled reports that reached the backend.

        NaN before the first attempt: a device that was never scheduled
        is not a device that always failed, and folding 0.0 into a
        fleet mean would penalise late-deployed cohorts.  Aggregators
        must skip NaN entries (``math.isnan``).
        """
        if self.attempts == 0:
            return math.nan
        return self.delivered / self.attempts

    def loss_breakdown(self) -> dict:
        """Counts by loss cause, for the experiment diary."""
        return {
            "attempts": self.attempts,
            "delivered": self.delivered,
            "energy_denied": self.energy_denied,
            "no_gateway": self.no_gateway,
            "radio_lost": self.radio_lost,
        }
