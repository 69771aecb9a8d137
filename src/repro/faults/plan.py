"""Fault plans, the run-time controller, and the JSON plan format.

A :class:`FaultPlan` is a named, frozen bundle of
:class:`~repro.faults.spec.FaultSpec` instances.  Installing it against
a :class:`~repro.core.engine.Simulation` (via
:meth:`~repro.core.engine.Simulation.install_faults`) creates — or
extends — the run's single :class:`FaultController`, which:

* schedules every spec as ordinary engine events (labelled
  ``fault:<spec key>`` / ``restore:<spec key>``), so injected faults
  execute in the same deterministic ``(time, priority, sequence)``
  order as everything else;
* hands each spec its own named RNG stream (``faults:<spec key>``) for
  randomized targeting, so composition order and worker count cannot
  change a draw;
* keeps the executed *fault event stream* — an ordered record of every
  fault action that actually fired, with sim-time and target names —
  which the property suite compares across worker counts;
* tracks maintenance *no-show windows* that the repair paths
  (:mod:`repro.reliability.failure`, the fifty-year experiment's
  gateway replacement) consult through ``sim.fault_controller``.

JSON plan format (version 1)::

    {
      "version": 1,
      "name": "ten-fault-chaos",
      "faults": [
        {"kind": "kill", "at_years": 5, "select": {"by": "tier", "tier": "gateway"}},
        {"kind": "wallet-drain", "at_years": 12, "fraction": 0.5}
      ]
    }

Time fields take exactly one unit suffix (``_s``, ``_hours``, ``_days``,
``_years``); everything else mirrors each spec's ``to_dict`` output.
Malformed plans raise :class:`FaultPlanError` with the offending fault's
index in the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Tuple

from .spec import SPEC_KINDS, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.engine import Simulation

#: The JSON plan format version this module reads and writes.
PLAN_FORMAT_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad JSON shape, kind, field, or dup)."""


#: One executed fault action: (sim time, spec key, action, target names).
FaultRecord = Tuple[float, str, str, Tuple[str, ...]]


class FaultController:
    """The per-run fault machinery shared by every installed plan.

    Exactly one controller exists per simulation (``sim.fault_controller``);
    installing a second plan extends it.  All state that tests compare —
    the executed fault stream, the injected/fired counters — lives here.
    """

    #: Actions that undo an earlier injection rather than cause harm —
    #: counted separately as ``faults_restored_total``.
    RESTORE_ACTIONS = frozenset({"restore", "flap-up", "custodian-return"})

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        #: Spec key -> spec, across every installed plan.
        self.specs: Dict[str, FaultSpec] = {}
        #: Names of installed plans, in install order (diagnostics only).
        self.plan_names: List[str] = []
        #: Ordered record of every fault action that fired.
        self.events: List[FaultRecord] = []
        #: Half-open maintenance no-show windows, as (start, end).
        self.no_show_windows: List[Tuple[float, float]] = []

    # -- plumbing used by specs ----------------------------------------
    def schedule(
        self,
        spec: FaultSpec,
        when: float,
        callback: Callable[[], None],
        prefix: str = "fault",
    ) -> None:
        """Schedule one engine event for ``spec`` (clamped to now)."""
        self.sim.metrics.counter("faults_injected_total", spec=spec.key()).value += 1
        self.sim.call_at(
            max(when, self.sim.now), callback, label=f"{prefix}:{spec.key()}"
        )

    def stream_for(self, spec: FaultSpec):
        """The spec's private RNG stream, named by its content key."""
        return self.sim.rng(f"faults:{spec.key()}")

    def note(self, spec: FaultSpec, action: str, targets: List[str]) -> None:
        """Append one record to the executed fault stream.

        Also bumps the per-spec fired counter (and, for restore-family
        actions, the restored counter) in the run's metrics registry —
        fault scheduling is cold path, so the registry lookup per action
        is fine here, unlike the per-event hot path.
        """
        key = spec.key()
        self.events.append((self.sim.now, key, action, tuple(targets)))
        metrics = self.sim.metrics
        metrics.counter("faults_fired_total", spec=key).value += 1
        if action in self.RESTORE_ACTIONS:
            metrics.counter("faults_restored_total", spec=key).value += 1

    # -- maintenance no-show windows -----------------------------------
    def add_no_show_window(self, start: float, end: float) -> None:
        if end <= start:
            raise FaultPlanError(
                f"no-show window must have end > start, got [{start}, {end})"
            )
        self.no_show_windows.append((start, end))

    def maintenance_suppressed(self, now: float) -> bool:
        """True if a repair visit attempted at ``now`` finds nobody home."""
        return any(start <= now < end for start, end in self.no_show_windows)

    def suppression_ends(self, now: float) -> float:
        """When the currently-open no-show window(s) close.

        Only meaningful while :meth:`maintenance_suppressed` is True;
        returns ``now`` otherwise so a caller retrying at the returned
        time can never schedule into the past.
        """
        active = [end for start, end in self.no_show_windows if start <= now < end]
        return max(active) if active else now

    # -- reporting ------------------------------------------------------
    @property
    def injected(self) -> int:
        """Engine events scheduled on behalf of specs (registry-backed)."""
        return int(self.sim.metrics.total("faults_injected_total"))

    @property
    def fired(self) -> int:
        """Fault actions that actually executed.

        Reads the registry total, which equals ``len(self.events)`` by
        construction — :meth:`note` writes both in lockstep.
        """
        return int(self.sim.metrics.total("faults_fired_total"))

    def stream_tuple(self) -> Tuple[FaultRecord, ...]:
        """The executed fault stream as an immutable, picklable tuple."""
        return tuple(self.events)

    def summary(self) -> dict:
        """Counters for run summaries and the CLI."""
        return {
            "plans": list(self.plan_names),
            "specs": len(self.specs),
            "injected": self.injected,
            "fired": self.fired,
        }

    # -- installation ---------------------------------------------------
    def install(self, plan: "FaultPlan") -> None:
        for spec in plan.specs:
            key = spec.key()
            if key in self.specs:
                raise FaultPlanError(
                    f"duplicate fault spec {key!r}: already installed "
                    f"(identical specs would share one RNG stream)"
                )
            self.specs[key] = spec
            spec.schedule(self.sim, self)
        self.plan_names.append(plan.name)


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable bundle of fault specs.

    Plans are picklable (they cross process boundaries inside
    :class:`~repro.runtime.runner.ScenarioTask`) and composable:
    ``plan_a + plan_b`` concatenates the spec tuples, and installing two
    plans separately is equivalent to installing their sum — spec RNG
    streams are content-named, so order cannot matter.
    """

    name: str = "faults"
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            key = spec.key()
            if key in seen:
                raise FaultPlanError(f"duplicate fault spec in plan: {key!r}")
            seen.add(key)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(
            name=f"{self.name}+{other.name}", specs=self.specs + other.specs
        )

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def delivery_gating(self) -> bool:
        """True if *every* spec only gates delivery (never shifts a draw
        in a shared RNG stream) — the precondition for the exact
        per-seed uptime-monotonicity property."""
        return all(spec.delivery_gating for spec in self.specs)

    def install(self, sim: "Simulation") -> FaultController:
        """Compile this plan into scheduled events on ``sim``."""
        controller = sim.fault_controller
        if controller is None:
            controller = FaultController(sim)
            sim.fault_controller = controller
        controller.install(self)
        return controller

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": PLAN_FORMAT_VERSION,
            "name": self.name,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"plan must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != PLAN_FORMAT_VERSION:
            raise FaultPlanError(
                f"unsupported plan version {version!r} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        raw_faults = payload.get("faults")
        if not isinstance(raw_faults, list):
            raise FaultPlanError("plan needs a 'faults' array")
        specs = []
        for index, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"fault #{index} must be an object")
            kind = raw.get("kind")
            spec_cls = SPEC_KINDS.get(kind)
            if spec_cls is None:
                raise FaultPlanError(
                    f"fault #{index}: unknown kind {kind!r} "
                    f"(options: {sorted(SPEC_KINDS)})"
                )
            try:
                specs.append(spec_cls.from_dict(raw))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                # AttributeError: a nested object given as another JSON
                # type (a list where a selector object belongs).
                raise FaultPlanError(f"fault #{index} ({kind}): {exc}") from exc
        try:
            return cls(
                name=str(payload.get("name", "faults")), specs=tuple(specs)
            )
        except FaultPlanError as exc:
            raise FaultPlanError(str(exc)) from exc


def load_plan(path: str) -> FaultPlan:
    """Read a version-1 JSON fault plan from ``path``.

    Raises :class:`FaultPlanError` on malformed content (including
    invalid JSON), with enough context to find the offending fault.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: invalid JSON: {exc}") from exc
    return FaultPlan.from_dict(payload)


def fault_stream_to_json(stream: Iterable[FaultRecord]) -> list:
    """Project an executed fault stream into JSON-ready lists.

    Shard artifacts carry each run's fault stream across process and
    host boundaries; ``json`` round-trips floats via shortest-repr, so
    the reconstructed stream is bit-identical to the executed one.
    """
    return [
        [time_s, key, action, list(targets)]
        for time_s, key, action, targets in stream
    ]


def fault_stream_from_json(payload: Iterable) -> Tuple[FaultRecord, ...]:
    """Rebuild an executed fault stream from its JSON projection."""
    return tuple(
        (
            float(time_s),
            str(key),
            str(action),
            tuple(str(name) for name in targets),
        )
        for time_s, key, action, targets in payload
    )
