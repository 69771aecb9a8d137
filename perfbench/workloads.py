"""The batch workloads: inputs from a seed, one timed run, output checks.

Each workload splits into ``build`` (set-up: scenario or fleet
construction, after imports) and ``run`` (the fixed simulated work).
``run`` returns the outcome record the harness prints: the result
summary the output checks compare, the unit-of-work count the
end-to-end metrics are normalised by (device reports attempted, a model
output that any correct change keeps fixed), and the layer counters the
traced run reports.

Imports of ``repro`` happen inside the functions: this module is also
imported by the harness process, which never loads the simulator.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The default ``--seed``; output checks against recorded values run at it.
DEFAULT_SEED = 2021

FIFTY_YEAR_SCENARIO = "as-designed"
#: Committed golden summary of the as-designed run at the default seed.
FIFTY_YEAR_GOLDEN = os.path.join(
    "tests", "experiment", "golden", "as-designed_seed2021.json"
)

#: City fleet size: the 28-day cohort run takes about 10 s on a 2-CPU VM.
CITY_DEVICES = 20_000
CITY_DAYS = 28.0

MC_SCENARIO = "as-designed"
MC_YEARS = 8.0
MC_CADENCE_DAYS = 7.0
MC_RUNS = 48
MC_SHARDS = 2
MC_WORKERS = 2


def canonical_sha256(payload: object) -> str:
    """SHA-256 of a JSON value in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reports(snapshot, outcome: str) -> int:
    """Device-tier reports ``attempted`` or ``delivered`` in a snapshot."""
    return int(
        snapshot.counter_value(f"net_reports_{outcome}_total", tier="device")
    )


def layer_counters(snapshot) -> Dict[str, float]:
    """The simulation-side layer counters every batch workload reports."""
    attempted = reports(snapshot, "attempted")
    delivered = reports(snapshot, "delivered")
    return {
        "core.events_executed": int(
            snapshot.counter_value("sim_events_executed_total")
        ),
        "core.peak_pending_events": int(
            snapshot.gauge_value("sim_peak_pending_events")
        ),
        "net.reports_attempted": attempted,
        "net.reports_delivered": delivered,
        "net.delivery_ratio": delivered / attempted if attempted else 0.0,
        "faults.fired": int(snapshot.counter_value("faults_fired_total")),
        "faults.invariant_violations": int(
            snapshot.gauge_value("run_invariant_violations")
        ),
    }


# ---------------------------------------------------------------------------
# fifty-year
# ---------------------------------------------------------------------------
def fifty_year_build(seed: int, _workdir: str = ""):
    from repro.experiment.fifty_year import FiftyYearExperiment
    from repro.experiment.scenarios import scenario_config

    experiment = FiftyYearExperiment(scenario_config(FIFTY_YEAR_SCENARIO, seed))
    experiment.build()
    return experiment


def fifty_year_summary(result, sim) -> dict:
    """The result facts the golden fixture pins, field for field."""
    arms = {
        key: {
            "weekly_uptime": arm.weekly_uptime,
            "longest_gap_weeks": arm.longest_gap_weeks,
            "devices_alive_at_end": arm.devices_alive_at_end,
            "delivered": arm.delivered,
            "attempts": arm.attempts,
        }
        for key, arm in result.arms.items()
    }
    return {
        "overall_uptime": result.overall.uptime,
        "longest_gap_weeks": result.overall.longest_gap_weeks,
        "arms": arms,
        "gateway_replacements": result.gateway_replacements,
        "device_touches": result.device_touches,
        "wallet_spent": result.wallet.spent,
        "wallet_balance": result.wallet.balance,
        "wallet_refusals": result.wallet.refusals,
        "maintenance_hours": result.maintenance.total_hours(),
        "executed_events": sim.executed_events,
        "log_records": len(sim.log),
    }


def fifty_year_run(experiment) -> dict:
    result = experiment.run()
    summary = fifty_year_summary(result, experiment.sim)
    snapshot = experiment.sim.metrics.snapshot()
    return {
        "summary": summary,
        "ops": reports(snapshot, "attempted"),
        "layers": layer_counters(snapshot),
        "wallet_credits": experiment.config.wallet_credits,
    }


def fifty_year_failures(outcome: dict, seed: int, root: str) -> List[str]:
    summary = outcome["summary"]
    failures = []
    if seed == DEFAULT_SEED:
        with open(os.path.join(root, FIFTY_YEAR_GOLDEN)) as handle:
            golden = json.load(handle)["summary"]
        if json.loads(json.dumps(summary)) != golden:
            failures.append("summary differs from the golden fixture")
    for name, arm in summary["arms"].items():
        if not 0 <= arm["delivered"] <= arm["attempts"]:
            failures.append(f"arm {name}: delivered outside [0, attempts]")
        if not 0.0 <= arm["weekly_uptime"] <= 1.0:
            failures.append(f"arm {name}: uptime outside [0, 1]")
    if summary["device_touches"] != 0:
        failures.append("a deployed device was touched")
    if summary["wallet_spent"] + summary["wallet_balance"] != outcome[
        "wallet_credits"
    ]:
        failures.append("wallet spent + balance != credits bought")
    attempts = sum(arm["attempts"] for arm in summary["arms"].values())
    if attempts != outcome["ops"]:
        failures.append("arm attempts disagree with the metrics registry")
    return failures


# ---------------------------------------------------------------------------
# city-cohort
# ---------------------------------------------------------------------------
def city_build(seed: int, _workdir: str = ""):
    from repro.city.scenario import CityScaleConfig, CityScenario
    from repro.core import units

    return CityScenario(
        CityScaleConfig(
            seed=seed,
            device_count=CITY_DEVICES,
            horizon=units.days(CITY_DAYS),
            engine="cohort",
        )
    )


def city_run(city) -> dict:
    summary = city.run()
    snapshot = city.sim.metrics.snapshot()
    return {
        "summary": summary,
        "ops": reports(snapshot, "attempted"),
        "layers": layer_counters(snapshot),
    }


def city_failures(outcome: dict, seed: int, reference: dict) -> List[str]:
    s = outcome["summary"]
    failures = []
    if seed == DEFAULT_SEED and s != reference["city-cohort"]["summary"]:
        failures.append("summary differs from the recorded reference")
    dropped = s["energy_denied"] + s["no_gateway"] + s["radio_lost"]
    if s["attempts"] != s["delivered"] + dropped:
        failures.append("attempts != delivered + drops")
    if not s["delivered"] == s["gateway_received"] == s["gateway_forwarded"]:
        failures.append("gateway counts disagree with device deliveries")
    if not s["endpoint_delivered"] == s["total_deliveries"] == s["delivered"]:
        failures.append("endpoint deliveries disagree with the device tier")
    if sum(s["gap_buckets"]) > s["delivered"]:
        failures.append("more delivery gaps than deliveries")
    if s["attempts"] != outcome["ops"]:
        failures.append("summary attempts disagree with the registry")
    return failures


# ---------------------------------------------------------------------------
# mc-chaos
# ---------------------------------------------------------------------------
def mc_task():
    from repro.core import units
    from repro.faults.plans import pinned_chaos_plan
    from repro.runtime import ScenarioTask

    return ScenarioTask(
        scenario=MC_SCENARIO,
        horizon=units.years(MC_YEARS),
        report_interval=units.days(MC_CADENCE_DAYS),
        faults=pinned_chaos_plan(),
        audit=True,
    )


def mc_entries_bytes(study) -> bytes:
    """The study's canonical metrics JSONL (what ``mc --metrics`` writes)."""
    from repro.obs import snapshot_json
    from repro.runtime import study_metrics_entries

    per_run, merged = study_metrics_entries(study)
    return "".join(
        snapshot_json(snapshot, **meta) + "\n"
        for meta, snapshot in (*per_run, merged)
    ).encode("utf-8")


def mc_build(seed: int, workdir: str):
    return {"task": mc_task(), "seed": seed, "workdir": workdir}


def mc_run(plan: dict) -> dict:
    from repro.runtime import merge_shards, run_shard

    paths = []
    started = time.perf_counter()
    for shard in range(MC_SHARDS):
        path = os.path.join(plan["workdir"], f"shard-{shard}.mcr")
        run_shard(
            plan["task"], runs=MC_RUNS, base_seed=plan["seed"], shard=shard,
            nshards=MC_SHARDS, out_path=path, workers=MC_WORKERS,
        )
        paths.append(path)
    shards_s = time.perf_counter() - started
    started = time.perf_counter()
    study = merge_shards(paths)
    merge_s = time.perf_counter() - started
    shard_bytes = sum(os.path.getsize(path) for path in paths)
    for path in paths:
        os.remove(path)
    snapshot = study.merged_metrics()
    layers = layer_counters(snapshot)
    layers.update({
        "runtime.dispatch_overhead_s": shards_s * MC_WORKERS
        - sum(run.wall_clock_s for run in study.runs),
        "runtime.shard_bytes": shard_bytes,
        "runtime.merge_s": merge_s,
        "runtime.failed_runs": len(study.failures),
    })
    return {
        "summary": {
            "entries_sha256": hashlib.sha256(mc_entries_bytes(study)).hexdigest(),
            "runs": len(study.runs),
        },
        "ops": reports(snapshot, "attempted"),
        "layers": layers,
        "failed_runs": len(study.failures),
    }


def mc_reference(seed: int) -> dict:
    """The same study in-process at ``workers=1`` (not timed)."""
    from repro.runtime import MonteCarloRunner

    study = MonteCarloRunner(
        mc_task(), runs=MC_RUNS, base_seed=seed, workers=1
    ).run()
    return {
        "entries_sha256": hashlib.sha256(mc_entries_bytes(study)).hexdigest(),
        "runs": len(study.runs),
    }


def mc_failures(outcome: dict, reference: Optional[dict]) -> List[str]:
    """Checks on a merged study beyond its per-run failure records."""
    failures = []
    if outcome["layers"]["faults.invariant_violations"]:
        failures.append("the auditor collected invariant violations")
    if reference is not None and outcome["summary"] != reference:
        failures.append("merged metrics differ from the workers=1 study")
    return failures


# ---------------------------------------------------------------------------
# serve-mixed (the load itself is in serve_load.py)
# ---------------------------------------------------------------------------
def serve_reference(workdir: str) -> dict:
    """Offline bytes of every request in WORKDIR/payloads.json.

    Returns each body's SHA-256 by request key, and the simulation-layer
    counters summed over all the runs those requests execute.
    """
    from repro.obs import load_snapshot_line
    from repro.serve import parse_request
    from repro.serve.service import compute_response

    with open(os.path.join(workdir, "payloads.json")) as handle:
        payloads = json.load(handle)
    digests = {}
    merged = None
    for key, payload in sorted(payloads.items()):
        body = compute_response(parse_request(payload, "run"))
        digests[key] = hashlib.sha256(body).hexdigest()
        _meta, snapshot = load_snapshot_line(body.decode("utf-8"))
        merged = snapshot if merged is None else merged.merge(snapshot)
    return {"sha256": digests, "layers": layer_counters(merged)}


#: The ``repro`` modules each batch workload loads during set-up.
MODULES = {
    "fifty-year": ("repro.experiment.fifty_year", "repro.experiment.scenarios"),
    "city-cohort": ("repro.city.scenario",),
    "mc-chaos": ("repro.runtime", "repro.faults.plans", "repro.obs"),
}


def import_modules(name: str) -> None:
    """Load a workload's modules, so ``build`` times construction only."""
    for module in MODULES[name]:
        importlib.import_module(module)


#: name -> (build(seed, workdir), run(handle), build-time layer metric)
BATCH: Dict[str, Tuple[Callable, Callable, str]] = {
    "fifty-year": (fifty_year_build, fifty_year_run, "experiment.build_s"),
    "city-cohort": (city_build, city_run, "city.build_s"),
    "mc-chaos": (mc_build, mc_run, ""),
}
