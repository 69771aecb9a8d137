"""Work budgets: exact profiler call counts.

Wall time depends on the machine; the number of Python-level calls a
fixed simulation makes does not.  Each run below is profiled in a fresh
interpreter, so lazily imported modules execute in the same place
whatever ran before in this process, and its counts are compared with
the committed budgets:

* a 2-year ``as-designed`` run (seed 2021): the calls landing in
  ``repro.net`` and ``repro.radio``;
* a 2-run, 8-year ``as-designed`` study under the ten-fault chaos plan
  with the auditor collecting (seed 2021): the ``nearest_hearing``
  queries the gateway indexes answer.

A change that moves a number must update it here and say why in
CHANGES.md: a rise is extra work, a fall should be claimed.
"""

import json
import os
import subprocess
import sys

#: Calls per package for the run below.  Before the lean report path
#: (link table, packet-free delivery, aggregate-only endpoint) these
#: were net 520,455 and radio 356,881; before scoped candidate reuse
#: (GatewayIndex.still_nearest) net 289,080 and radio 47,602.
BUDGET = {"net": 247_139, "radio": 45_448}

#: ``nearest_hearing`` queries in the chaos study below.  Before scoped
#: candidate reuse, when every topology change re-queried every device
#: that reported next (and every audit re-queried every current cache),
#: it made 2,528.
CHAOS_QUERIES = 330

PROFILE_RUN = """
import cProfile, json, os, pstats, sys
from repro.core import units
from repro.experiment import FiftyYearExperiment
from repro.experiment.scenarios import scenario_config

experiment = FiftyYearExperiment(
    scenario_config("as-designed", 2021, horizon=units.years(2.0))
)
profile = cProfile.Profile()
profile.enable()
experiment.run()
profile.disable()
counts = dict.fromkeys(sys.argv[1:], 0)
for (filename, _, name), (_, calls, _, _, _) in pstats.Stats(profile).stats.items():
    if name in ("<listcomp>", "<dictcomp>", "<setcomp>"):
        continue  # inlined from Python 3.12 on (PEP 709): not a call there
    for package in counts:
        if os.sep + os.path.join("repro", package) + os.sep in filename:
            counts[package] += calls
print(json.dumps(counts))
"""


CHAOS_RUN = """
import cProfile, pstats
from repro.core import units
from repro.faults.plans import pinned_chaos_plan
from repro.runtime import MonteCarloRunner, ScenarioTask

task = ScenarioTask(
    scenario="as-designed",
    horizon=units.years(8.0),
    report_interval=units.days(7.0),
    faults=pinned_chaos_plan(),
    audit=True,
)
profile = cProfile.Profile()
profile.enable()
MonteCarloRunner(task, runs=2, base_seed=2021, workers=1).run()
profile.disable()
print(sum(
    calls
    for (filename, _, name), (_, calls, _, _, _) in pstats.Stats(profile).stats.items()
    if name == "nearest_hearing" and filename.endswith("topology.py")
))
"""


def run_fresh(code, *args):
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def test_report_path_call_counts_match_budget():
    assert run_fresh(PROFILE_RUN, *sorted(BUDGET)) == BUDGET


def test_chaos_study_nearest_hearing_queries():
    assert run_fresh(CHAOS_RUN) == CHAOS_QUERIES
