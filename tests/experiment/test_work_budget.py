"""Work budget of the report path: exact profiler call counts.

Wall time depends on the machine; the number of Python-level calls a
fixed simulation makes does not.  A 2-year ``as-designed`` run (seed
2021) is profiled in a fresh interpreter, so lazily imported modules
execute in the same place whatever ran before in this process, and the
calls landing in ``repro.net`` and ``repro.radio`` are compared with the
committed budget below.

A change that moves either number must update it here and say why in
CHANGES.md: a rise is extra per-report work, a fall should be claimed.
"""

import json
import os
import subprocess
import sys

#: Calls per package for the run below.  Before the lean report path
#: (link table, packet-free delivery, aggregate-only endpoint) these
#: were net 520,455 and radio 356,881.
BUDGET = {"net": 289_080, "radio": 47_602}

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


def profiled_calls(packages):
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, "-c", PROFILE_RUN, *packages],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def test_report_path_call_counts_match_budget():
    assert profiled_calls(sorted(BUDGET)) == BUDGET
