"""The request path loads numpy only: no scipy, no networkx.

scipy backs the analysis helpers (``chi_square_test``, ``certify_run``,
``fidelity_mixed_mixed``) and networkx backs only ``star_graph``; each
loads inside the one function that uses it.  Likewise :mod:`repro.core`
never loads the layers above it: the count-class kernel it runs on
lives in :mod:`repro.qsim.classvector`, not in :mod:`repro.batch`.  The
checks run in a fresh interpreter, because this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Import the front door, then serve one spec ``repro.sample``, one
#: in-process ``repro.serve`` and one live snapshot through
#: ``repro.serve(shards=2)``; print the scipy/networkx modules loaded.
FRONT_DOOR = """
import json, sys

import repro, repro.api, repro.batch, repro.serve, repro.serve.shard
from repro.analysis import InstanceSpec
from repro.database import WorkloadSpec, random_update_stream, round_robin, uniform_dataset

spec = InstanceSpec(workload=WorkloadSpec.of("zipf", universe=64, total=24), n_machines=2)
assert repro.sample(repro.SamplingRequest(spec=spec, seed=1)).exact
served = repro.serve([repro.SamplingRequest(spec=spec, include_probabilities=False)], rng=1)
assert served.column("exact") == [True]

db = round_robin(uniform_dataset(64, 40, rng=0), n_machines=2)
db = db.with_nu(db.nu + 1)
stream = random_update_stream(db, 8, rng=1)
stream.apply_next(8)
live = repro.serve(
    [repro.SamplingRequest(stream=stream, include_probabilities=False, shards=2)], rng=2
)
assert live.column("exact") == [True] and live.telemetry["shards"] == 2
"""

REPORT = """
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx"))
print("HEAVY " + json.dumps(heavy))
"""

#: A finder that makes scipy and networkx look uninstalled.
BLOCK = """
import sys

class _Uninstalled:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ImportError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, _Uninstalled())
"""

#: Both core samplers on ``classes`` and a live class view of an update
#: stream, with no front door; print the upper-layer modules loaded.
CORE_ONLY = """
import json, sys

from repro.core import ParallelSampler, SequentialSampler
from repro.database import random_update_stream, round_robin, uniform_dataset

db = round_robin(uniform_dataset(64, 40, rng=0), n_machines=2)
assert SequentialSampler(db, backend="classes").run().exact
assert ParallelSampler(db, backend="classes").run().exact
db = db.with_nu(db.nu + 1)
stream = random_update_stream(db, 8, rng=1)
view = stream.class_state()
assert stream.apply_next(8) == 8
assert (view.element_classes == db.joint_counts).all()
upper = sorted(
    m for m in sys.modules
    if m.split(".")[:2] in (["repro", "batch"], ["repro", "serve"], ["repro", "api"])
)
print("UPPER " + json.dumps(upper))
"""

#: ``python -m repro sample --universe 32 --machines 3``, in-process.
CLI_SAMPLE = """
import runpy

sys.argv = ["repro", "sample", "--universe", "32", "--machines", "3"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0, done.code

from repro.database import star_graph

try:
    star_graph(3)
except ImportError as hint:
    assert "install repro[analysis]" in str(hint), hint
else:
    raise AssertionError("star_graph() built a graph without networkx")
"""


def _run(script: str, tag: str = "HEAVY") -> tuple[list[str], str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    report = [line for line in proc.stdout.splitlines() if line.startswith(tag + " ")]
    assert len(report) == 1, proc.stdout
    return json.loads(report[0][len(tag) + 1:]), proc.stdout


def test_request_path_loads_no_scipy_or_networkx():
    heavy, _ = _run(FRONT_DOOR + REPORT)
    assert heavy == []


def test_request_path_runs_with_scipy_and_networkx_uninstalled():
    heavy, out = _run(BLOCK + FRONT_DOOR + CLI_SAMPLE + REPORT)
    assert heavy == []
    exact = [line for line in out.splitlines() if line.split("|")[0].strip() == "exact"]
    assert len(exact) == 1 and exact[0].split("|")[1].strip() == "True", out


def test_core_samplers_load_no_upper_layer():
    upper, _ = _run(CORE_ONLY, tag="UPPER")
    assert upper == []
