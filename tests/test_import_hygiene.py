"""A plain run imports no observer code.

Each check runs in a fresh interpreter (``sys.modules`` of the test
process is full of everything).  The observer and analysis packages are
43 % of ``src/``; a run that attaches no observer must not pay for
loading them, and the run that does must get exactly what it attached.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PLAIN_RUN = """
import json, sys
import repro, repro.workloads
from repro import Cluster
from repro.workloads import ScalingDriver

cluster = Cluster(site_ids=(1, 2))
{attach}
ScalingDriver(cluster, record_count=64, clients=4, txns_per_client=1,
              seed=1).setup()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def _fresh(code):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_plain_run_imports_no_observer_or_analysis_module():
    loaded = _fresh(_PLAIN_RUN.format(attach=""))
    assert "repro.slo" in loaded and "repro.workloads.driver" in loaded
    stray = [m for m in loaded
             if m.startswith(("repro.obs", "repro.analysis"))]
    assert stray == []
    # The WAL is the ablation baseline; only the report builds one.
    assert "repro.storage.wal" not in loaded


def test_enable_observability_loads_what_it_attaches():
    loaded = _fresh(_PLAIN_RUN.format(
        attach="cluster.enable_observability("
               "monitors=True, strict=True, provenance=True)"))
    for module in ("repro.obs", "repro.obs.span", "repro.obs.metrics",
                   "repro.obs.monitor", "repro.obs.provenance",
                   "repro.obs.slo"):
        assert module in loaded, module
    assert not [m for m in loaded if m.startswith("repro.analysis")]


def test_slo_objective_is_one_class_under_every_name():
    assert _fresh("""
import json
from repro.obs import SloObjective, validate_report, build_report, Observability
from repro.obs.slo import SloObjective as from_slo
from repro.slo import SloObjective as from_leaf
from repro.storage import WalFile
from repro.storage.wal import WalFile as from_wal
from repro import Cluster
from repro.workloads import MIXES

tracker = Cluster(site_ids=(1,)).enable_observability().slo
mix = MIXES["banking"]
tracker.declare(mix.name, mix.slos)
print(json.dumps([
    SloObjective is from_slo is from_leaf,
    bool(mix.slos) and all(type(o) is SloObjective for o in mix.slos),
    tracker.objectives(mix.name) == mix.slos,
    WalFile is from_wal,
]))
""") == [True, True, True, True]


#: A protocol package naming an observer: protocol code announces
#: through ``engine.obs`` and never reaches into a subscriber.
_REACH_IN = re.compile(r"\bobs\.(timeline|slo|provenance|monitors)\b"
                       r"|\bobs\.spans\.(instant|mark_trace)\b")
_PROTOCOL = ("core", "net", "locus", "locking", "storage", "sim", "fs",
             "workloads")


def test_protocol_code_names_no_subscriber():
    hits = [
        "%s:%d: %s" % (path.relative_to(SRC), n, line.strip())
        for package in _PROTOCOL
        for path in sorted((Path(SRC) / "repro" / package).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _REACH_IN.search(line)
    ]
    assert hits == []
