"""Self-tests of the benchmark harness (not collected by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402


# ----------------------------------------------------------------------
# the generator wrapper is transparent
# ----------------------------------------------------------------------

def _echo():
    """Exercises every way a generator talks to its driver."""
    got = []
    try:
        while True:
            try:
                value = yield len(got)
            except KeyError as exc:
                value = "caught %s" % exc.args[0]
            if value == "stop":
                return got
            if value == "boom":
                raise ValueError("boom")
            got.append(value)
    finally:
        got.append("finalized")


def _spanned(gen, tracer=None):
    tracer = tracer or layers.Tracer()
    span = layers.Span(1, "unit", None, (), None)
    return layers.SpanGen(tracer, gen, span)


def _delegating(inner):
    result = yield from inner
    return ("outer", result)


@pytest.mark.parametrize("wrap", [
    lambda g: g, _spanned, lambda g: _delegating(_spanned(g))])
def test_generator_wrapper_is_transparent(wrap):
    gen = wrap(_echo())
    assert next(gen) == 0
    assert gen.send("a") == 1
    assert gen.throw(KeyError("k")) == 2          # caught inside, goes on
    with pytest.raises(StopIteration) as stop:
        gen.send("stop")
    value = stop.value.value
    value = value[1] if isinstance(value, tuple) else value
    assert value == ["a", "caught k", "finalized"]

    gen = wrap(_echo())
    next(gen)
    with pytest.raises(ValueError, match="boom"):  # raised inside, comes out
        gen.send("boom")

    gen = wrap(_echo())
    next(gen)
    with pytest.raises(RuntimeError):              # not caught inside
        gen.throw(RuntimeError("x"))

    gen = wrap(_echo())
    next(gen)
    gen.close()                                    # runs the finally block
    with pytest.raises(StopIteration):
        next(gen)


def test_wrapper_keeps_the_generator_name_and_closes_spans():
    tracer = layers.Tracer()
    tracer.recording = True
    gen = _spanned(_echo(), tracer)
    assert gen.__name__ == "_echo"
    next(gen)
    gen.close()
    (span,) = tracer.spans
    assert span.status == "GeneratorExit" and span.resumes == 1
    assert span.host_end >= span.host_start

    gen = _spanned(_echo(), tracer)
    next(gen)
    with pytest.raises(StopIteration):
        gen.send("stop")
    assert [s.status for s in tracer.spans] == ["GeneratorExit", "ok"]


def test_spans_nest_and_inherit_the_transaction():
    tracer = layers.Tracer()
    tracer.recording = True

    def leaf():
        yield "io"

    def syscall(proc):
        yield from layers._wrap(tracer, leaf, "storage.leaf", span="disk")()
        return "done"

    class Proc:
        tid = "t1"

    wrapped = layers._wrap(tracer, syscall, "locus.sys", span="syscall",
                           txn_of=lambda proc: proc.tid)
    gen = wrapped(Proc())
    assert next(gen) == "io"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    disk, sys_span = tracer.spans
    assert (disk.name, disk.parent, disk.txn) == ("disk", sys_span, "t1")
    assert (sys_span.name, sys_span.parent, sys_span.txn) == (
        "syscall", None, "t1")
    assert tracer.calls == {"storage.leaf": 1, "locus.sys": 1}


# ----------------------------------------------------------------------
# host time goes to the right layer
# ----------------------------------------------------------------------

def test_a_stack_is_billed_to_its_innermost_layer_inside_the_dispatch_loop():
    bill = lambda *frames: layers._bill(  # noqa: E731
        (layer, layer == "dispatch") for layer in frames)
    # innermost first; "dispatch" is Engine.run, whose callers are moot
    assert bill("locking", "locus", "sim", "dispatch", "locus") == "locking"
    assert bill(None, "sim", "storage", "sim", "dispatch") == "storage"
    assert bill("sim", "sim", "dispatch", "locus", "workloads") == "sim"
    assert bill("dispatch", "locus") == "sim"
    assert bill("sim", "workloads") == "workloads"   # schedule_many
    assert bill(None, None) is None
    assert layers._package_of("/x/src/repro/locking/table.py") == "locking"
    assert layers._package_of("/x/src/repro/rangeset.py") is None
    assert layers._package_of("/x/src/repro/core/ids.py") is None
    assert layers._package_of("/usr/lib/python3/heapq.py") is None
    assert layers._is_dispatch("/x/src/repro/sim/engine.py", "run")
    assert not layers._is_dispatch("/x/src/repro/sim/engine.py", "schedule")


_FAKE_LAYER_CODE = """
import time
def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
"""


def _fake_module(path, body):
    namespace = {}
    exec(compile(_FAKE_LAYER_CODE + body, path, "exec"), namespace)
    return namespace


def test_sampler_shares_follow_where_the_time_went():
    helper = _fake_module("/x/repro/sim/events.py", "")
    locking = _fake_module("/x/repro/locking/table.py",
                           "def conflicts(): spin(0.08)")
    storage = _fake_module(
        "/x/repro/storage/disk.py",
        "def write_block(helper): spin(0.04); helper(0.04)")
    engine = _fake_module(
        "/x/repro/sim/engine.py",
        "def run(callbacks):\n"
        "    spin(0.04)\n"
        "    for callback in callbacks: callback()")
    sampler = layers.Sampler(interval=0.0005)
    sampler.start()
    try:
        engine["run"]([locking["conflicts"],
                       lambda: storage["write_block"](helper["spin"])])
    finally:
        sampler.stop()
    share = sampler.shares()
    assert sampler.samples > 100
    assert sum(share[layer] for layer in layers.LAYERS) + share[
        "unattributed"] == pytest.approx(1.0)
    assert share["locking"] == pytest.approx(0.4, abs=0.08)
    assert share["storage"] == pytest.approx(0.4, abs=0.08)  # incl. helper
    assert share["sim"] == pytest.approx(0.2, abs=0.08)


def test_host_seconds_are_scaled_by_the_kernel_timed_around_them():
    assert hostspeed.kernel() == hostspeed.CHECKSUM
    ref = hostspeed.REFERENCE_S
    assert hostspeed.at_reference_speed(3.0, ref, ref) == 3.0
    # A host at half speed takes twice as long over kernel and cell alike.
    assert hostspeed.at_reference_speed(3.0, 2 * ref, 2 * ref) == 1.5
    assert hostspeed.at_reference_speed(3.0, ref, 3 * ref) == 1.5
    taken = hostspeed.kernel_seconds()
    assert 0.2 * ref < taken < 20 * ref


# ----------------------------------------------------------------------
# patches
# ----------------------------------------------------------------------

def _originals():
    import importlib

    seen = {}
    for modname, clsname, names, *_ in layers._TARGETS:
        module = importlib.import_module(modname)
        owner = module if clsname is None else getattr(module, clsname)
        for name in names:
            seen[modname, clsname, name] = vars(owner)[name]
    return seen


def test_patches_are_fully_removed_after_a_traced_pass():
    bench._import_repro()
    import repro.locus.cluster as cluster_module
    from repro.locking.table import LockTable
    from repro.sim.engine import Engine

    before = _originals()
    victim = cluster_module.choose_victim
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        assert tracer.missing == []   # the target table matches this tree
        assert cluster_module.choose_victim is not victim
        assert _originals() != before
        traced = bench.run_pass(bench.WORKLOADS["oltp_hot"], 0, quick=True,
                                tracer=tracer)
    finally:
        patches.remove()
    assert _originals() == before
    assert cluster_module.choose_victim is victim
    assert vars(LockTable)["conflicts"].__name__ == "conflicts"
    assert not hasattr(vars(Engine)["run"], "__wrapped__")
    assert len(patches) == 0

    # Wrappers and sampler are pure observers of the virtual clock.
    plain = bench.run_pass(bench.WORKLOADS["oltp_hot"], 0, quick=True)
    sampler = layers.Sampler()
    sampled = bench.run_pass(bench.WORKLOADS["oltp_hot"], 0, quick=True,
                             sampler=sampler)
    assert traced.fingerprint() == plain.fingerprint() == sampled.fingerprint()
    assert not traced.problems
    assert tracer.counts["locking.lock"] == 4 * 64   # 2 cells x 32 x 2 x 2
    assert tracer.counts["locking.conflicts"] >= tracer.counts["locking.lock"]
    assert len(tracer.vtimes["syscall.sys_write"]) == 4 * 64
    assert sampler.samples > 0 and sampler.shares()["unattributed"] < 0.05


# ----------------------------------------------------------------------
# why three workloads do not run the stock mixes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mix, clients, txns", [
    ("banking", 64, 2), ("session", 128, 4)])
def test_stock_mixes_livelock(mix, clients, txns):
    """The reproducer behind ``bench._mixes``: under Zipf-0.9 keys the
    stock mixes abandon slots that were granted 64 retries, i.e. the
    same transaction lost 65 deadlocks in a row (README, "Why not the
    stock mixes").  A benchmark workload must not fail operations, so
    the contended workloads run cut-down mixes.  When this test fails
    the starvation is gone: give ``oltp_hot``, ``oltp_open`` and
    ``session_shared`` the stock mixes back."""
    bench._import_repro()
    from repro import Cluster
    from repro.config import SystemConfig
    from repro.workloads import ScalingDriver

    abandoned = retries = 0
    for seed in range(6):
        cluster = Cluster(site_ids=(1, 2, 3), config=SystemConfig(
            rpc_timeout=bench.RPC_TIMEOUT, commit_batching=True))
        driver = ScalingDriver(
            cluster, record_count=bench.RECORD_COUNT,
            record_size=bench.RECORD_SIZE, mix=mix, keys="zipf", theta=0.9,
            clients=clients, txns_per_client=txns, think_mean=bench.THINK,
            max_retries=bench.MAX_RETRIES, seed=seed)
        driver.setup()
        result = driver.run()
        abandoned += result.aborted
        retries += result.retries
    assert abandoned > 0
    assert retries >= bench.MAX_RETRIES * abandoned


# ----------------------------------------------------------------------
# the commands
# ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_harness_reports():
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/bench.py", "run"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in bench.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]} == {
        name: spec[:3] for name, spec in bench.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} == bench.PER_LAYER


def test_quick_run_is_green_and_stamped_not_comparable(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--quick",
         "--out", str(out)], stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    assert time.perf_counter() - started < 20
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(bench.END_TO_END)
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == list(bench.WORKLOADS)
    assert all(r["correct"] and not r["comparable"] and r["failed"] == 0
               for r in runs)
    by_name = {r["workload"]: r for r in runs}
    assert by_name["log_local"]["end_to_end"]["msgs_per_commit"]["value"] == 0
    assert (by_name["oltp_hot_obs"]["detail"]["fingerprint"]
            == by_name["oltp_hot"]["detail"]["fingerprint"])


def _result_file(path, walls, failed=0, comparable=True, first_seed=0,
                 p99=None, fingerprint="f"):
    """One oltp_hot run per entry of ``walls``, seeds counting up from
    ``first_seed``; ``p99`` maps a seed to its latency_p99_vms."""
    runs = []
    for seed, wall in enumerate(walls, first_seed):
        metrics = {name: {"value": 10.0, "unit": spec[0]} for name, spec
                   in {**bench.END_TO_END, **bench.ZERO_CAPABLE}.items()}
        metrics["wall_s"]["value"] = wall
        metrics["latency_p99_vms"]["value"] = (p99 or {}).get(seed, 10.0)
        metrics["abort_rate"]["value"] = 0.0
        runs.append({"workload": "oltp_hot", "seed": seed, "trace": 0,
                     "comparable": comparable, "attempted": 100,
                     "failed": failed, "end_to_end": metrics,
                     "detail": {"fingerprint": "%s%d" % (fingerprint, seed)}})
    path.write_text(json.dumps({"schema": bench.SCHEMA, "runs": runs}))
    return str(path)


def _compare(tmp_path, capsys, old, metric, *walls, **kw):
    """(exit code, verdict on ``metric``, output rows) of old vs new."""
    new = _result_file(tmp_path / "new.json", *walls, **kw)
    code = bench.main(["compare", old, new])
    rows = capsys.readouterr().out.splitlines()
    row = next(r for r in rows if " %s " % metric in r)
    verdicts = ("better", "same", "worse", "unresolved", "changed")
    return code, next(w for w in row.split() if w in verdicts), rows


def test_compare_judges_host_metrics_by_medians_against_the_bound(
        tmp_path, capsys):
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    old = _result_file(tmp_path / "old.json", steady)

    def verdict(walls, **kw):
        return _compare(tmp_path, capsys, old, "wall_s", walls, **kw)

    bound = bench.END_TO_END["wall_s"][2]
    assert verdict(steady)[:2] == (0, "same")
    assert verdict([w * (1 + bound / 2) for w in steady])[:2] == (0, "same")
    assert verdict([w * (1 - 2 * bound) for w in steady])[:2] == (0, "better")
    assert verdict([w * (1 + 2 * bound) for w in steady])[:2] == (1, "worse")
    wide = [10 * (1 + k * bound) for k in (-2, -1, 0, 1, 2)]
    assert verdict(wide)[:2] == (0, "unresolved")
    code, _wall, rows = verdict(steady, failed=3)
    assert code == 1                       # more operations failed
    assert any("widest quartile spread" in r for r in rows)


def test_compare_judges_virtual_metrics_seed_by_seed_and_exactly(
        tmp_path, capsys):
    steady = [10.0] * 5
    old = _result_file(tmp_path / "old.json", steady)

    def verdict(metric="latency_p99_vms", **kw):
        return _compare(tmp_path, capsys, old, metric, steady, **kw)

    code, p99, rows = verdict()
    assert (code, p99) == (0, "same")
    assert any("bit-identical on 5 of 5" in r for r in rows)
    assert verdict("abort_rate")[:2] == (0, "same")     # 0 == 0, no ratio
    # One seed in five a hair worse: far inside any noise bound, and the
    # median does not move, yet on that seed the clock is exact.
    assert verdict(p99={3: 10.0001})[:2] == (1, "worse")
    assert verdict(p99={3: 9.9999})[:2] == (0, "better")
    assert verdict(p99={1: 9.0, 3: 10.0001})[:2] == (1, "worse")
    assert verdict(p99={3: 10.0 * (1 + 1e-12)})[:2] == (0, "same")
    # A moved fingerprint is a protocol change, whatever the metrics say.
    code, clock, rows = verdict("virtual_clock", fingerprint="g")
    assert (code, clock) == (0, "changed")
    assert any("PROTOCOL CHANGE on seeds [0, 1, 2, 3, 4]" in r for r in rows)
    # Other seeds: nothing exact to say.
    assert verdict(first_seed=5)[:2] == (0, "unresolved")
