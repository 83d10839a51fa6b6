"""Tests of the benchmark itself.

    python3 -m pytest -q bench

They check that the oracle rejects slightly wrong outputs, that inputs
depend only on the seed, that spans account for their parent's time,
and that a run prints exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1.0 + 1e-6


def cli_workload(tmp_path) -> workloads.Cli:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("WGQSIM_THREADS", None)
    return workloads.Cli(ROOT, str(tmp_path), env)


def all_workloads(tmp_path) -> list:
    return [workloads.Chain(), workloads.Sweep(), workloads.Broadening(), cli_workload(tmp_path)]


def run_item(wl, item) -> dict:
    return wl.extract(item, wl.call(item))


def test_same_seed_gives_same_items(tmp_path):
    for wl in all_workloads(tmp_path):
        first = [wl.item(7, i) for i in range(2 * wl.cycle)]
        again = [wl.item(7, i) for i in range(2 * wl.cycle)]
        other = [wl.item(8, i) for i in range(2 * wl.cycle)]
        assert first == again, wl.name
        assert first != other, wl.name
        assert [it["kind"] for it in first] == [it["kind"] for it in other], wl.name


def test_oracle_flags_perturbed_chain():
    wl = workloads.Chain()
    item = wl.item(3, 0)
    out = run_item(wl, item)
    assert wl.check(item, out) == []
    for key in out:
        assert wl.check(item, dict(out, **{key: out[key] * PERTURB})), key


@pytest.mark.parametrize("index", [0, 1])  # fig6, fig7
def test_oracle_flags_perturbed_sweep(index):
    wl = workloads.Sweep()
    item = wl.item(3, index)
    out = run_item(wl, item)
    assert wl.check(item, out) == []
    label = sorted(out["series"])[0]
    series = dict(out["series"])
    series[label] = [series[label][0] * PERTURB] + series[label][1:]
    assert wl.check(item, dict(out, series=series))


@pytest.mark.parametrize("index", [0, 1])  # gauss-hermite, monte-carlo
def test_oracle_flags_perturbed_broadening(index):
    wl = workloads.Broadening()
    item = wl.item(3, index)
    out = run_item(wl, item)
    assert wl.check(item, out) == []
    assert wl.check(item, dict(out, value=out["value"] * PERTURB))


def test_oracle_flags_perturbed_cli(tmp_path):
    wl = cli_workload(tmp_path)
    for index, key in ((1, "herald_probability"), (5, "weighted_fidelity"), (3, "value")):
        item = wl.item(3, index)
        out = run_item(wl, item)
        assert wl.check(item, out) == [], item["kind"]
        report = dict(out["report"], **{key: out["report"][key] * PERTURB})
        assert wl.check(item, dict(out, report=report)), item["kind"]
    item = wl.item(3, 5)
    out = run_item(wl, item)
    assert wl.check(item, dict(out, trace_head="")), "empty trace accepted"


def test_sweep_oracle_rejects_values_above_one():
    wl = workloads.Sweep()
    item = wl.item(3, 0)
    out = run_item(wl, item)
    label = sorted(out["series"])[0]
    series = dict(out["series"], **{label: [1.0 + 1e-15] * len(item["grid"])})
    assert wl.check(item, dict(out, series=series))


def test_self_times_add_up_to_the_item():
    tracer = tracing.Tracer()
    with tracer.item_span(0):
        with tracer.span("outer"):
            sum(range(20000))
            with tracer.span("inner"):
                sum(range(20000))
        with tracer.span("inner"):
            pass
    self_s, calls, dur = tracer.totals()
    assert calls == {tracing.ITEM_SPAN: 1, "outer": 1, "inner": 2}
    assert sum(self_s.values()) == pytest.approx(dur[tracing.ITEM_SPAN], rel=1e-9)
    assert all(v >= 0 for v in self_s.values())


def test_installed_wraps_where_callers_look_and_restores():
    import wgqsim.analysis
    import wgqsim.protocols

    execute = wgqsim.protocols.execute
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert wgqsim.protocols.execute is not execute
        assert wgqsim.analysis.run_protocol is wgqsim.protocols.run_protocol
        with tracer.item_span(0):
            wgqsim.analysis.simulated_success_probability(2, wgqsim.EmitterParams(50.0))
    assert wgqsim.protocols.execute is execute
    _, calls, _ = tracer.totals()
    assert calls["circuit.execute"] == 1
    assert calls["scatter.scatter_coeffs"] >= 2
    assert tracer.counts["state.slot_visits"] > 0


@pytest.mark.parametrize("trace,workload,seconds", [(0, "broadening", "0.5"), (1, "chain", "0.2")])
def test_printed_metrics_match_benchmark_json(trace, workload, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
