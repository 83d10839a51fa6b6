"""Benchmark of the wgqsim simulator: one workload per run.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` and nothing needs building.  Workloads: chain, sweep,
broadening, cli (see bench/README.md for what each one exercises).

``--trace 0`` measures the end-to-end metrics.  The load is a closed
loop with one client: the next item starts when the previous one has
returned.  Every timing is scaled to a reference host speed (see
``Reference``).  ``--trace 1`` gives the per-layer metrics instead: half of
the time runs untraced, half with the layers wrapped by ``tracing.py``,
and the ratio of the two medians is the tracing overhead.

Every item's output is checked against ``oracle.py`` after the timed
loop.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  Spans of a traced run are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ITEMS = 100  # p90 needs ten samples beyond it
LOOP_CAP_S = 120.0  # stop even short of MIN_ITEMS, to end within 180 s
SETUP_PROBES = 9
CLI_PROBES = 5


class Reference:
    """A fixed task, timed before every measured item to scale it.

    On a shared host the speed of a CPU drifts by up to about 1.8 times
    over seconds to minutes, more than any run can average out.  So
    each timing ``t`` is reported as ``t * nominal_s / r``, where ``r``
    is this task's time measured next to it on the same CPU: the time
    the work would take on a host where the task takes ``nominal_s``.
    The task is the benchmark's own code, so a change to wgqsim shows
    in full.  Each workload gets the task closest to its own work:
    ``python``, a pure-Python loop of dict and complex arithmetic like
    the state engine; ``numpy``, reflection coefficients and suffix
    products over an offset matrix like the broadening kernel; and
    ``interpreter``, a bare ``python -c pass`` like the cli commands and
    the set-up probes.
    """

    NOMINAL_S = {"python": 0.008, "numpy": 0.006, "interpreter": 0.050}

    def __init__(self, kind: str, env: dict):
        self.kind = kind
        self.env = env
        self.nominal_s = self.NOMINAL_S[kind]
        self.scales = []
        if kind == "numpy":
            import numpy as np

            self.offsets = np.linspace(-0.3, 0.3, 8 * 10_000).reshape(10_000, 8)

    def _task(self) -> None:
        if self.kind == "interpreter":
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True)
        elif self.kind == "numpy":
            for _ in range(3):
                r = -1.0 / (1.1 - 2.0j * self.offsets)
                abs(r[:, ::-1].cumprod(axis=1).sum(axis=1)).sum()
        else:
            acc, z = {}, 0.3 + 0.4j
            for i in range(30_000):
                key = (i & 255, i & 1)
                acc[key] = acc.get(key, 0j) * z + z

    def scale(self) -> float:
        """nominal_s over the task's time right now."""
        t0 = time.perf_counter()
        self._task()
        self.scales.append(self.nominal_s / (time.perf_counter() - t0))
        return self.scales[-1]


def pin_environment() -> dict:
    """Single-threaded numerics, no sweep thread pool, package from src.

    The process and every child it starts share one CPU, so the
    reference task runs where the timed work runs.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.pop("WGQSIM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)
    return dict(os.environ)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_reference(name: str, env: dict) -> Reference:
    return Reference({"cli": "interpreter", "broadening": "numpy"}.get(name, "python"), env)


def make_workload(name: str, env: dict, tracer=None):
    import workloads

    if name == "cli":
        return workloads.Cli(ROOT, OUT, env, tracer)
    return {"chain": workloads.Chain, "sweep": workloads.Sweep,
            "broadening": workloads.Broadening}[name]()


def run_items(wl, seed: int, first: int, done, ref: Reference,
              tracer=None) -> tuple[list, list, float]:
    """Closed loop from item ``first`` until ``done(count, elapsed)``.

    Returns per-item latencies (s), (item, output, error) records and
    the loop's total time, all scaled by ``ref``.  ``elapsed`` is wall
    time.  Outputs are reduced to plain values right after each item's
    timer stops; oracle checks come later.
    """
    merge_child = tracer is not None and wl.name == "cli"
    latencies, loop_times, scales, records = [], [], [], []
    begin = time.perf_counter()
    i = first
    while True:
        item = wl.item(seed, i)
        raw, error = None, None
        scales.append(ref.scale())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.call(item)
            else:
                with tracer.item_span(i) as root:
                    raw = wl.call(item)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        out = None
        if error is None:
            try:
                out = wl.extract(item, raw)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        del raw
        if merge_child:
            spans = wl.spans_path(item)
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), root, i)
                os.remove(spans)
        records.append((item, out, error))
        loop_times.append(time.perf_counter() - t0)
        i += 1
        if done(len(latencies), t1 - begin):
            # Scale each item by the reference timed just before it and
            # the one just after it (the next item's), on average.
            scales.append(ref.scale())
            near = [2.0 / (1.0 / a + 1.0 / b) for a, b in zip(scales, scales[1:])]
            return ([t * f for t, f in zip(latencies, near)], records,
                    sum(t * f for t, f in zip(loop_times, near)))


def count_failures(wl, records: list) -> int:
    failed = 0
    for item, out, error in records:
        if error is None:
            try:
                problems = wl.check(item, out)
            except Exception as exc:
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            failed += 1
            if failed <= 3:
                print(f"{wl.name} item {item.get('kind')}: {problems[0]}", file=sys.stderr)
    return failed


def setup_probe(workload: str, seed: int, env: dict) -> int:
    """Child side of a set-up measurement: import, make inputs, one item."""
    import wgqsim  # noqa: F401

    wl = make_workload(workload, env)
    items = [wl.item(seed, i) for i in range(wl.cycle)]
    with contextlib.suppress(Exception):  # the timed loop counts failures
        wl.extract(items[0], wl.call(items[0]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median time from starting a fresh interpreter to its first timed item."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    ref = Reference("interpreter", env)
    times = []
    for _ in range(SETUP_PROBES):
        scale = ref.scale()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        line = proc.stdout.readline()
        times.append((time.perf_counter() - t0) * scale)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def median_wall(cmd: list[str], env: dict, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_probe_metrics(tracer, seed: int, env: dict) -> dict:
    """Interpreter start, package import, and ``cli.main`` run in-process.

    ``main`` runs once per command of the cli workload's cycle, outside
    any item, so its spans do not count towards the workload's layers.
    """
    import wgqsim.cli

    interp = median_wall([sys.executable, "-c", "pass"], env, CLI_PROBES)
    imported = median_wall([sys.executable, "-c", "import wgqsim"], env, CLI_PROBES)
    cli = make_workload("cli", env)
    for i in range(cli.cycle):
        item = cli.item(seed, i)
        with contextlib.redirect_stdout(io.StringIO()):
            wgqsim.cli.main(cli.argv(item))
        with contextlib.suppress(FileNotFoundError):
            os.remove(cli.trace_path(item))
    return {
        "cli.interpreter_ms": (interp * 1e3, "ms"),
        "cli.import_ms": ((imported - interp) * 1e3, "ms"),
        "cli.main.self_ms": (tracer.probe_self_ms("cli.main"), "ms"),
    }


# Layers reported as per-item self time, per-item call count, and the
# counters the wrappers keep (per item).
SELF_MS = (
    "state.EmitterState.change_basis", "circuit.execute", "circuit.validate",
    "circuit.trace_dump", "protocols.build_protocol", "protocols.postprocess_execution",
    "scatter.scatter_coeffs", "analysis.fidelity_kernel", "analysis.averaged_fidelity",
    "analysis.sweep", "netlist.parse",
)
CALLS = ("protocols.build_protocol", "scatter.scatter_coeffs",
         "analysis.simulated_success_probability")
COUNTS = ("state.slot_visits", "circuit.execute.errors", "analysis.fidelity_kernel.rows")


def layer_metrics(tracer, items: int, configs: tuple[float, float]) -> dict:
    """Per-item self times and counts of every traced layer."""
    from tracing import ITEM_SPAN, STATE_OPS

    self_s, calls, dur = tracer.totals()
    state = tuple(f"state.{op}" for op in STATE_OPS)
    m = {f"{n}.self_ms": (self_s.get(n, 0.0) * 1e3 / items, "ms") for n in state + SELF_MS}
    m.update({f"{n}.calls": (calls.get(n, 0.0) / items, "count") for n in state + CALLS})
    m.update({n: (tracer.counts[n] / items, "count") for n in COUNTS})
    m["state.peak_live_slots"] = (float(tracer.counts["state.peak_live_slots"]), "count")
    useful, peak = configs
    m["state.config_efficiency"] = (useful / peak if peak else 0.0, "ratio")
    m["trace.coverage_ratio"] = (1.0 - self_s[ITEM_SPAN] / dur[ITEM_SPAN], "ratio")
    return m


def measure(args, env: dict) -> tuple[dict, int, int, dict]:
    """Untraced run: the end-to-end metrics."""
    setup_s = measure_setup(args.workload, args.seed, env)
    import wgqsim  # noqa: F401

    wl = make_workload(args.workload, env)
    ref = make_reference(args.workload, env)
    run_items(wl, args.seed, 0, lambda n, t: n >= wl.cycle, ref)  # warm-up, not scored
    lat, records, loop_s = run_items(
        wl, args.seed, wl.cycle,
        lambda n, t: (t >= args.seconds and n >= MIN_ITEMS) or t >= LOOP_CAP_S, ref)
    if wl.name == "cli":
        rss_kb = max((out["maxrss_kb"] for _, out, _ in records if out), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = count_failures(wl, records)
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "items_per_s": (len(lat) / loop_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "pass_ratio": ((len(lat) - failed) / len(lat), "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, len(lat), failed, {"items": len(lat), "loop_s": loop_s,
                                       "median_scale": statistics.median(ref.scales)}


def measure_traced(args, env: dict) -> tuple[dict, int, int, dict]:
    """Traced run: the per-layer metrics and the tracing overhead."""
    import wgqsim  # noqa: F401
    import tracing

    half = args.seconds / 2.0
    wl = make_workload(args.workload, env)
    ref = make_reference(args.workload, env)
    run_items(wl, args.seed, 0, lambda n, t: n >= wl.cycle, ref)  # warm-up
    plain, plain_records, _ = run_items(wl, args.seed, wl.cycle, lambda n, t: t >= half, ref)
    tracer = tracing.Tracer()
    traced_wl = make_workload(args.workload, env, tracer)
    with tracing.installed(tracer):
        # One untimed cycle counts distinct register configs, which is
        # too slow to do while timing.
        tracer.count_configs = True
        run_items(traced_wl, args.seed, 0, lambda n, t: n >= wl.cycle, ref, tracer)
        configs = (tracer.counts["state.useful_configs"], tracer.counts["state.peak_configs"])
        tracer.reset()
        tracer.count_configs = False
        start = wl.cycle + len(plain)
        traced, traced_records, _ = run_items(
            traced_wl, args.seed, start,
            lambda n, t: (t >= half and n % wl.cycle == 0) or t >= LOOP_CAP_S, ref, tracer)
        metrics = layer_metrics(tracer, len(traced), configs)
        metrics.update(cli_probe_metrics(tracer, args.seed, env))
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(spans_file)
    failed = count_failures(wl, plain_records) + count_failures(traced_wl, traced_records)
    attempted = len(plain) + len(traced)
    return metrics, attempted, failed, {"items": attempted, "traced_items": len(traced),
                                        "spans": len(tracer.end), "spans_file": spans_file}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("chain", "sweep", "broadening", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "wgqsim", "__init__.py")):
        print(f"no wgqsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = pin_environment()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, env)
    os.makedirs(OUT, exist_ok=True)
    import numpy

    run = measure_traced if args.trace else measure
    metrics, attempted, failed, info = run(args, env)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": git_commit(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
