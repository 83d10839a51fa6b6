"""The four workloads: seeded items, the call that is timed, and the oracle.

Item i of a workload depends only on (seed, workload, i), so the same
seed gives the same inputs however many items a run gets through.  The
simulator sees only the generated values.  Each workload cycles through
a short fixed list of item kinds whose costs are close to each other,
so a run's latency distribution stays unimodal and its percentiles do
not jump between kinds.

``call`` is the timed part.  ``extract`` reduces its result to plain
numbers right after the timer stops, so nothing large is kept alive,
and ``check`` compares them with the oracle after the timed loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import oracle

WORKLOADS = ("chain", "sweep", "broadening", "cli")

CHAIN_N = 10
SWEEP_KINDS = ("fig6", "fig7", "fig8")
SWEEP_POINTS = 20
GH_N, GH_ORDER = 4, 20
MC_N, MC_SAMPLES = 9, 80_000

# Tolerances: circuit runs against the closed form, and the numpy
# broadening averages against this module's own numpy evaluation.
REL_CIRCUIT = 1e-9
REL_NUMPY = 1e-12
REL_CSV = 1e-5  # the sweep CSV prints 6 significant digits


def item_rng(workload: str, seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), i])


def _operating_point(rng: np.random.Generator) -> tuple[float, float]:
    """Purcell factor log-uniform in [1, 1000], detuning in [-0.2, 0.2]."""
    return float(10 ** rng.uniform(0.0, 3.0)), float(rng.uniform(-0.2, 0.2))


def _offsets(rng: np.random.Generator, n: int) -> list[float]:
    return [float(x) for x in rng.normal(0.0, 0.05, n)]


def _chain_problems(out: dict, purcell, detuning, offsets) -> list[str]:
    w = oracle.chain_weights(purcell, detuning, offsets)
    problems = []
    if not oracle.close(out["herald_probability"], oracle.herald_probability(w), REL_CIRCUIT):
        problems.append(f"herald probability {out['herald_probability']!r}")
    if not oracle.close(out["weighted_fidelity"], oracle.weighted_fidelity(w), REL_CIRCUIT):
        problems.append(f"weighted fidelity {out['weighted_fidelity']!r}")
    return problems


class Chain:
    """``run_protocol`` on the generic klmN chain at n=10."""

    name = "chain"
    cycle = 1

    def item(self, seed: int, i: int) -> dict:
        rng = item_rng(self.name, seed, i)
        purcell, detuning = _operating_point(rng)
        return {"kind": "klmN", "purcell": purcell, "detuning": detuning,
                "offsets": _offsets(rng, CHAIN_N)}

    def call(self, item: dict):
        from wgqsim import params, protocols, scatter

        nominal = scatter.EmitterParams(item["purcell"], item["detuning"])
        point = params.ProtocolParams(CHAIN_N, nominal, tuple(item["offsets"]))
        return protocols.run_protocol(point, "klmN")

    def extract(self, item: dict, run) -> dict:
        return {"herald_probability": run.herald_probability,
                "weighted_fidelity": run.weighted_fidelity}

    def check(self, item: dict, out: dict) -> list[str]:
        return _chain_problems(out, item["purcell"], item["detuning"], item["offsets"])


class Sweep:
    """``analysis.sweep`` over fig6, fig7, fig8 on 20-point seeded grids."""

    name = "sweep"
    cycle = len(SWEEP_KINDS)
    # default axis range of each preset, and whether it is logarithmic
    AXES = {"fig6": (0.0, 3.0, True), "fig7": (-0.5, 0.5, False), "fig8": (-0.3, 0.3, False)}

    def item(self, seed: int, i: int) -> dict:
        kind = SWEEP_KINDS[i % self.cycle]
        lo, hi, log = self.AXES[kind]
        xs = np.sort(item_rng(self.name, seed, i).uniform(lo, hi, SWEEP_POINTS))
        return {"kind": kind, "grid": [float(x) for x in (10**xs if log else xs)]}

    def call(self, item: dict):
        from wgqsim import analysis

        return analysis.sweep(item["kind"], list(item["grid"]))

    def extract(self, item: dict, res) -> dict:
        return {"grid": list(res.grid), "series": {k: list(v) for k, v in res.series.items()}}

    def expected(self, item: dict) -> dict[str, list[float]]:
        kind, grid = item["kind"], item["grid"]
        want = {}
        for n in (2, 3):
            if kind == "fig6":
                for d in (0.0, 0.1, 0.15):
                    want[f"n={n} d={d:g}"] = [abs(oracle.reflection(p, d)) ** (2 * n) for p in grid]
            elif kind == "fig7":
                for p in (100.0, 50.0, 10.0):
                    want[f"n={n} P={p:g}"] = [abs(oracle.reflection(p, d)) ** (2 * n) for d in grid]
            else:
                for s in (0.0, 0.1, 0.2):
                    want[f"n={n} sigma={s:g}"] = [
                        oracle.gh_average(n, 100.0, d, s, GH_ORDER) for d in grid
                    ]
        return want

    def check(self, item: dict, out: dict) -> list[str]:
        if out["grid"] != item["grid"]:
            return ["grid not echoed"]
        want = self.expected(item)
        if sorted(out["series"]) != sorted(want):
            return [f"series {sorted(out['series'])}"]
        rel = REL_NUMPY if item["kind"] == "fig8" else REL_CIRCUIT
        problems = []
        for label, ys in out["series"].items():
            for x, y, ref in zip(item["grid"], ys, want[label]):
                if not oracle.close(y, ref, rel):
                    problems.append(f"{label} at {x!r}: {y!r} != {ref!r}")
                elif not 0.0 <= y <= 1.0:
                    problems.append(f"{label} at {x!r}: {y!r} outside [0, 1]")
        return problems


class Broadening:
    """``averaged_fidelity``: GH n=4 order 20, then MC n=9 80k samples."""

    name = "broadening"
    cycle = 2

    def item(self, seed: int, i: int) -> dict:
        rng = item_rng(self.name, seed, i)
        purcell, detuning = _operating_point(rng)
        sigma = float(rng.uniform(0.05, 0.2))
        if i % 2 == 0:
            return {"kind": "gh", "n": GH_N, "purcell": purcell, "detuning": detuning,
                    "sigma": sigma, "order": GH_ORDER}
        return {"kind": "mc", "n": MC_N, "purcell": purcell, "detuning": detuning,
                "sigma": sigma, "samples": MC_SAMPLES, "seed": int(rng.integers(2**31))}

    def call(self, item: dict):
        from wgqsim import analysis, scatter

        nominal = scatter.EmitterParams(item["purcell"], item["detuning"])
        if item["kind"] == "gh":
            return analysis.averaged_fidelity(
                item["n"], nominal, item["sigma"], method="gh", order=item["order"])
        return analysis.averaged_fidelity(
            item["n"], nominal, item["sigma"], method="mc",
            samples=item["samples"], seed=item["seed"])

    def extract(self, item: dict, res) -> dict:
        return {"value": res.value, "evaluations": res.evaluations}

    def check(self, item: dict, out: dict) -> list[str]:
        args = (item["n"], item["purcell"], item["detuning"], item["sigma"])
        if item["kind"] == "gh":
            want, count = oracle.gh_average(*args, item["order"]), item["order"] ** item["n"]
        else:
            want, count = oracle.mc_average(*args, item["samples"], item["seed"]), item["samples"]
        problems = []
        if not oracle.close(out["value"], want, REL_NUMPY):
            problems.append(f"{item['kind']} average {out['value']!r} != {want!r}")
        if out["evaluations"] != count:
            problems.append(f"{out['evaluations']} evaluations, expected {count}")
        return problems


CLI_KINDS = ("coeffs", "run-klm3", "exec-klm5", "fidelity", "sweep-fig5a", "run-trace")
TRACE_MARK = "{trace}"
# A traced run at n=8 costs about twice the other commands, which would
# leave p90 to the few run-trace items of a run; at n=6 all six kinds
# cost within about 15% of each other.
TRACE_N = 6


class Cli:
    """``python -m wgqsim.cli`` subprocesses cycling through six commands.

    With a ``tracer`` the same argv runs through ``tracing.py`` instead,
    which wraps the layers inside the child and writes its spans to a
    file for the parent to merge.
    """

    name = "cli"
    cycle = len(CLI_KINDS)

    def __init__(self, root: str, out_dir: str, env: dict, tracer=None):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.tracer = tracer

    def item(self, seed: int, i: int) -> dict:
        rng = item_rng(self.name, seed, i)
        kind = CLI_KINDS[i % self.cycle]
        purcell, detuning = _operating_point(rng)
        point = [f"--purcell={purcell!r}", f"--detuning={detuning!r}"]
        item = {"kind": kind, "index": i, "purcell": purcell, "detuning": detuning}
        if kind == "coeffs":
            argv = ["coeffs"] + point
        elif kind in ("run-klm3", "exec-klm5", "run-trace"):
            n = {"run-klm3": 3, "exec-klm5": 5, "run-trace": TRACE_N}[kind]
            item["offsets"] = _offsets(rng, n)
            head = {"run-klm3": ["run", "--protocol", "klm3"], "exec-klm5": ["exec", "klm5"],
                    "run-trace": ["run", "--n", str(TRACE_N), "--trace", TRACE_MARK]}[kind]
            argv = head + point + ["--offsets=" + ",".join(repr(x) for x in item["offsets"])]
        elif kind == "fidelity":
            item["sigma"] = float(rng.uniform(0.05, 0.2))
            argv = ["fidelity", "--n", "3"] + point + [f"--sigma={item['sigma']!r}"]
        else:
            lo, hi = float(10 ** rng.uniform(0.0, 1.0)), float(10 ** rng.uniform(2.0, 3.0))
            item["grid"] = [float(x) for x in np.geomspace(lo, hi, 40)]
            argv = ["sweep", "--kind", "fig5a", f"--grid={lo!r}:{hi!r}:40", "--log"]
        item["argv"] = argv
        return item

    def trace_path(self, item: dict) -> str:
        return os.path.join(self.out_dir, f"cli-trace-{item['index']}.txt")

    def spans_path(self, item: dict) -> str:
        return os.path.join(self.out_dir, f"cli-spans-{item['index']}.json")

    def argv(self, item: dict) -> list[str]:
        return [self.trace_path(item) if a == TRACE_MARK else a for a in item["argv"]]

    def command(self, item: dict) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "wgqsim.cli"] + self.argv(item)
        script = os.path.join(self.root, "bench", "tracing.py")
        counting = "1" if self.tracer.count_configs else "0"
        return [sys.executable, script, self.spans_path(item), str(item["index"]), counting] + self.argv(item)

    def call(self, item: dict) -> dict:
        """Run one invocation and reap it with wait4 for its own peak RSS."""
        out_path = os.path.join(self.out_dir, f"cli-stdout-{item['index']}.txt")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen(self.command(item), stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "stdout_path": out_path, "maxrss_kb": usage.ru_maxrss}

    def extract(self, item: dict, raw: dict) -> dict:
        with open(raw["stdout_path"], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(raw["stdout_path"])
        out = {"code": raw["code"], "maxrss_kb": raw["maxrss_kb"]}
        if item["kind"] == "sweep-fig5a":
            out["csv"] = text
        else:
            try:
                out["report"] = json.loads(text)
            except ValueError:
                out["report"] = None
        if item["kind"] == "run-trace":
            path = self.trace_path(item)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    out["trace_head"] = fh.readline()
                    out["trace_bytes"] = len(out["trace_head"]) + len(fh.read())
                os.remove(path)
        return out

    def check(self, item: dict, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        kind, p, d = item["kind"], item["purcell"], item["detuning"]
        if kind == "sweep-fig5a":
            return self._check_csv(item, out["csv"])
        rep = out["report"]
        schema = {"coeffs": "wgqsim.coeffs/1", "fidelity": "wgqsim.fidelity/1"}.get(kind, "wgqsim.run/1")
        if not isinstance(rep, dict) or rep.get("schema") != schema:
            return [f"expected a {schema} report"]
        problems = []
        if kind == "coeffs":
            r = complex(oracle.reflection(p, d))
            for key, want in (("r", r), ("t", 1.0 + r)):
                got = complex(*rep[key])
                if not abs(got - want) <= REL_NUMPY * abs(want):
                    problems.append(f"{key} {rep[key]!r}")
            if not oracle.close(rep["reflect_prob"], abs(r) ** 2, REL_NUMPY):
                problems.append(f"reflect_prob {rep['reflect_prob']!r}")
        elif kind == "fidelity":
            want = oracle.gh_average(3, p, d, item["sigma"], GH_ORDER)
            if not oracle.close(rep["value"], want, REL_NUMPY):
                problems.append(f"value {rep['value']!r} != {want!r}")
        else:
            problems += _chain_problems(rep, p, d, item["offsets"])
            closed = abs(oracle.reflection(p, d)) ** (2 * len(item["offsets"]))
            if not oracle.close(rep["closed_form_success"], closed, REL_CIRCUIT):
                problems.append(f"closed_form_success {rep['closed_form_success']!r}")
        if kind == "run-trace" and not (
            out.get("trace_bytes", 0) > 0 and out["trace_head"].startswith("# step 0")
        ):
            problems.append("trace file missing, empty or not starting with '# step 0'")
        return problems

    def _check_csv(self, item: dict, text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != "purcell,d=0,d=0.1,d=0.15":
            return ["unexpected CSV header"]
        if len(lines) != 1 + len(item["grid"]):
            return [f"{len(lines) - 1} CSV rows for {len(item['grid'])} grid points"]
        problems = []
        for p, line in zip(item["grid"], lines[1:]):
            cells = [float(c) for c in line.split(",")]
            want = [p] + [abs(oracle.reflection(p, d)) ** 2 for d in (0.0, 0.1, 0.15)]
            if not all(oracle.close(c, w, REL_CSV) for c, w in zip(cells, want)):
                problems.append(f"row {line!r}")
        return problems
