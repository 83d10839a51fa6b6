"""Acceptance suite.

Ten numbered criteria, one test and one printed pass/fail line each.
Expected numbers were frozen from closed forms computed independently
of the library code; sign tables are duplicated literally here so a
drift in the package's own tables cannot hide.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wgqsim.analysis import (
    averaged_fidelity,
    conditioned_fidelity,
    success_probability,
    simulated_success_probability,
    sweep,
)
from wgqsim.circuit import Mixer, execute
from wgqsim.cli import main
from wgqsim.params import ProtocolParams
from wgqsim.protocols import (
    build_three_qubit,
    build_two_qubit,
    run_protocol,
)
from wgqsim.scatter import EmitterParams, scatter_coeffs
from wgqsim.state import klm_target


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def cfg(label):
    return sum(1 << i for i, ch in enumerate(label) if ch == "-")


SIGNS_2 = {
    "D1": {"++": +1, "+-": +1, "--": +1},
    "D2": {"++": +1, "+-": +1, "--": -1},
    "D3": {"++": +1, "+-": -1, "--": -1},
    "D4": {"++": +1, "+-": -1, "--": +1},
}
SIGNS_3 = {
    "D1": {"+++": +1, "++-": +1, "+--": +1, "---": +1},
    "D2": {"+++": +1, "++-": -1, "+--": -1, "---": +1},
    "D3": {"+++": +1, "++-": +1, "+--": -1, "---": -1},
    "D4": {"+++": +1, "++-": -1, "+--": +1, "---": -1},
}


def test_criterion_01_reference_reflectance():
    with criterion(1, "single-emitter reflectance at P=100, d=0.1"):
        got = scatter_coeffs(EmitterParams(100.0, 0.1)).reflect_prob
        assert got == pytest.approx(0.9433, abs=0.0005)


def test_criterion_02_two_emitter_success_probability():
    with criterion(2, "two-emitter success probability, formula and simulation"):
        points = [
            ((100.0, 0.0), 0.96098, 0.0015),
            ((100.0, 0.15), 0.81147, 0.0005),
            ((10.0, 0.0), 0.683, 0.001),
        ]
        for (p, d), expect, tol in points:
            nominal = EmitterParams(p, d)
            closed = success_probability(2, nominal)
            sim = simulated_success_probability(2, nominal)
            assert abs(closed - sim) <= 1e-10
            assert closed == pytest.approx(expect, abs=tol)


def test_criterion_03_three_emitter_success_probability():
    with criterion(3, "three-emitter success probability, formula and simulation"):
        points = [
            ((100.0, 0.0), 0.94205, 0.0015),
            ((100.0, 0.15), 0.73098, 0.0005),
            ((10.0, 0.0), 0.564, 0.001),
        ]
        for (p, d), expect, tol in points:
            nominal = EmitterParams(p, d)
            closed = success_probability(3, nominal)
            sim = simulated_success_probability(3, nominal)
            assert abs(closed - sim) <= 1e-10
            assert closed == pytest.approx(expect, abs=tol)


def test_criterion_04_ideal_herald_tables():
    with criterion(4, "lossless herald tables and exact feedforward recovery"):
        for n, signs in ((2, SIGNS_2), (3, SIGNS_3)):
            run = run_protocol(ProtocolParams(n))
            tgt = klm_target(n)
            assert len(run.outcomes) == 4
            amp = 1.0 / math.sqrt(n + 1)
            for oc in run.outcomes:
                assert oc.probability == pytest.approx(0.25, abs=1e-10)
                pat = signs[oc.detector]
                assert set(oc.conditioned.amps) == {cfg(l) for l in pat}
                for label, sign in pat.items():
                    assert oc.conditioned.amps[cfg(label)] == pytest.approx(
                        sign * amp, abs=1e-10
                    )
                assert oc.corrected.fidelity(tgt) >= 1.0 - 1e-10


def test_criterion_05_generic_chain():
    with criterion(5, "generic chain: any register size, equal to dedicated layouts"):
        # lossless: exact target state out, for every size up to 8
        for n in range(2, 9):
            run = run_protocol(ProtocolParams(n), protocol="klmN")
            tgt = klm_target(n)
            assert run.herald_probability == pytest.approx(1.0, abs=1e-10)
            for oc in run.outcomes:
                assert oc.corrected.fidelity(tgt) >= 1.0 - 1e-10
        # finite purcell and detuning: herald = |r|^(2n) across a grid
        for n in (2, 3, 4):
            for p in (3.0, 10.0, 50.0, 200.0, 1000.0):
                for d in (-0.3, -0.1, 0.0, 0.1, 0.3):
                    nominal = EmitterParams(p, d)
                    run = run_protocol(ProtocolParams(n, nominal), protocol="klmN")
                    expect = scatter_coeffs(nominal).reflect_prob ** n
                    assert run.herald_probability == pytest.approx(expect, abs=1e-10)
        # inhomogeneous offsets: generic agrees with the dedicated builders
        for n, proto in ((2, "klm2"), (3, "klm3")):
            offsets = tuple(0.08 * (i + 1) * (-1) ** i for i in range(n))
            params = ProtocolParams(n, EmitterParams(70.0, 0.04), offsets)
            ded = run_protocol(params, protocol=proto)
            gen = run_protocol(params, protocol="klmN")
            assert gen.herald_probability == pytest.approx(
                ded.herald_probability, abs=1e-10
            )
            assert gen.weighted_fidelity == pytest.approx(
                ded.weighted_fidelity, abs=1e-10
            )


def test_criterion_06_interference_patterns():
    with criterion(6, "pre-detection interference patterns, slot by slot"):
        params2 = ProtocolParams(2, EmitterParams(100.0, 0.07))
        r = scatter_coeffs(params2.nominal).r

        def snapshot(circ, params):
            idx = circ.find(Mixer, label="bs")[0]
            res = execute(circ, params=params, trace=True)
            return res.trace[idx].state

        snap = snapshot(build_two_qubit(), params2)
        scale = r ** 2 / (2.0 * math.sqrt(3.0))
        expected = {}
        for (mode, pol), det in (
            ((6, "H"), "D1"), ((6, "V"), "D2"), ((7, "H"), "D3"), ((7, "V"), "D4"),
        ):
            for label, sign in SIGNS_2[det].items():
                expected[(mode, pol, cfg(label))] = sign * scale
        for k in set(expected) | set(snap.amplitudes):
            assert snap.amplitudes.get(k, 0.0) == pytest.approx(
                expected.get(k, 0.0), abs=1e-10
            )

        params3 = ProtocolParams(3, EmitterParams(100.0, 0.07))
        snap = snapshot(build_three_qubit(), params3)
        scale = r ** 3 / 4.0
        expected = {}
        for (mode, pol), det in (
            ((9, "H"), "D1"), ((9, "V"), "D2"), ((10, "H"), "D3"), ((10, "V"), "D4"),
        ):
            for label, sign in SIGNS_3[det].items():
                expected[(mode, pol, cfg(label))] = sign * scale
        for k in set(expected) | set(snap.amplitudes):
            assert snap.amplitudes.get(k, 0.0) == pytest.approx(
                expected.get(k, 0.0), abs=1e-10
            )


def test_criterion_07_probability_bookkeeping():
    with criterion(7, "probability bookkeeping over 200 randomized runs"):
        rng = np.random.default_rng(20240822)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            p = float(10 ** rng.uniform(0.2, 2.7))
            d = float(rng.uniform(-0.4, 0.4))
            offsets = tuple(float(x) for x in rng.normal(0.0, 0.15, size=n))
            proto = ("klm2" if n == 2 else "klm3" if n == 3 else "klmN")
            if rng.random() < 0.3:
                proto = "klmN"
            run = run_protocol(ProtocolParams(n, EmitterParams(p, d), offsets), protocol=proto)
            total = run.herald_probability + sum(run.sinks.values())
            assert total == pytest.approx(1.0, abs=1e-10)


def test_criterion_08_broadening_average():
    with criterion(8, "broadening average: limits, quadrature, reference kernel"):
        nominal = EmitterParams(100.0, 0.0)
        assert averaged_fidelity(2, nominal, 0.0).value == pytest.approx(1.0, abs=1e-12)
        vals = [averaged_fidelity(2, nominal, s).value for s in (0.0, 0.1, 0.2, 0.3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        gh = averaged_fidelity(3, nominal, 0.15, method="gh")
        mc = averaged_fidelity(3, nominal, 0.15, method="mc", samples=60_000, seed=1)
        assert abs(gh.value - mc.value) <= 3.0 * mc.std_error

        # dense hand-rolled reference against the library's full simulation
        def reference(n, nom, offsets):
            def refl(dd):
                return -1.0 / (1.0 + 1.0 / nom.purcell - 2.0j * dd)

            rnom = refl(nom.detuning)
            rs = [refl(nom.detuning + o) for o in offsets]
            ws = []
            for j in range(n + 1):
                w = rnom ** j
                for i in range(j, n):
                    w *= rs[i]
                ws.append(w)
            return abs(sum(ws)) ** 2 / ((n + 1) * sum(abs(w) ** 2 for w in ws))

        rng = np.random.default_rng(8)
        for n in (2, 3):
            for _ in range(5):
                offsets = tuple(float(x) for x in rng.normal(0.0, 0.2, size=n))
                sim = conditioned_fidelity(ProtocolParams(n, EmitterParams(60.0, 0.05), offsets))
                assert sim == pytest.approx(reference(n, EmitterParams(60.0, 0.05), offsets), abs=1e-10)


def test_criterion_09_cli_contract(tmp_path):
    with criterion(9, "CLI: stable reports, builder/netlist parity, exit codes"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--purcell", "100", "--detuning", "0.1", "--offsets", "0.06,-0.02"]
        assert main(["run", "--protocol", "klm2", *flags, "--out", str(a)]) == 0
        assert main(["exec", "klm2", *flags, "--out", str(b)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("timing_s"), rb.pop("timing_s")
        assert ra == rb

        assert main(["coeffs", "--out", str(tmp_path / "c.json")]) == 0
        assert main(["exec", str(tmp_path / "missing.wgq")]) == 1
        bad = tmp_path / "bad.wgq"
        bad.write_text("circuit x\nmodes 0\n")
        assert main(["exec", str(bad)]) == 3
        assert main(["run", "--protocol", "klm2", "--offsets", "1,2,3"]) == 2
        trip = tmp_path / "trip.wgq"
        trip.write_text(
            "circuit trip\nemitters 1\nmodes 0 1\nmix kind=bs a=0 b=1\n"
            "mirror in=0 out=1\ndetect D1=(1,H) D2=(1,V)\n"
        )
        assert main(["exec", str(trip)]) == 4

        mc = ["fidelity", "--n", "2", "--sigma", "0.2", "--method", "mc",
              "--samples", "4000", "--seed", "5"]
        assert main(mc + ["--out", str(tmp_path / "m1.json")]) == 0
        assert main(mc + ["--out", str(tmp_path / "m2.json")]) == 0
        m1 = json.loads((tmp_path / "m1.json").read_text())
        m2 = json.loads((tmp_path / "m2.json").read_text())
        assert m1["value"] == m2["value"] and m1["std_error"] == m2["std_error"]


def test_criterion_10_runtime_budget():
    with criterion(10, "runtime budget: preset sweep under 10 s, 10-emitter run under 1 s"):
        t0 = time.perf_counter()
        sweep("fig6")
        sweep_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        run = run_protocol(ProtocolParams(10, EmitterParams(100.0, 0.05)), protocol="klmN")
        big_s = time.perf_counter() - t0
        assert run.herald_probability > 0
        assert sweep_s < 10.0
        assert big_s < 1.0
