"""End-to-end protocol runs: herald tables, corrections, the generic chain."""

import math

import pytest

from wgqsim.params import ProtocolParams
from wgqsim.protocols import (
    THREE_QUBIT_FEEDFORWARD,
    TWO_QUBIT_FEEDFORWARD,
    build_heralded_z,
    build_n_qubit,
    build_three_qubit,
    build_two_qubit,
    feedforward_rules,
    infer_protocol,
    run_protocol,
)
from wgqsim.scatter import EmitterParams, scatter_coeffs
from wgqsim.state import klm_target
from wgqsim.circuit import execute

IDEAL2 = ProtocolParams(2)
IDEAL3 = ProtocolParams(3)


def label_to_config(label):
    # '-' on emitter i sets bit i; emitter 0 is the leftmost character
    return sum(1 << i for i, ch in enumerate(label) if ch == "-")


# sign of the conditioned amplitude on each domain-wall config, per detector
TWO_QUBIT_SIGNS = {
    "D1": {"++": +1, "+-": +1, "--": +1},
    "D2": {"++": +1, "+-": +1, "--": -1},
    "D3": {"++": +1, "+-": -1, "--": -1},
    "D4": {"++": +1, "+-": -1, "--": +1},
}
THREE_QUBIT_SIGNS = {
    "D1": {"+++": +1, "++-": +1, "+--": +1, "---": +1},
    "D2": {"+++": +1, "++-": -1, "+--": -1, "---": +1},
    "D3": {"+++": +1, "++-": +1, "+--": -1, "---": -1},
    "D4": {"+++": +1, "++-": -1, "+--": +1, "---": -1},
}


def test_two_qubit_ideal_herald_table():
    run = run_protocol(IDEAL2)
    assert run.herald_probability == pytest.approx(1.0, abs=1e-12)
    amp = 1.0 / math.sqrt(3.0)
    for oc in run.outcomes:
        assert oc.probability == pytest.approx(0.25, abs=1e-12)
        signs = TWO_QUBIT_SIGNS[oc.detector]
        assert set(oc.conditioned.amps) == {label_to_config(l) for l in signs}
        for label, sign in signs.items():
            got = oc.conditioned.amps[label_to_config(label)]
            assert got == pytest.approx(sign * amp, abs=1e-12)


def test_three_qubit_ideal_herald_table():
    run = run_protocol(IDEAL3)
    assert run.herald_probability == pytest.approx(1.0, abs=1e-12)
    amp = 0.5
    for oc in run.outcomes:
        assert oc.probability == pytest.approx(0.25, abs=1e-12)
        signs = THREE_QUBIT_SIGNS[oc.detector]
        for label, sign in signs.items():
            got = oc.conditioned.amps[label_to_config(label)]
            assert got == pytest.approx(sign * amp, abs=1e-12)


def test_feedforward_corrects_every_detector():
    for params in (IDEAL2, IDEAL3, ProtocolParams(2, EmitterParams(100.0, 0.1))):
        run = run_protocol(params)
        tgt = klm_target(params.n)
        for oc in run.outcomes:
            assert oc.corrected.fidelity(tgt) == pytest.approx(1.0, abs=1e-10)
        assert run.weighted_fidelity == pytest.approx(1.0, abs=1e-10)


def test_feedforward_tables_are_what_the_states_need():
    # recompute the needed flip set from the conditioned states themselves
    for params, table in ((IDEAL2, TWO_QUBIT_FEEDFORWARD), (IDEAL3, THREE_QUBIT_FEEDFORWARD)):
        run = run_protocol(params)
        tgt = klm_target(params.n)
        for oc in run.outcomes:
            assert oc.flips == table[oc.detector]
            manual = oc.conditioned.apply_sign_flips(oc.flips)
            assert manual.fidelity(tgt) == pytest.approx(1.0, abs=1e-12)


def test_feedforward_rules_dispatch():
    assert feedforward_rules("klm2") == TWO_QUBIT_FEEDFORWARD
    assert feedforward_rules("klm3") == THREE_QUBIT_FEEDFORWARD
    generic = feedforward_rules("klmN")
    assert set(generic) == {"D1", "D2"}
    assert generic["D1"] == ()
    assert generic["D2"] == (0,)


def test_herald_probability_closed_form():
    # detuned, finite purcell: herald = |r|^(2n) for the dedicated builders
    for n, params in (
        (2, ProtocolParams(2, EmitterParams(100.0, 0.0))),
        (2, ProtocolParams(2, EmitterParams(100.0, 0.15))),
        (2, ProtocolParams(2, EmitterParams(10.0, 0.0))),
        (3, ProtocolParams(3, EmitterParams(100.0, 0.15))),
    ):
        run = run_protocol(params)
        rp = scatter_coeffs(params.nominal).reflect_prob
        assert run.herald_probability == pytest.approx(rp ** n, abs=1e-12)


def test_homogeneous_detuning_keeps_perfect_fidelity():
    run = run_protocol(ProtocolParams(3, EmitterParams(50.0, 0.25)))
    assert run.weighted_fidelity == pytest.approx(1.0, abs=1e-10)


def test_inhomogeneous_offsets_degrade_fidelity():
    run = run_protocol(ProtocolParams(2, EmitterParams(100.0, 0.0), (0.1, -0.05)))
    assert run.weighted_fidelity < 1.0 - 1e-4
    # every detector sees the same corrected state, so the same fidelity
    fids = [oc.fidelity for oc in run.outcomes]
    assert max(fids) - min(fids) < 1e-12


def test_generic_chain_matches_dedicated():
    params2 = ProtocolParams(2, EmitterParams(80.0, 0.05), (0.07, -0.11))
    runs = [
        run_protocol(params2, protocol="klm2"),
        run_protocol(params2, protocol="klmN"),
    ]
    assert runs[0].herald_probability == pytest.approx(runs[1].herald_probability, abs=1e-12)
    assert runs[0].weighted_fidelity == pytest.approx(runs[1].weighted_fidelity, abs=1e-12)
    a = runs[0].outcomes[0].corrected
    b = runs[1].outcomes[0].corrected
    assert abs(a.overlap(b)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_generic_chain_scales():
    for n in (4, 6, 40, 100):
        run = run_protocol(ProtocolParams(n, EmitterParams(100.0, 0.0)))
        rp = scatter_coeffs(EmitterParams(100.0, 0.0)).reflect_prob
        assert len(run.outcomes) == 2
        for oc in run.outcomes:
            assert oc.probability == pytest.approx(rp ** n / 2.0, abs=1e-12)
            assert oc.corrected.fidelity(klm_target(n)) == pytest.approx(1.0, abs=1e-10)


def test_heralded_z_builder():
    c = build_heralded_z()
    params = ProtocolParams(1, EmitterParams(50.0, 0.13))
    res = execute(c, params=params)
    rp = scatter_coeffs(params.nominal).reflect_prob
    by_det = {oc.detector: oc.probability for oc in res.outcomes}
    assert sum(by_det.values()) == pytest.approx(rp, abs=1e-12)
    assert rp == pytest.approx(1.0 / 1.108, abs=1e-12)


def test_infer_protocol_from_circuit_names():
    assert infer_protocol(build_two_qubit()) == "klm2"
    assert infer_protocol(build_three_qubit()) == "klm3"
    assert infer_protocol(build_n_qubit(4)) == "klmN"
    c = build_heralded_z()
    assert infer_protocol(c) is None


def test_run_protocol_rejects_tiny_registers():
    with pytest.raises(Exception):
        run_protocol(ProtocolParams(1))
