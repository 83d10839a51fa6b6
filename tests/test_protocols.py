"""End-to-end protocol runs: herald tables, corrections, the generic chain."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgqsim import protocols
from wgqsim.analysis import success_probability
from wgqsim.params import ProtocolParams
from wgqsim.protocols import (
    THREE_QUBIT_FEEDFORWARD,
    TWO_QUBIT_FEEDFORWARD,
    build_heralded_z,
    build_n_qubit,
    build_protocol,
    build_three_qubit,
    build_two_qubit,
    feedforward_rules,
    infer_protocol,
    postprocess_execution,
    run_protocol,
)
from wgqsim.scatter import EmitterParams, scatter_coeffs
from wgqsim.state import SystemState, klm_target
from wgqsim.circuit import Circuit, execute

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


def suffix_product_chain(purcell, detuning, offsets):
    """Herald probability and weighted fidelity of the chain from its
    branch weights w_j = rnom**j * prod(r_i, i >= j), j = 0..n."""
    def refl(d):
        return -1.0 / (1.0 + 1.0 / purcell - 2.0j * d)

    n = len(offsets)
    rnom = refl(detuning)
    w, suffix = [], 1.0
    for j in range(n, -1, -1):
        w.append(rnom ** j * suffix)
        if j:
            suffix *= refl(detuning + offsets[j - 1])
    mass = sum(abs(x) ** 2 for x in w)
    return mass / (n + 1), abs(sum(w)) ** 2 / ((n + 1) * mass)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.floats(-2.0, 3.0), st.floats(-0.3, 0.3), st.integers(0, 2**32 - 1))
@example(20, math.log10(0.24), 0.0, 0)  # herald 3.0e-29
@example(24, -2.0, 0.1, 1)  # herald about 1e-96
def test_chain_matches_suffix_products_at_low_purcell(n, log_purcell, detuning, seed):
    purcell = 10.0 ** log_purcell
    rng = random.Random(seed)
    offsets = tuple(rng.gauss(0.0, 0.05) for _ in range(n))
    herald, fidelity = suffix_product_chain(purcell, detuning, offsets)
    run = run_protocol(ProtocolParams(n, EmitterParams(purcell, detuning), offsets), "klmN")
    assert run.herald_probability == pytest.approx(herald, rel=1e-9, abs=0)
    assert run.weighted_fidelity == pytest.approx(fidelity, rel=1e-9, abs=0)


def test_chain_herald_below_float_range_reports_no_click():
    # every branch amplitude squared underflows to 0.0, as the closed form does
    nominal = EmitterParams(1e-3, 0.0)
    run = run_protocol(ProtocolParams(60, nominal), "klmN")
    assert run.outcomes == []
    assert run.herald_probability == success_probability(60, nominal) == 0.0


def test_run_protocol_builds_and_validates_once(monkeypatch):
    build_protocol.cache_clear()
    builds, validations = [], []
    build = protocols.build_n_qubit
    validate = Circuit.validate
    monkeypatch.setattr(protocols, "build_n_qubit", lambda n: builds.append(n) or build(n))
    monkeypatch.setattr(Circuit, "validate", lambda c: validations.append(c.name) or validate(c))
    for purcell in (5.0, 50.0, 500.0):
        run_protocol(ProtocolParams(7, EmitterParams(purcell, 0.1)), "klmN")
    assert builds == [7]
    assert validations == ["klmN7"]


def test_cached_circuit_keeps_no_run_state():
    a = ProtocolParams(6, EmitterParams(30.0, 0.07), (0.01, -0.02, 0.03, 0.0, -0.04, 0.05))
    b = ProtocolParams(6, EmitterParams(0.5, -0.2), (0.1,) * 6)
    first = run_protocol(a, "klmN")
    run_protocol(b, "klmN")
    again = run_protocol(a, "klmN")
    fresh = postprocess_execution(execute(build_n_qubit(6), params=a), a, "klmN")
    for other in (again, fresh):
        assert repr(other) == repr(first)


def test_chain_sums_the_full_norm_a_fixed_number_of_times(monkeypatch):
    calls = []
    total_norm = SystemState.total_norm
    monkeypatch.setattr(
        SystemState, "total_norm", property(lambda s: calls.append(1) or total_norm.fget(s))
    )
    counts = []
    for n in (10, 50):
        calls.clear()
        run_protocol(ProtocolParams(n, EmitterParams(20.0, 0.05)), "klmN")
        counts.append(len(calls))
    assert counts == [2, 2]  # the input norm, and the backstop after the bank
