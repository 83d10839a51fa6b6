"""Circuit components, validation, execution, passive unitarity."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from wgqsim.circuit import (
    HWP,
    PBS,
    Attenuator,
    Circuit,
    CircuitError,
    DetectorBank,
    EmitterScatter,
    Mirror,
    Mixer,
    NormViolationError,
    check_passive_unitarity,
    execute,
)
from wgqsim.params import ProtocolParams
from wgqsim.protocols import build_n_qubit, build_two_qubit
from wgqsim.scatter import EmitterParams
from wgqsim.state import SystemState


def tiny_circuit(components, modes=(0, 1), bank=None, n=1):
    bank = bank or DetectorBank.of({(m, p): f"D{m}{p}" for m in modes for p in "HV"})
    return Circuit(
        name="tiny",
        n_emitters=n,
        modes=tuple(modes),
        components=tuple(components) + (bank,),
        input_mode=modes[0],
        input_pol="H",
    )


def test_mixer_matrices_are_unitary():
    mats = [
        Mixer.bs(0, 1).matrix(),
        Mixer.bs_prime(0, 1).matrix(),
        Mixer.custom(0, 1, np.array([[0, 1j], [1j, 0]])).matrix(),
    ] + [Mixer.vbs(0, 1, k, n).matrix() for n in (2, 3, 5) for k in range(1, n + 1)]
    for m in map(np.array, mats):
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_vbs_couples_expected_fraction():
    # stage k of n peels amplitude 1/sqrt(n+2-k) out of the bus
    for n in (2, 3, 5):
        for k in range(1, n + 1):
            m = np.array(Mixer.vbs(0, 1, k, n).matrix())
            q = n + 2 - k
            assert abs(m[0, 1]) ** 2 == pytest.approx(1.0 / q, abs=1e-12)


def test_pbs_of_round_trip():
    p = PBS.of({(0, "H"): 2, (1, "V"): 2})
    assert p.routing_map == {(0, "H"): 2, (1, "V"): 2}
    assert p.modes() == {0, 1, 2}


def test_validate_rejects_missing_bank():
    c = Circuit("x", 1, (0,), (HWP(0, 45.0),))
    with pytest.raises(CircuitError):
        c.validate()


def test_validate_rejects_bank_not_last():
    bank = DetectorBank.of({(0, "H"): "D1", (0, "V"): "D2"})
    c = Circuit("x", 1, (0,), (bank, HWP(0, 45.0)))
    with pytest.raises(CircuitError):
        c.validate()


def test_validate_rejects_undeclared_mode():
    c = tiny_circuit([HWP(7, 45.0)])
    with pytest.raises(CircuitError):
        c.validate()


def test_validate_rejects_duplicate_detectors():
    bank = DetectorBank((((0, "H"), "D1"), ((0, "V"), "D1")))
    c = Circuit("x", 1, (0,), (bank,))
    with pytest.raises(CircuitError):
        c.validate()


def test_validate_rejects_bad_emitter_index():
    c = tiny_circuit([EmitterScatter(0, emitter=3, reflected_out=1, sink="s")])
    with pytest.raises(CircuitError):
        c.validate()


def test_attenuator_needs_exactly_one_setting():
    c = tiny_circuit([Attenuator(0, "s", coeff=0.5, rnom_power=1)])
    with pytest.raises(CircuitError):
        c.validate()
    c = tiny_circuit([Attenuator(0, "s")])
    with pytest.raises(CircuitError):
        c.validate()


def test_execute_simple_routing():
    bank = DetectorBank.of({(1, "H"): "D1", (1, "V"): "D2"})
    c = tiny_circuit([HWP(0, 22.5), Mirror(0, 1)], bank=bank)
    res = execute(c, params=ProtocolParams(1))
    assert res.herald_probability() == pytest.approx(1.0, abs=1e-12)
    probs = {oc.detector: oc.probability for oc in res.outcomes}
    assert probs["D1"] == pytest.approx(0.5, abs=1e-12)
    assert probs["D2"] == pytest.approx(0.5, abs=1e-12)


def test_execute_requires_params_for_calibrated_parts():
    with pytest.raises(CircuitError):
        execute(tiny_circuit([Attenuator(0, "s", rnom_power=1)]))
    with pytest.raises(CircuitError):
        execute(tiny_circuit([EmitterScatter(0, 0, 1, "s")]))


def test_execute_param_count_must_match():
    c = build_two_qubit()
    with pytest.raises(CircuitError):
        execute(c, params=ProtocolParams(3))


def test_mirror_onto_occupied_mode_trips_norm_check():
    # coherent merge of non-orthogonal branches is flagged, not silently
    # kept, at the merging component
    c = tiny_circuit([Mixer.bs(0, 1), Mirror(0, 1)])
    with pytest.raises(NormViolationError) as info:
        execute(c, params=ProtocolParams(1))
    assert (info.value.index, info.value.kind) == (1, "Mirror")
    assert info.value.drift == pytest.approx(1.0, abs=1e-12)
    # the same misuse after the branches took separate paths: wave plate
    # split, router, wave plate back to H, and a mirror onto (0, H, 0)
    c = tiny_circuit(
        [HWP(0, 22.5), PBS.of({(0, "V"): 1}), HWP(1, 45.0), Attenuator(0, "s", coeff=0.8),
         Mirror(1, 0)]
    )
    with pytest.raises(NormViolationError) as info:
        execute(c, params=ProtocolParams(1))
    assert (info.value.index, info.value.kind) == (4, "Mirror")
    assert info.value.drift == pytest.approx(0.8, abs=1e-12)


def test_full_norm_backstop_catches_a_wrong_ledger_entry(monkeypatch):
    # an op that misreports its own norm change passes the per-component
    # ledger check; the full re-sum after the detector bank still trips
    mirror = SystemState.apply_mirror

    def unreported_mirror(state, *args):
        mirror(state, *args)
        return 0.0

    monkeypatch.setattr(SystemState, "apply_mirror", unreported_mirror)
    c = tiny_circuit([Mixer.bs(0, 1), Mirror(0, 1)])
    with pytest.raises(NormViolationError) as info:
        execute(c, params=ProtocolParams(1))
    assert (info.value.index, info.value.kind) == (2, "DetectorBank")
    assert info.value.drift == pytest.approx(1.0, abs=1e-12)


def test_trace_records_every_component():
    c = build_two_qubit()
    params = ProtocolParams(2, EmitterParams(100.0, 0.1))
    res = execute(c, params=params, trace=True)
    assert len(res.trace) == len(c.components)
    dump = res.trace_dump()
    assert dump.startswith("# step 0 ")
    assert "np.float64" not in dump
    res2 = execute(c, params=params)
    with pytest.raises(CircuitError):
        res2.trace_dump()
    # snapshots are copies of the live state: a chain holds at most
    # 2(n+1) slots
    n = 12
    params = ProtocolParams(n, EmitterParams(100.0, 0.1))
    res = execute(build_n_qubit(n), params=params, trace=True)
    assert all(len(step.state.amplitudes) <= 2 * (n + 1) for step in res.trace)
    last = res.trace[-1].state
    assert (last.n, last.amplitudes, last.sinks) == (res.final.n, res.final.amplitudes, res.final.sinks)


def test_find_locates_labeled_components():
    c = build_two_qubit()
    idx = c.find(Mixer, label="bs")
    assert len(idx) == 1
    assert isinstance(c.components[idx[0]], Mixer)
    assert c.find(HWP) and all(isinstance(c.components[i], HWP) for i in c.find(HWP))


def test_passive_unitarity_on_builders():
    rep = check_passive_unitarity(build_two_qubit())
    assert rep.passive_ok
    kinds = {e.kind for e in rep.non_passive}
    assert kinds == {"Attenuator", "EmitterScatter"}


def test_custom_mixer_must_be_unitary_at_execution():
    bad = Mixer.custom(0, 1, np.array([[1.0, 0.0], [0.0, 2.0]]))
    c = tiny_circuit([bad])
    with pytest.raises(CircuitError):
        execute(c, params=ProtocolParams(1))


def test_circuit_is_immutable():
    c = build_two_qubit()
    assert isinstance(c.components, tuple)
    for field, value in (("name", "x"), ("components", ()), ("input_register", "--")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
    # a list given to the constructor is stored as a tuple
    bank = DetectorBank.of({(0, "H"): "D1", (0, "V"): "D2"})
    assert Circuit("x", 1, (0,), [bank]).components == (bank,)
    # a lowered circuit still pickles, and its copy runs the same
    params = ProtocolParams(2, EmitterParams(30.0, 0.1))
    ran = execute(c, params=params)
    clone = pickle.loads(pickle.dumps(c))
    assert clone == c
    assert repr(execute(clone, params=params).outcomes) == repr(ran.outcomes)
