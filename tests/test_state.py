"""Sparse photon-register state: operations, invariants, measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqsim.scatter import EmitterParams, hwp_matrix, scatter_coeffs
from wgqsim.state import (
    ENERGY,
    H,
    PLUSMINUS,
    V,
    EmitterState,
    StateOpError,
    SystemState,
    UncoveredSlotError,
    _check_unitary,
    config_label,
    klm_target,
)

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def random_state(rng, n=2, modes=(0, 1, 2)):
    amps = {}
    for m in modes:
        for p in (H, V):
            for c in range(1 << n):
                if rng.random() < 0.6:
                    amps[(m, p, c)] = complex(rng.normal(), rng.normal())
    if not amps:  # rare all-rejected draw
        amps[(modes[0], H, 0)] = 1.0
    return normalized(SystemState(n, amps))


def normalized(s):
    norm = math.sqrt(s.total_norm)
    return SystemState(s.n, {k: a / norm for k, a in s.amplitudes.items()}, s.sinks)


def single_pol(s, mode, sinks=None):
    """s with the V slots of mode added onto H: scattering input is single-pol."""
    amps = dict(s.amplitudes)
    for (m, p, c) in list(amps):
        if m == mode and p == V:
            amps[(m, H, c)] = amps.get((m, H, c), 0.0) + amps.pop((m, p, c))
    return SystemState(s.n, amps, sinks)


def states_close(a, b, tol):
    """Same register size, and every amplitude and sink within tol of the
    other's (a slot missing on one side counts as 0)."""
    def close(x, y):
        return all(abs(x.get(k, 0.0) - y.get(k, 0.0)) <= tol for k in x.keys() | y.keys())

    return a.n == b.n and close(a.amplitudes, b.amplitudes) and close(a.sinks, b.sinks)


def per_slot_change_basis(amplitudes, n, basis):
    """Hadamard the register of each (mode, pol) slot via EmitterState.

    ``basis`` is the basis the amplitudes are in; the result is in the other.
    """
    groups = {}
    for (m, p, c), a in amplitudes.items():
        groups.setdefault((m, p), {})[c] = a
    out = {}
    for (m, p), amps in sorted(groups.items()):
        for c, a in EmitterState(n, basis, amps).change_basis().amps.items():
            out[(m, p, c)] = a
    return out


def to_energy(s):
    return per_slot_change_basis(s.amplitudes, s.n, PLUSMINUS)


def from_energy(amplitudes, n, sinks=None):
    return SystemState(n, per_slot_change_basis(amplitudes, n, ENERGY), sinks)


def test_config_label_orders_first_emitter_first():
    assert config_label(0, 3) == "+++"
    assert config_label(1, 3) == "-++"
    assert config_label(4, 3) == "++-"
    assert config_label(0b101, 3) == "-+-"


def test_initial_state_register_and_norm():
    s = SystemState.initial(2, photon_mode=0, photon_pol=H, emitters="++")
    assert s.amplitudes == {(0, H, 0b00): 1.0}
    assert s.total_norm == pytest.approx(1.0, abs=1e-14)
    # product of two |+> states: every energy config at 1/2
    e = to_energy(s)
    assert sum(abs(a) ** 2 for a in e.values()) == pytest.approx(1.0, abs=1e-14)
    for c in range(4):
        assert e[(0, H, c)] == pytest.approx(0.5)
    t = SystemState.initial(2, 0, H, "+-")
    assert t.amplitudes == {(0, H, 0b10): 1.0}
    assert to_energy(t)[(0, H, 0b10)] == pytest.approx(-0.5)
    # one slot however large the register
    assert len(SystemState.initial(60, 0, V, "+-" * 30).amplitudes) == 1


def test_klm_target():
    for n in (2, 3, 5):
        tgt = klm_target(n)
        assert len(tgt.amps) == n + 1
        for j in range(n + 1):
            cfg = ((1 << n) - 1) & ~((1 << j) - 1)
            assert tgt.amps[cfg] == pytest.approx(1 / math.sqrt(n + 1))
        assert tgt.norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_polarization_unitary_single_application():
    # a config occupied in both H and V must be transformed once, not twice
    s = SystemState(1, {(0, H, 0): 0.6, (0, V, 0): 0.8})
    s.apply_polarization_unitary(0, hwp_matrix(22.5))
    r2 = math.sqrt(2)
    assert s.amplitudes[(0, H, 0)] == pytest.approx((0.6 + 0.8) / r2, abs=1e-14)
    assert s.amplitudes[(0, V, 0)] == pytest.approx((0.6 - 0.8) / r2, abs=1e-14)


def test_mode_mixer_single_application():
    s = SystemState(1, {(0, H, 0): 0.6, (1, H, 0): 0.8})
    s.apply_mode_mixer(0, 1, BS)
    r2 = math.sqrt(2)
    assert s.amplitudes[(0, H, 0)] == pytest.approx((0.6 + 0.8) / r2, abs=1e-14)
    assert s.amplitudes[(1, H, 0)] == pytest.approx((0.6 - 0.8) / r2, abs=1e-14)


def test_non_unitary_matrix_rejected():
    s = SystemState(1, {(0, H, 0): 1.0})
    with pytest.raises(StateOpError):
        s.apply_polarization_unitary(0, np.array([[1.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize(
    "matrix, ok",
    [
        (((1 + 4e-6, 0), (0, 1)), True),  # diagonal of M^H M within 1e-10 + 1e-5
        (((1 + 6e-6, 0), (0, 1)), False),
        (((1, 0.9e-10), (0, 1)), True),  # off-diagonal within 1e-10
        (((1, 2e-10), (0, 1)), False),
    ],
)
def test_unitarity_tolerance_boundary(matrix, ok):
    if ok:
        _check_unitary(matrix)
    else:
        with pytest.raises(StateOpError):
            _check_unitary(matrix)


def test_check_unitary_rejects_non_2x2():
    for bad in (((1, 0, 0), (0, 1, 0)), ((1, 0),), None):
        with pytest.raises(StateOpError):
            _check_unitary(bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_unitary_ops_conserve_norm(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng)
    before = s.total_norm
    s.apply_polarization_unitary(1, hwp_matrix(rng.uniform(0, 90)))
    s.apply_mode_mixer(0, 2, BS)
    s.apply_mirror(2, 5)
    assert s.total_norm == pytest.approx(before, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_scatter_conserves_norm_with_sink(seed):
    rng = np.random.default_rng(seed)
    s = normalized(single_pol(random_state(rng, modes=(0,)), 0))
    c = scatter_coeffs(EmitterParams(purcell=rng.uniform(2, 200), detuning=rng.uniform(-0.3, 0.3)))
    s.apply_emitter_scatter(0, emitter=1, reflected_out=3, coeffs=c, herald_sink="miss")
    # total_norm counts sinks, so it stays 1; the live part shrinks by |r|^2
    live = sum(abs(a) ** 2 for a in s.amplitudes.values())
    assert s.total_norm == pytest.approx(1.0, abs=1e-12)
    assert live == pytest.approx(c.reflect_prob, abs=1e-12)
    assert s.sinks["miss"] == pytest.approx(1 - c.reflect_prob, abs=1e-12)


def random_unitary(rng):
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return ((a, -b.conjugate() * phase), (b, a.conjugate() * phase))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
def test_each_op_returns_its_norm_change(seed, n):
    # the ledger entry of every op equals the change of the full re-sum,
    # also where the op does not conserve the norm (mirror onto an
    # occupied mode, attenuation with a sink, scattering)
    rng = np.random.default_rng(seed)
    s = random_state(rng, n=n, modes=(0, 1, 2, 3))
    s = single_pol(s, 3, sinks={"old": float(rng.uniform(0, 1))})
    emitter = int(rng.integers(n))
    r = scatter_coeffs(EmitterParams(purcell=10 ** rng.uniform(-2, 3), detuning=rng.uniform(-0.3, 0.3)))
    coeff = complex(rng.normal(), rng.normal())
    coeff *= rng.uniform(0, 1) / abs(coeff)
    ops = [
        lambda: s.apply_polarization_unitary(int(rng.integers(3)), random_unitary(rng)),
        lambda: s.apply_polarization_unitary(1, hwp_matrix(rng.uniform(0, 90))),
        lambda: s.apply_mode_mixer(0, 1, random_unitary(rng)),
        lambda: s.apply_mode_mixer(1, 4, BS),
        lambda: s.apply_pbs({(0, H): 5, (1, V): 6}),
        lambda: s.apply_mirror(int(rng.integers(3)), int(rng.integers(3))),
        lambda: s.apply_mirror(1, 7),
        lambda: s.apply_attenuator(int(rng.integers(3)), coeff, "att"),
        lambda: s.apply_emitter_scatter(3, emitter, r, int(rng.integers(3)), "miss"),
    ]
    for i in rng.permutation(len(ops)):
        before = s.total_norm
        delta = ops[i]()
        assert abs(s.total_norm - before - delta) <= 1e-12, i


def test_scatter_sign_and_flip():
    c = scatter_coeffs(EmitterParams(100.0, 0.05))
    s = SystemState(2, {(0, H, 0b00): 0.6, (0, H, 0b10): 0.8})
    s.apply_emitter_scatter(0, emitter=0, reflected_out=1, coeffs=c, herald_sink="m")
    # r*Z flips emitter 0's plusminus bit with +r; polarization flips H -> V
    assert s.amplitudes[(1, V, 0b01)] == pytest.approx(0.6 * c.r, abs=1e-14)
    assert s.amplitudes[(1, V, 0b11)] == pytest.approx(0.8 * c.r, abs=1e-14)
    assert set(s.amplitudes) == {(1, V, 0b01), (1, V, 0b11)}
    assert s.sinks["m"] == pytest.approx(1 - c.reflect_prob, abs=1e-14)

    # seen in the energy basis: the g- branch picks up a minus sign
    e = from_energy({(0, H, 0b00): 1 / math.sqrt(2), (0, H, 0b01): 1 / math.sqrt(2)}, 2)
    e.apply_emitter_scatter(0, emitter=0, reflected_out=1, coeffs=c, herald_sink="m")
    out = to_energy(e)
    assert out[(1, V, 0b00)] == pytest.approx(c.r / math.sqrt(2), abs=1e-14)
    assert out[(1, V, 0b01)] == pytest.approx(-c.r / math.sqrt(2), abs=1e-14)
    assert (0, H, 0) not in out
    assert e.sinks["m"] == pytest.approx(1 - c.reflect_prob, abs=1e-14)


def energy_sign_scatter(s, in_mode, emitter, r, out_mode):
    """Reference scatter: Hadamard, +-r sign on the energy bit, Hadamard."""
    amps = {}
    for (m, p, c), a in to_energy(s).items():
        if m == in_mode:
            key, a = (out_mode, V if p == H else H, c), (-r if c >> emitter & 1 else r) * a
        else:
            key = (m, p, c)
        amps[key] = amps.get(key, 0.0) + a
    return from_energy(amps, s.n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
def test_plusminus_scatter_matches_energy_sign_scatter(seed, n):
    rng = np.random.default_rng(seed)
    s = single_pol(random_state(rng, n=n, modes=(0, 1, 2)), 0)
    emitter = int(rng.integers(n))
    out_mode = int(rng.choice([1, 3]))  # onto an occupied or an empty mode
    c = scatter_coeffs(EmitterParams(purcell=rng.uniform(1, 200), detuning=rng.uniform(-0.3, 0.3)))
    ref = energy_sign_scatter(s, 0, emitter, c.r, out_mode)
    s.apply_emitter_scatter(0, emitter=emitter, reflected_out=out_mode, coeffs=c, herald_sink="m")
    ref = SystemState(ref.n, ref.amplitudes, s.sinks)
    assert states_close(s, ref, tol=1e-12)


def test_pbs_routes_and_merges():
    s = SystemState(1, {(0, H, 0): 0.6, (1, V, 0): 0.8})
    s.apply_pbs({(0, H): 4, (1, V): 4})
    assert s.amplitudes[(4, H, 0)] == 0.6
    assert s.amplitudes[(4, V, 0)] == 0.8
    assert s.total_norm == pytest.approx(1.0)


def test_pbs_collision_detected():
    s = SystemState(1, {(0, H, 0): 0.6, (1, H, 0): 0.8})
    with pytest.raises(StateOpError):
        s.apply_pbs({(0, H): 4, (1, H): 4})


def test_mirror_merges_coherently():
    s = SystemState(1, {(0, H, 0): 0.5, (1, H, 1): 0.5})
    s.apply_mirror(0, 1)
    assert s.amplitudes[(1, H, 0)] == 0.5
    assert s.amplitudes[(1, H, 1)] == 0.5


def test_attenuator_drops_to_sink():
    s = SystemState(1, {(0, H, 0): 1.0})
    s.apply_attenuator(0, 0.6, "gone")
    assert s.amplitudes[(0, H, 0)] == pytest.approx(0.6)
    assert s.sinks["gone"] == pytest.approx(0.64)
    with pytest.raises(StateOpError):
        s.apply_attenuator(0, 1.5, "gone")


def test_amplitudes_view_is_read_only():
    s = SystemState.initial(1, 0, H, "+")
    with pytest.raises(TypeError):
        s.amplitudes[(0, H, 0)] = 0.5
    assert s.amplitudes == {(0, H, 0): 1.0}


class CountingMode(int):
    """Mode label that counts how often it is compared for equality."""

    eq_calls = 0

    def __eq__(self, other):
        CountingMode.eq_calls += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


def mode_op_comparisons(background_modes):
    """Equality tests on other modes' labels made by each op on modes 0..4.

    Each background mode holds 100 slots; modes 0 and 1 hold four.
    """
    amps = {(m, p, c): 0.01 for m in (0, 1) for p in (H, V) for c in (0, 1)}
    for i in range(background_modes):
        label = CountingMode(1000 + i)
        amps.update({(label, p, c): 0.01 for p in (H, V) for c in range(50)})
    s = SystemState(6, amps)
    coeffs = scatter_coeffs(EmitterParams(100.0, 0.05))
    ops = [
        lambda: s.apply_polarization_unitary(0, hwp_matrix(22.5)),
        lambda: s.apply_mode_mixer(0, 1, BS),
        lambda: s.apply_pbs({(0, H): 2, (1, V): 3}),
        lambda: s.apply_mirror(2, 0),
        lambda: s.apply_attenuator(0, 0.5, "att"),
        lambda: s.apply_emitter_scatter(3, 0, coeffs, 4, "miss"),
    ]
    counts = []
    for op in ops:
        CountingMode.eq_calls = 0
        op()
        counts.append(CountingMode.eq_calls)
    return counts


def test_mode_ops_do_not_visit_other_modes():
    # an op on one or two modes costs the same whether the other modes
    # hold 100 slots or 10,000
    assert mode_op_comparisons(100) == mode_op_comparisons(1)


def test_change_basis_round_trip():
    rng = np.random.default_rng(7)
    ref = EmitterState(3, PLUSMINUS, {c: complex(rng.normal(), rng.normal()) for c in range(8)})
    e = ref.change_basis()
    assert e.basis == ENERGY
    assert e.norm_sq() == pytest.approx(ref.norm_sq(), abs=1e-12)
    back = e.change_basis()
    assert back.basis == PLUSMINUS
    assert set(back.amps) == set(ref.amps)
    for c in ref.amps:
        assert back.amps[c] == pytest.approx(ref.amps[c], abs=1e-12)


def test_measure_detector_bank():
    s = SystemState.initial(2, 0, H, "++")
    outcomes = s.measure_detector_bank({(0, H): "D1"})
    assert len(outcomes) == 1
    oc = outcomes[0]
    assert oc.detector == "D1"
    assert oc.probability == pytest.approx(1.0, abs=1e-14)
    assert oc.state.norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_measure_requires_coverage():
    s = SystemState(2, {(0, H, 0): 1.0, (6, V, 0): 0.3})
    with pytest.raises(UncoveredSlotError):
        s.measure_detector_bank({(0, H): "D1"})


def test_emitter_state_fidelity_and_flips():
    tgt = klm_target(2)
    st = EmitterState(2, PLUSMINUS, dict(tgt.amps))
    st.amps[0b11] = -st.amps[0b11]
    assert st.fidelity(tgt) < 1.0
    st.apply_sign_flips((0, 1))  # flips sign of configs with odd bit parity: 01, 10
    st.amps[0b11] = -st.amps[0b11]
    assert st.fidelity(tgt) == pytest.approx(1.0, abs=1e-14)


def test_phase_normalized_anchor():
    st = EmitterState(2, PLUSMINUS, {0: -0.6, 3: 0.8j})
    ph = st.phase_normalized()
    assert ph.amps[0].real > 0
    assert ph.amps[0].imag == pytest.approx(0.0, abs=1e-15)
    assert ph.fidelity(st) == pytest.approx(1.0, abs=1e-14)


def test_dump_is_sorted_and_plain():
    s = SystemState.initial(2, 1, V, "+-")
    text = s.dump()
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert "np.float64" not in text
    for line in lines:
        mode, pol, cfg, re_s, im_s = line.split(",")
        float(re_s), float(im_s)  # parses back
