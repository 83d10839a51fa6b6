"""Single-emitter scattering amplitudes and waveplate matrices."""

import math

import numpy as np
import pytest

from wgqsim.scatter import (
    IDEAL,
    PREP_ANGLE_THREE_QUBIT,
    PREP_ANGLE_TWO_QUBIT,
    EmitterParams,
    InvalidParameterError,
    heralded_z_success,
    hwp_matrix,
    scatter_coeffs,
)


def test_ideal_point_is_exact():
    c = scatter_coeffs(EmitterParams())
    assert c.r == -1.0
    assert c.t == 0.0
    assert c.loss == 0.0


def test_known_operating_point():
    # independently computed: r = -1/(1.01 - 0.2j)
    c = scatter_coeffs(EmitterParams(purcell=100.0, detuning=0.1))
    expected = -1.0 / complex(1.01, -0.2)
    assert c.r == pytest.approx(expected, abs=1e-15)
    assert c.reflect_prob == pytest.approx(0.9433072351664938, abs=1e-12)


def test_amplitude_relation():
    for p in (2.0, 10.0, 100.0, IDEAL):
        for d in (-0.4, 0.0, 0.07, 0.3):
            c = scatter_coeffs(EmitterParams(p, d))
            assert c.t == pytest.approx(1.0 + c.r, abs=1e-15)


def test_loss_closed_form():
    # 1 - |r|^2 - |t|^2 reduces to (2/P) / ((1 + 1/P)^2 + 4 d^2)
    for p in (3.0, 50.0, 1000.0):
        for d in (0.0, 0.12, -0.3):
            c = scatter_coeffs(EmitterParams(p, d))
            analytic = (2.0 / p) / ((1.0 + 1.0 / p) ** 2 + 4.0 * d * d)
            assert c.loss == pytest.approx(analytic, abs=1e-14)
            assert c.loss == pytest.approx(1 - c.reflect_prob - c.transmit_prob, abs=1e-14)


def test_reflect_prob_monotone_in_purcell():
    probs = [scatter_coeffs(EmitterParams(p, 0.0)).reflect_prob for p in (1, 5, 20, 200, IDEAL)]
    assert probs == sorted(probs)
    assert probs[-1] == 1.0


def test_reflect_prob_even_in_detuning():
    for d in (0.05, 0.2, 0.45):
        a = scatter_coeffs(EmitterParams(30.0, d)).reflect_prob
        b = scatter_coeffs(EmitterParams(30.0, -d)).reflect_prob
        assert a == pytest.approx(b, abs=1e-15)


def test_offset_adds_to_detuning():
    a = scatter_coeffs(EmitterParams(40.0, 0.1, 0.05))
    b = scatter_coeffs(EmitterParams(40.0, 0.15))
    assert a.r == pytest.approx(b.r, abs=1e-15)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        EmitterParams(purcell=0.0)
    with pytest.raises(InvalidParameterError):
        EmitterParams(purcell=-3.0)
    with pytest.raises(InvalidParameterError):
        EmitterParams(purcell=float("nan"))
    with pytest.raises(InvalidParameterError):
        EmitterParams(detuning=float("inf"))
    with pytest.raises(InvalidParameterError):
        EmitterParams(offset=float("nan"))


def test_heralded_z_success_is_reflectance():
    p = EmitterParams(50.0, 0.13)
    assert heralded_z_success(p) == pytest.approx(scatter_coeffs(p).reflect_prob)
    assert heralded_z_success(p) == pytest.approx(1.0 / 1.108, abs=1e-12)
    assert heralded_z_success(p) > 0.90


def test_hwp_is_real_symmetric_involution():
    for theta in (0.0, 13.0, 22.5, 27.4, 30.0, 45.0, 80.0):
        m = np.array(hwp_matrix(theta))
        assert np.allclose(m, m.T)
        assert np.allclose(m.imag, 0.0)
        assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def test_hwp_named_angles():
    assert np.allclose(hwp_matrix(45.0), [[0, 1], [1, 0]], atol=1e-12)
    assert np.allclose(hwp_matrix(22.5), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-12)
    assert np.allclose(hwp_matrix(0.0), [[1, 0], [0, -1]], atol=1e-12)


def test_preparation_angles():
    # first row of the plate at each angle gives the input photon split
    m2 = np.array(hwp_matrix(PREP_ANGLE_TWO_QUBIT))
    assert m2[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert m2[0, 1] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    m3 = np.array(hwp_matrix(PREP_ANGLE_THREE_QUBIT))
    assert m3[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert m3[0, 1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
