"""Figures of merit: closed forms, broadening averages, sweeps."""

import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wgqsim.analysis import (
    DEFAULT_GH_ORDER,
    GH_NODE_BUDGET,
    QuadratureBudgetError,
    averaged_fidelity,
    conditioned_fidelity,
    fidelity_kernel,
    simulated_success_probability,
    success_probability,
    sweep,
)
from wgqsim.params import ProtocolParams
from wgqsim.scatter import EmitterParams, InvalidParameterError, scatter_coeffs

SVG_NS = "{http://www.w3.org/2000/svg}"


def brute_force_fidelity(n, nominal, offsets):
    """Dense reference: per-branch weights, no vectorization, no simulator."""
    rnom = -1.0 / (1.0 + 1.0 / nominal.purcell - 2.0j * nominal.detuning)
    rs = []
    for off in offsets:
        d = nominal.detuning + off
        rs.append(-1.0 / (1.0 + 1.0 / nominal.purcell - 2.0j * d))
    ws = []
    for j in range(n + 1):
        w = rnom ** j
        for i in range(j, n):
            w *= rs[i]
        ws.append(w)
    num = abs(sum(ws)) ** 2
    den = (n + 1) * sum(abs(w) ** 2 for w in ws)
    return num / den


def test_success_probability_values():
    assert success_probability(2, EmitterParams(100.0, 0.0)) == pytest.approx(
        0.960980344482816, abs=1e-12
    )
    assert success_probability(2, EmitterParams(10.0, 0.0)) == pytest.approx(
        (1 / 1.21) ** 2, abs=1e-12
    )
    assert success_probability(3, EmitterParams(100.0, 0.15)) == pytest.approx(
        0.7309937976104406, abs=1e-12
    )


def test_closed_form_matches_simulation():
    for n in (2, 3):
        for p, d in ((100.0, 0.0), (100.0, 0.15), (10.0, 0.0), (37.0, -0.21)):
            nominal = EmitterParams(p, d)
            assert simulated_success_probability(n, nominal) == pytest.approx(
                success_probability(n, nominal), abs=1e-12
            )


def test_conditioned_fidelity_weightings_agree_here():
    # detuning offsets cost fidelity
    params = ProtocolParams(2, EmitterParams(100.0, 0.0), (0.1, -0.05))
    assert conditioned_fidelity(params) < 1.0


def test_kernel_matches_simulation():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        offsets = rng.normal(0.0, 0.12, size=(4, n))
        nominal = EmitterParams(60.0, 0.08)
        kern = fidelity_kernel(n, nominal, offsets)
        for row, f in zip(offsets, kern):
            sim = conditioned_fidelity(ProtocolParams(n, nominal, tuple(row)))
            assert f == pytest.approx(sim, abs=1e-10)


def test_kernel_matches_dense_reference():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        offsets = rng.normal(0.0, 0.2, size=(6, n))
        nominal = EmitterParams(45.0, -0.1)
        kern = fidelity_kernel(n, nominal, offsets)
        for row, f in zip(offsets, kern):
            assert f == pytest.approx(brute_force_fidelity(n, nominal, row), abs=1e-12)


def test_averaged_fidelity_zero_sigma():
    res = averaged_fidelity(2, EmitterParams(100.0, 0.1), 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.evaluations == 1


def test_fidelities_stay_in_unit_interval():
    # each of these read 1 + a few ulps before the clamps
    assert fidelity_kernel(2, EmitterParams(100.0, -0.19), np.zeros((1, 2)))[0] <= 1.0
    for n in (1, 2, 4):
        assert averaged_fidelity(n, EmitterParams(100.0, 0.0), 1e-13, order=10).value <= 1.0
    assert 0.0 <= conditioned_fidelity(ProtocolParams(200, EmitterParams(100.0, 0.1))) <= 1.0


def test_averaged_fidelity_monotone_in_sigma():
    vals = [
        averaged_fidelity(2, EmitterParams(100.0, 0.0), s).value
        for s in (0.0, 0.05, 0.1, 0.2, 0.3)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[-1] < 0.95


def test_gh_against_monte_carlo():
    nominal = EmitterParams(100.0, 0.0)
    gh = averaged_fidelity(3, nominal, 0.15, method="gh")
    mc = averaged_fidelity(3, nominal, 0.15, method="mc", samples=60_000, seed=3)
    assert abs(gh.value - mc.value) < 3.0 * mc.std_error
    assert gh.std_error is None
    assert gh.evaluations == DEFAULT_GH_ORDER ** 3


def test_gh_simulation_integrand_cross_check():
    nominal = EmitterParams(80.0, 0.05)
    a = averaged_fidelity(2, nominal, 0.1, order=6)
    b = averaged_fidelity(2, nominal, 0.1, order=6, integrand="simulation")
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_mc_is_seed_deterministic():
    nominal = EmitterParams(100.0, 0.0)
    x = averaged_fidelity(2, nominal, 0.2, method="mc", samples=5_000, seed=42)
    y = averaged_fidelity(2, nominal, 0.2, method="mc", samples=5_000, seed=42)
    z = averaged_fidelity(2, nominal, 0.2, method="mc", samples=5_000, seed=43)
    assert x.value == y.value and x.std_error == y.std_error
    assert x.value != z.value


def test_quadrature_budget_guard():
    with pytest.raises(QuadratureBudgetError):
        averaged_fidelity(8, EmitterParams(100.0, 0.0), 0.1, order=20)
    assert 20 ** 8 > GH_NODE_BUDGET


def test_sweep_reflectance_curves():
    res = sweep("fig5a", grid=[1.0, 10.0, 100.0])
    assert res.axis == "purcell"
    assert list(res.series) == ["d=0", "d=0.1", "d=0.15"]
    for i, p in enumerate(res.grid):
        for label, d in (("d=0", 0.0), ("d=0.1", 0.1), ("d=0.15", 0.15)):
            expect = scatter_coeffs(EmitterParams(p, d)).reflect_prob
            assert res.series[label][i] == pytest.approx(expect, abs=1e-12)


def test_sweep_success_curves_match_closed_form():
    res = sweep("fig6", grid=[5.0, 50.0])
    for label, ys in res.series.items():
        n = int(label[label.index("n=") + 2])
        d = float(label.split("d=")[1])
        for p, y in zip(res.grid, ys):
            assert y == pytest.approx(success_probability(n, EmitterParams(p, d)), abs=1e-10)


def test_sweep_csv_shape(tmp_path):
    res = sweep("fig5b", grid=[-0.2, 0.0, 0.2])
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("detuning,")
    assert len(lines) == 4
    # 6 significant digits
    assert "0.998003" not in lines[0]
    svg = tmp_path / "plot.svg"
    res.to_svg(str(svg))
    assert svg.stat().st_size > 500
    assert svg.read_text().lstrip().startswith("<?xml")
    root = ET.parse(svg).getroot()
    assert len(root.findall(f"{SVG_NS}polyline")) == len(res.series)
    again = tmp_path / "again.svg"
    res.to_svg(str(again))
    assert again.read_bytes() == svg.read_bytes()


def test_sweep_svg_leaves_out_non_finite_points(tmp_path):
    # an infinite Purcell factor is a valid grid point (the ideal emitter)
    res = sweep("fig5a", grid=[1.0, 10.0, math.inf])
    svg = tmp_path / "plot.svg"
    res.to_svg(str(svg))
    lines = ET.parse(svg).getroot().findall(f"{SVG_NS}polyline")
    assert len(lines) == len(res.series)
    for line in lines:
        points = line.get("points").split()
        assert len(points) == 2
        assert all(math.isfinite(float(c)) for pt in points for c in pt.split(","))


def test_sweep_broadening_curves():
    res = sweep("fig8", grid=[0.0, 0.15])
    zero = [s for s in res.series if "sigma=0" in s and "0.1" not in s and "0.2" not in s]
    for label in zero:
        for y in res.series[label]:
            assert y == pytest.approx(1.0, abs=1e-10)
    assert any(v < 1.0 - 1e-6 for lb in res.series if "0.2" in lb for v in res.series[lb])
    for ys in sweep("fig8").series.values():
        assert all(0.0 <= y <= 1.0 for y in ys)


def test_sweep_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        sweep("fig99")
