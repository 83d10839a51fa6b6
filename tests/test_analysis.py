"""Figures of merit: closed forms, broadening averages, sweeps."""

import ast
import inspect
import math
import os
import tracemalloc
import typing
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqsim import analysis
from wgqsim.analysis import (
    DEFAULT_GH_ORDER,
    GH_NODE_BUDGET,
    QuadratureBudgetError,
    _chain_fidelity,
    _lin_grid,
    _log_grid,
    averaged_fidelity,
    conditioned_fidelity,
    fidelity_kernel,
    simulated_success_probability,
    success_probability,
    sweep,
)
from wgqsim.params import ProtocolParams
from wgqsim.scatter import IDEAL, EmitterParams, InvalidParameterError, scatter_coeffs

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


def suffix_product_fidelity(nominal, offsets):
    """Reference for a (batch, n) offset matrix: the n+1 branch weights
    w_j = rnom**j * prod(r_i, i >= j) stored as suffix products."""
    n = offsets.shape[1]
    a = 1.0 + 1.0 / nominal.purcell
    r = -1.0 / (a - 2.0j * (nominal.detuning + offsets))
    rnom = -1.0 / (a - 2.0j * nominal.detuning)
    suffix = np.ones((offsets.shape[0], n + 1), dtype=complex)
    suffix[:, :n] = np.cumprod(r[:, ::-1], axis=1)[:, ::-1]
    w = suffix * rnom ** np.arange(n + 1)
    return np.abs(w.sum(axis=1)) ** 2 / ((n + 1) * (np.abs(w) ** 2).sum(axis=1))


def out_of_place_horner(nominal, offsets):
    """The Horner pass from total = mass = 1 with a fresh array at every
    step, one offset array per emitter."""
    rnom = scatter_coeffs(nominal).r
    inv_p = 1.0 / nominal.purcell
    total, mass = 1.0 + 0.0j, 1.0
    for n, offset in enumerate(offsets, 1):
        r = -1.0 / (1.0 + inv_p - 2.0j * (nominal.detuning + offset))
        total = total * r + rnom ** n
        mass = mass * (r.real * r.real + r.imag * r.imag) + abs(rnom) ** (2 * n)
    return np.minimum((total.real ** 2 + total.imag ** 2) / ((n + 1) * mass), 1.0)


def meshgrid_gh_fidelity(n, nominal, sigma, order):
    """Reference Gauss-Hermite mean from an explicit (order**n, n) node list."""
    x, wts = np.polynomial.hermite.hermgauss(order)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * n), indexing="ij")], axis=1)
    weight = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([wts] * n), indexing="ij")], axis=1),
        axis=1,
    )
    vals = suffix_product_fidelity(nominal, nodes * (math.sqrt(2.0) * sigma))
    return min(1.0, float((weight * vals).sum() / math.pi ** (n / 2.0)))


purcells = st.one_of(st.just(IDEAL), st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e))


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 14), purcells, st.floats(-0.5, 0.5), st.floats(0.0, 0.3),
    st.integers(1, 50), st.integers(0, 2 ** 31 - 1),
)
def test_kernel_matches_suffix_products(n, purcell, d, spread, batch, seed):
    nominal = EmitterParams(purcell, d)
    offsets = np.random.default_rng(seed).normal(0.0, spread, size=(batch, n))
    want = np.minimum(suffix_product_fidelity(nominal, offsets), 1.0)
    np.testing.assert_allclose(fidelity_kernel(n, nominal, offsets), want, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10), purcells, st.floats(-0.5, 0.5), st.floats(0.0, 0.3),
    st.integers(1, 60), st.integers(0, 2 ** 31 - 1),
)
def test_in_place_kernel_matches_out_of_place_bit_for_bit(n, purcell, d, spread, batch, seed):
    nominal = EmitterParams(purcell, d)
    offsets = np.random.default_rng(seed).normal(0.0, spread, size=(batch, n))
    got = fidelity_kernel(n, nominal, offsets)
    assert np.array_equal(got, out_of_place_horner(nominal, offsets.T), equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), purcells, st.floats(-0.5, 0.5),
       st.floats(0.0, 0.3))
def test_broadcast_horner_matches_out_of_place_bit_for_bit(n, order, purcell, d, sigma):
    # the Gauss-Hermite layout: emitter m's nodes on axis n-1-m
    nodes = np.polynomial.hermite.hermgauss(order)[0] * sigma
    axes = [nodes.reshape((1,) * (n - 1 - m) + (order,) + (1,) * m) for m in range(n)]
    nominal = EmitterParams(purcell, d)
    got = _chain_fidelity(nominal, axes)
    assert got.shape == (order,) * n
    assert np.array_equal(got, out_of_place_horner(nominal, axes), equal_nan=True)


def test_kernel_peak_memory_stays_a_few_columns():
    # 80k x 9 is the bench's Monte-Carlo batch; a transposed copy of it
    # alone is 4.5 complex columns
    offsets = np.random.default_rng(0).normal(0.0, 0.1, size=(80_000, 9))
    column = offsets.shape[0] * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        fidelity_kernel(9, EmitterParams(80.0, 0.05), offsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * column


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20), purcells, st.floats(-0.5, 0.5),
       st.floats(1e-3, 0.3))
def test_gh_matches_meshgrid_nodes(n, order, purcell, d, sigma):
    nominal = EmitterParams(purcell, d)
    res = averaged_fidelity(n, nominal, sigma, order=order)
    assert res.evaluations == order ** n
    assert res.value == pytest.approx(meshgrid_gh_fidelity(n, nominal, sigma, order), rel=1e-13)


def test_mc_simulation_matches_kernel_beyond_gh_grid():
    # n=12 is far past the tensor grid's budget; each sample is a circuit run
    nominal = EmitterParams(80.0, 0.05)
    kern = averaged_fidelity(12, nominal, 0.1, method="mc", samples=40, seed=9)
    sim = averaged_fidelity(
        12, nominal, 0.1, method="mc", samples=40, seed=9, integrand="simulation"
    )
    assert sim.value == pytest.approx(kern.value, rel=1e-12)
    assert sim.std_error == pytest.approx(kern.std_error, rel=1e-12)
    assert sim.evaluations == kern.evaluations == 40


@pytest.mark.parametrize(
    "n, sigma, kwargs",
    [
        (0, 0.1, {}),
        (0, 0.1, {"method": "mc", "samples": 10}),
        (2, math.nan, {}),
        (2, math.inf, {}),
        (2, math.nan, {"method": "mc"}),
        (2, -0.1, {}),
        (2, 0.0, {"method": "bogus"}),
        (2, 0.0, {"order": 0}),
        (2, 0.0, {"method": "mc", "samples": 1}),
        (2, 0.0, {"integrand": "bogus"}),
    ],
)
def test_averaged_fidelity_rejects_bad_inputs(n, sigma, kwargs):
    with pytest.raises(InvalidParameterError):
        averaged_fidelity(n, EmitterParams(100.0, 0.1), sigma, **kwargs)


def test_kernel_rejects_empty_chain():
    with pytest.raises(InvalidParameterError):
        fidelity_kernel(0, EmitterParams(100.0, 0.1), np.zeros((3, 0)))


def test_kernel_clamp_keeps_nan():
    # a clamp written as min(1.0, x) would report NaN as perfect fidelity
    with np.errstate(invalid="ignore"):
        vals = fidelity_kernel(2, EmitterParams(100.0, 0.1), [[math.nan, 0.0], [0.0, 0.0]])
    assert math.isnan(vals[0]) and vals[1] <= 1.0


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


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 300))
def test_lin_grid_is_linspace_bit_for_bit(lo, hi, num):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, num)
    assert np.array(_lin_grid(lo, hi, num)).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(2, 300))
def test_log_grid_matches_geomspace(lo, hi, num):
    got = _log_grid(lo, hi, num)
    assert len(got) == num and got[0] == lo and got[-1] == hi
    # an ulp of y = log10(x) moves 10**y by ln(10) |y| ulps, in either
    # implementation, so the bound scales with the decades of the ends
    decades = max(1.0, abs(math.log10(lo)), abs(math.log10(hi)))
    np.testing.assert_allclose(got, np.geomspace(lo, hi, num), rtol=1e-14 * decades, atol=0)


def type_checking_namespace(module):
    """What the module imports under ``if TYPE_CHECKING:``, which a type
    checker sees and the running module does not."""
    ns = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), ns)
    return ns


def test_analysis_type_hints_resolve():
    ns = type_checking_namespace(analysis)
    for obj in vars(analysis).values():
        if getattr(obj, "__module__", None) != analysis.__name__:
            continue
        if inspect.isclass(obj):
            typing.get_type_hints(obj, localns=ns)
            for fn in vars(obj).values():
                if inspect.isfunction(fn):
                    typing.get_type_hints(fn, localns=ns)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj, localns=ns)


def test_sweep_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        sweep("fig99")
