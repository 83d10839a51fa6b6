"""Success probabilities, fidelities and parameter sweeps.

Two routes to every number: closed forms where they exist, and the full
circuit simulation.  The test suite holds them against each other; the
sweep helpers pick whichever route the contract demands (probability
sweeps run the actual circuits, broadening averages use the vectorized
kernel so quadrature stays cheap).

Inhomogeneous broadening: each emitter's detuning offset is drawn from
a zero-mean normal with width sigma.  The average fidelity integral is
evaluated either on a tensor Gauss-Hermite grid (exact for smooth
integrands, cost order**n) or by seeded Monte-Carlo sampling.

Both averages share one private recursion, ``_chain_fidelity``, which
walks the chain once in Horner form and takes one array of detuning
offsets per emitter.  The Monte-Carlo kernel passes one column of the
offset batch per emitter.  The Gauss-Hermite mean passes the ``order``
Hermite nodes, reshaped onto its own axis for each emitter, so
broadcasting builds the order**n tensor; the weights are the outer
product of the 1-D Hermite weights.  Neither builds a node list nor a
matrix of branch weights.  Only the 'simulation' integrand under
Gauss-Hermite lists its nodes, since it runs one circuit per node.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .params import ProtocolParams
from .scatter import EmitterParams, InvalidParameterError, scatter_coeffs
from .protocols import run_protocol

DEFAULT_GH_ORDER = 20
GH_NODE_BUDGET = 200_000


class QuadratureBudgetError(ValueError):
    """Tensor quadrature grid too large; use the monte-carlo method."""


def success_probability(n: int, nominal: EmitterParams) -> float:
    """Closed-form herald probability |r|^(2n) of the n-emitter chain."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return scatter_coeffs(nominal).reflect_prob ** n


def simulated_success_probability(
    n: int, nominal: EmitterParams, protocol: str | None = None
) -> float:
    """Same quantity from a full circuit run; slower, no formula involved."""
    run = run_protocol(ProtocolParams(n, nominal), protocol=protocol)
    return run.herald_probability


def conditioned_fidelity(params: ProtocolParams, protocol: str | None = None) -> float:
    """Fidelity of the corrected register state with the target.

    Runs the full circuit and weights each detector by its click
    probability.
    """
    return run_protocol(params, protocol=protocol).weighted_fidelity


def _chain_fidelity(
    nominal: EmitterParams, offsets: Iterable[np.ndarray]
) -> np.ndarray:
    """Corrected-state fidelity from one array of offsets per emitter.

    With r_m the reflection amplitude at each offset of emitter m,
    Horner's rule over m = 0..n-1, starting from total = mass = 1:

        total <- total * r_m + rnom**(m+1)
        mass  <- mass * |r_m|**2 + |rnom|**(2(m+1))

    leaves total = sum_j w_j and mass = sum_j |w_j|**2, so no branch
    weight is ever stored.  The offset arrays broadcast against each
    other and the result takes their joint shape.
    """
    import numpy as np
    rnom = scatter_coeffs(nominal).r
    inv_p = 1.0 / nominal.purcell
    total, mass, n = 1.0 + 0.0j, 1.0, 0
    for offset in offsets:
        n += 1
        r = -1.0 / (1.0 + inv_p - 2.0j * (nominal.detuning + offset))
        total = total * r
        total += rnom ** n
        mass = mass * (r.real * r.real + r.imag * r.imag)
        mass += abs(rnom) ** (2 * n)
    return np.minimum((total.real ** 2 + total.imag ** 2) / ((n + 1) * mass), 1.0)


def fidelity_kernel(
    n: int, nominal: EmitterParams, offsets: np.ndarray
) -> np.ndarray:
    """Vectorized corrected-state fidelity for batches of offset vectors.

    ``offsets`` has shape (batch, n).  Branch j of the chain reflects
    off emitters j..n-1 and carries the nominal amplitude to power j, so
    its weight is w_j = rnom**j * prod(r_i, i >= j).  After feedforward
    all branch signs align and

        F = |sum_j w_j|^2 / ((n+1) * sum_j |w_j|^2).

    Both sums are accumulated by one Horner pass over the emitters, one
    offset column (length batch) at a time, so the cost is O(batch * n)
    with no (batch, n+1) weight matrix.  Agrees with the circuit route
    to machine precision; the tests pin that down.  Cauchy-Schwarz
    bounds F by 1; rounding above that is clamped.
    """
    import numpy as np
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    if offsets.shape[1] != n:
        raise InvalidParameterError(
            f"offset batch has {offsets.shape[1]} columns, expected {n}"
        )
    # one contiguous row per emitter
    return _chain_fidelity(nominal, np.ascontiguousarray(offsets.T))


@dataclass(frozen=True)
class AveragedFidelity:
    value: float
    std_error: float | None
    evaluations: int
    method: str


def averaged_fidelity(
    n: int,
    nominal: EmitterParams,
    sigma: float,
    method: str = "gh",
    order: int = DEFAULT_GH_ORDER,
    samples: int = 100_000,
    seed: int = 0,
    integrand: str = "kernel",
) -> AveragedFidelity:
    """Mean corrected-state fidelity under normal detuning offsets.

    method 'gh' uses a tensor Gauss-Hermite grid of ``order`` nodes per
    emitter; the node count order**n must stay within the budget, beyond
    it a QuadratureBudgetError points at 'mc'.  method 'mc' draws
    ``samples`` offset vectors from the given seed and reports the
    standard error of the mean.

    integrand 'kernel' evaluates the closed form; 'simulation' runs the
    full circuit per node, which is slow and meant for cross-checks.
    """
    import numpy as np
    from numpy.polynomial.hermite import hermgauss
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if method not in ("gh", "mc"):
        raise InvalidParameterError(f"unknown method {method!r}")
    if integrand not in ("kernel", "simulation"):
        raise InvalidParameterError(f"unknown integrand {integrand!r}")
    if method == "gh" and order < 1:
        raise InvalidParameterError(f"order must be >= 1, got {order}")
    if method == "mc" and samples < 2:
        raise InvalidParameterError(f"need at least 2 samples, got {samples}")

    def evaluate(block: np.ndarray) -> np.ndarray:
        if integrand == "kernel":
            return fidelity_kernel(n, nominal, block)
        vals = []
        for row in block:
            vals.append(
                conditioned_fidelity(ProtocolParams(n, nominal, tuple(row)))
            )
        return np.array(vals)

    if sigma == 0.0:
        val = float(evaluate(np.zeros((1, n)))[0])
        return AveragedFidelity(val, None if method == "gh" else 0.0, 1, method)

    if method == "gh":
        if order ** n > GH_NODE_BUDGET:
            raise QuadratureBudgetError(
                f"gauss-hermite grid {order}^{n} exceeds {GH_NODE_BUDGET} nodes; "
                "use method='mc'"
            )
        x, wts = hermgauss(order)
        nodes = x * (math.sqrt(2.0) * sigma)

        def on_axis(k: int, values: np.ndarray) -> np.ndarray:
            return values.reshape((1,) * k + (order,) + (1,) * (n - 1 - k))

        weight = 1.0
        for k in range(n):
            weight = weight * on_axis(k, wts)
        if integrand == "kernel":
            # emitter m on axis n-1-m: the last, widest products then run
            # over a contiguous inner axis, about 3x faster than axis m
            vals = _chain_fidelity(nominal, (on_axis(n - 1 - m, nodes) for m in range(n)))
        else:
            grid = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1)
            vals = evaluate(grid.reshape(-1, n)).reshape(weight.shape)
        # the weights sum to pi^(n/2) only up to rounding; NaN stays NaN
        mean = np.minimum(np.sum(weight * vals) / math.pi ** (n / 2.0), 1.0)
        return AveragedFidelity(float(mean), None, order ** n, "gh")

    rng = np.random.default_rng(seed)
    vals = evaluate(rng.normal(0.0, sigma, size=(samples, n)))
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return AveragedFidelity(float(vals.mean()), stderr, samples, "mc")


# -- sweeps -------------------------------------------------------------


@dataclass
class SweepResult:
    kind: str
    axis: str
    grid: list[float]
    series: dict[str, list[float]] = field(default_factory=dict)

    def to_csv(self) -> str:
        """Header then one row per grid point, 6 significant digits."""
        labels = list(self.series)
        lines = [",".join([self.axis] + labels)]
        for i, x in enumerate(self.grid):
            row = [format(x, ".6g")] + [
                format(self.series[lb][i], ".6g") for lb in labels
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_svg(self, path: str) -> None:
        """Write a line chart of the sweep as a standalone SVG file.

        The chart holds one polyline per series over the grid, a frame
        whose corners carry the x and y data range, the ``axis`` name
        under it, the ``kind`` beside it, and a legend of the series
        labels.  Non-finite points are left out.  Only the standard
        library draws it, and the same result always gives the same
        bytes.  The CSV stays the contract for the numbers.
        """
        from xml.sax.saxutils import escape

        w, h, left, right, top, bottom = 640, 400, 70, 150, 20, 50
        ym = (top + h - bottom) // 2
        xlo, xhi = _axis_span(self.grid)
        ylo, yhi = _axis_span([y for ys in self.series.values() for y in ys])

        def px(x: float, y: float) -> str:
            u = left + (x - xlo) / (xhi - xlo) * (w - left - right)
            v = h - bottom - (y - ylo) / (yhi - ylo) * (h - top - bottom)
            return f"{u:.2f},{v:.2f}"

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
            f'<rect x="{left}" y="{top}" width="{w - left - right}" '
            f'height="{h - top - bottom}" fill="none" stroke="black"/>',
            f'<text x="{left}" y="{h - bottom + 15}" text-anchor="middle">{xlo:.4g}</text>',
            f'<text x="{w - right}" y="{h - bottom + 15}" text-anchor="middle">{xhi:.4g}</text>',
            f'<text x="{left - 5}" y="{h - bottom}" text-anchor="end">{ylo:.4g}</text>',
            f'<text x="{left - 5}" y="{top + 10}" text-anchor="end">{yhi:.4g}</text>',
            f'<text x="{(left + w - right) // 2}" y="{h - 10}" '
            f'text-anchor="middle">{escape(self.axis)}</text>',
            f'<text x="15" y="{ym}" text-anchor="middle" '
            f'transform="rotate(-90 15 {ym})">{escape(self.kind)}</text>',
        ]
        for i, (label, ys) in enumerate(self.series.items()):
            color = _SVG_COLORS[i % len(_SVG_COLORS)]
            pts = " ".join(
                px(x, y) for x, y in zip(self.grid, ys)
                if math.isfinite(x) and math.isfinite(y)
            )
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
            ly = top + 10 + 18 * i
            out.append(f'<line x1="{w - right + 10}" y1="{ly}" x2="{w - right + 30}" '
                       f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
            out.append(f'<text x="{w - right + 35}" y="{ly + 4}">{escape(label)}</text>')
        out.append("</svg>")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(out) + "\n")


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _axis_span(values: list[float]) -> tuple[float, float]:
    """Range of the finite values, widened when it is empty or flat.

    A flat range (one grid point repeated, or a constant series) would
    make the chart's scaling divide by zero.
    """
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    if hi > lo:
        return lo, hi
    pad = 0.5 * (abs(lo) or 1.0)
    return lo - pad, hi + pad


def _log_grid(lo: float, hi: float, num: int) -> list[float]:
    import numpy as np
    return [float(v) for v in np.geomspace(lo, hi, num)]


def _lin_grid(lo: float, hi: float, num: int) -> list[float]:
    import numpy as np
    return [float(v) for v in np.linspace(lo, hi, num)]


SWEEP_KINDS = ("fig5a", "fig5b", "fig6", "fig7", "fig8")


def sweep(kind: str, grid: list[float] | None = None) -> SweepResult:
    """Tabulate one of the named reference curve presets.

    fig5a: single-bounce herald probability vs Purcell factor
    fig5b: single-bounce herald probability vs detuning
    fig6:  two- and three-emitter success vs Purcell factor (circuit runs)
    fig7:  two- and three-emitter success vs detuning (circuit runs)
    fig8:  broadening-averaged fidelity vs detuning, sigma curves

    ``grid`` overrides the default axis grid.
    """
    if kind == "fig5a":
        xs = grid or _log_grid(1.0, 1000.0, 100)
        res = SweepResult(kind, "purcell", list(xs))
        for d in (0.0, 0.1, 0.15):
            res.series[f"d={d:g}"] = [
                scatter_coeffs(EmitterParams(purcell=p, detuning=d)).reflect_prob
                for p in xs
            ]
        return res
    if kind == "fig5b":
        xs = grid or _lin_grid(-0.5, 0.5, 101)
        res = SweepResult(kind, "detuning", list(xs))
        for p in (100.0, 50.0, 10.0):
            res.series[f"P={p:g}"] = [
                scatter_coeffs(EmitterParams(purcell=p, detuning=d)).reflect_prob
                for d in xs
            ]
        return res
    if kind == "fig6":
        xs = grid or _log_grid(1.0, 1000.0, 100)
        res = SweepResult(kind, "purcell", list(xs))
        for n in (2, 3):
            for d in (0.0, 0.1, 0.15):
                res.series[f"n={n} d={d:g}"] = [
                    simulated_success_probability(n, EmitterParams(purcell=p, detuning=d))
                    for p in xs
                ]
        return res
    if kind == "fig7":
        xs = grid or _lin_grid(-0.5, 0.5, 101)
        res = SweepResult(kind, "detuning", list(xs))
        for n in (2, 3):
            for p in (100.0, 50.0, 10.0):
                res.series[f"n={n} P={p:g}"] = [
                    simulated_success_probability(n, EmitterParams(purcell=p, detuning=d))
                    for d in xs
                ]
        return res
    if kind == "fig8":
        xs = grid or _lin_grid(-0.3, 0.3, 61)
        res = SweepResult(kind, "detuning", list(xs))
        for n in (2, 3):
            for sigma in (0.0, 0.1, 0.2):
                res.series[f"n={n} sigma={sigma:g}"] = [
                    averaged_fidelity(n, EmitterParams(purcell=100.0, detuning=d), sigma).value
                    for d in xs
                ]
        return res
    raise InvalidParameterError(f"unknown sweep kind {kind!r}, know {SWEEP_KINDS}")
