"""Reference values the benchmark checks the simulator's outputs against.

Everything here is written from the physics in PAPER.md, not imported
from ``wgqsim``: a single emitter reflects with

    r = -1 / (1 + 1/P - 2i*d)

and branch j of the N-emitter chain bounces off emitters j..N-1 after
an attenuator of rnom**j, so its weight is

    w_j = rnom**j * prod(r_i, i >= j),   j = 0..N.

The herald probability is sum |w_j|^2 / (N+1) and the corrected-state
fidelity |sum w_j|^2 / ((N+1) * sum |w_j|^2).  The broadening averages
are recomputed with numpy on their own grids: the Gauss-Hermite tensor
grid by broadcasting one axis per emitter, the Monte-Carlo draws from
the documented ``default_rng(seed).normal(0, sigma, (samples, n))``.
"""

from __future__ import annotations

import math

import numpy as np


def reflection(purcell: float, detuning) -> complex:
    """r for one emitter; ``detuning`` may be a numpy array."""
    return -1.0 / (1.0 + 1.0 / purcell - 2.0j * np.asarray(detuning))


def chain_weights(purcell: float, detuning: float, offsets) -> np.ndarray:
    """Branch weights w_0..w_N of the chain for one offset vector."""
    n = len(offsets)
    r = reflection(purcell, detuning + np.asarray(offsets, dtype=float))
    rnom = complex(reflection(purcell, detuning))
    suffix = np.append(np.cumprod(r[::-1])[::-1], 1.0)
    return suffix * rnom ** np.arange(n + 1)


def herald_probability(w: np.ndarray) -> float:
    return float(np.sum(np.abs(w) ** 2) / len(w))


def weighted_fidelity(w: np.ndarray) -> float:
    return float(abs(np.sum(w)) ** 2 / (len(w) * np.sum(np.abs(w) ** 2)))


def _fidelity_rows(purcell: float, detuning: float, offsets: np.ndarray) -> np.ndarray:
    """Fidelity for every row of an (m, n) offset matrix."""
    n = offsets.shape[1]
    r = reflection(purcell, detuning + offsets)
    rnom = complex(reflection(purcell, detuning))
    suffix = np.cumprod(r[:, ::-1], axis=1)[:, ::-1]
    w = suffix * rnom ** np.arange(n)
    total = w.sum(axis=1) + rnom**n
    mass = (np.abs(w) ** 2).sum(axis=1) + abs(rnom) ** (2 * n)
    return np.abs(total) ** 2 / ((n + 1) * mass)


def gh_average(n: int, purcell: float, detuning: float, sigma: float, order: int) -> float:
    """Mean fidelity on the order**n Gauss-Hermite tensor grid.

    Axis i of the grid carries emitter i, so r_i and the suffix products
    are built by broadcasting instead of from an explicit node list.
    """
    if sigma == 0.0:
        return float(_fidelity_rows(purcell, detuning, np.zeros((1, n)))[0])
    x, wts = np.polynomial.hermite.hermgauss(order)
    rnom = complex(reflection(purcell, detuning))

    def axis(i: int, values: np.ndarray) -> np.ndarray:
        return values.reshape((1,) * i + (order,) + (1,) * (n - 1 - i))

    r_axis = reflection(purcell, detuning + math.sqrt(2.0) * sigma * x)
    total = np.full((1,) * n, rnom**n, dtype=complex)
    mass = np.full((1,) * n, abs(rnom) ** (2 * n))
    suffix = np.ones((1,) * n, dtype=complex)
    for j in range(n - 1, -1, -1):
        suffix = suffix * axis(j, r_axis)
        w_j = rnom**j * suffix
        total = total + w_j
        mass = mass + np.abs(w_j) ** 2
    fid = np.abs(total) ** 2 / ((n + 1) * mass)
    weight = np.ones((1,) * n)
    for i in range(n):
        weight = weight * axis(i, wts)
    return float(np.sum(weight * fid) / math.pi ** (n / 2.0))


def mc_average(
    n: int, purcell: float, detuning: float, sigma: float, samples: int, seed: int
) -> float:
    """Mean fidelity over ``samples`` seeded normal offset vectors."""
    draws = np.random.default_rng(seed).normal(0.0, sigma, size=(samples, n))
    return float(_fidelity_rows(purcell, detuning, draws).mean())


def close(got: float, want: float, rel: float) -> bool:
    """Relative agreement; ``got`` must be a finite number."""
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    return abs(got - want) <= rel * abs(want)
