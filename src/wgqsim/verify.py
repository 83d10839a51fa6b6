"""Self-contained invariant suite, one PASS/FAIL line per check.

Runs the package against its own physics contracts without pytest: the
command line 'verify' subcommand drives this, and the test suite calls
it once more to keep both entry points honest.  Checks are pure and
seeded, so repeated runs print identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (
    averaged_fidelity,
    conditioned_fidelity,
    fidelity_kernel,
    simulated_success_probability,
    success_probability,
)
from .circuit import Mixer, check_passive_unitarity, execute
from .netlist import BUILTIN_NETLISTS, builtin_netlist, parse, serialize
from .params import ProtocolParams
from .protocols import (
    build_heralded_z,
    build_n_qubit,
    build_three_qubit,
    build_two_qubit,
    feedforward_rules,
    run_protocol,
)
from .scatter import EmitterParams, hwp_matrix, scatter_coeffs
from .state import klm_target

TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _param_grid():
    for purcell in (math.inf, 1000.0, 100.0, 10.0, 2.5):
        for detuning in (0.0, 0.05, -0.1, 0.15, 0.3):
            yield EmitterParams(purcell=purcell, detuning=detuning)


def check_amplitude_relation() -> CheckResult:
    worst = 0.0
    for p in _param_grid():
        c = scatter_coeffs(p)
        worst = max(worst, abs(c.t - (1.0 + c.r)), abs(c.r) - 1.0)
    return CheckResult(
        "scatter-amplitude-relation", worst <= 1e-12, f"max deviation {worst:.2e}"
    )


def check_loss_formula() -> CheckResult:
    worst = 0.0
    for p in _param_grid():
        c = scatter_coeffs(p)
        inv_p = 1.0 / p.purcell
        expect = (2.0 * inv_p) / ((1.0 + inv_p) ** 2 + 4.0 * p.detuning**2)
        worst = max(worst, abs(c.loss - expect))
        if c.loss < -1e-15:
            return CheckResult("scatter-loss-formula", False, f"negative loss {c.loss}")
    return CheckResult("scatter-loss-formula", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_ideal_resonance() -> CheckResult:
    c = scatter_coeffs(EmitterParams())
    ok = c.r == -1.0 and c.t == 0.0 and c.loss == 0.0
    return CheckResult("scatter-ideal-resonance", ok, f"r={c.r}, t={c.t}, loss={c.loss}")


def check_monotonicity() -> CheckResult:
    purcells = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0]
    probs = [scatter_coeffs(EmitterParams(purcell=p, detuning=0.1)).reflect_prob for p in purcells]
    rising = all(a < b for a, b in zip(probs, probs[1:]))
    detunings = [0.0, 0.05, 0.1, 0.2, 0.4]
    probs_d = [scatter_coeffs(EmitterParams(purcell=100.0, detuning=d)).reflect_prob for d in detunings]
    falling = all(a > b for a, b in zip(probs_d, probs_d[1:]))
    sym = all(
        abs(
            scatter_coeffs(EmitterParams(purcell=100.0, detuning=d)).reflect_prob
            - scatter_coeffs(EmitterParams(purcell=100.0, detuning=-d)).reflect_prob
        )
        <= 1e-15
        for d in detunings
    )
    return CheckResult(
        "scatter-monotonicity",
        rising and falling and sym,
        f"rising in purcell {rising}, falling in |detuning| {falling}, symmetric {sym}",
    )


def check_hwp_involution() -> CheckResult:
    worst = 0.0
    for theta in (0.0, 10.0, 22.5, 27.4, 30.0, 45.0, 67.5, 123.4):
        (a, b), (c, d) = hwp_matrix(theta)
        square_minus_one = (a * a + b * c - 1.0, a * b + b * d, c * a + d * c, c * b + d * d - 1.0)
        worst = max(worst, *(abs(z) for z in square_minus_one), abs(b - c))
    (a, b), (c, d) = hwp_matrix(45.0)
    swap = max(abs(a), abs(b - 1.0), abs(c - 1.0), abs(d))
    return CheckResult(
        "hwp-involution", worst <= 1e-12 and swap <= 1e-12, f"max deviation {max(worst, swap):.2e}"
    )


def check_norm_conservation() -> CheckResult:
    import numpy as np
    rng = np.random.default_rng(2024)
    worst = 0.0
    runs = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        purcell = float(rng.uniform(1.5, 300.0)) if rng.random() < 0.8 else math.inf
        detuning = float(rng.uniform(-0.4, 0.4))
        offsets = tuple(float(v) for v in rng.normal(0.0, 0.15, size=n))
        params = ProtocolParams(n, EmitterParams(purcell=purcell, detuning=detuning), offsets)
        for proto in (("klm2",) if n == 2 else ("klm3",) if n == 3 else ()) + ("klmN",):
            run = run_protocol(params, protocol=proto)
            total = run.herald_probability + sum(run.sinks.values())
            worst = max(worst, abs(total - 1.0))
            runs += 1
    return CheckResult(
        "norm-conservation", worst <= TOL, f"{runs} runs, max |total-1| = {worst:.2e}"
    )


def check_closed_form_equivalence() -> CheckResult:
    worst = 0.0
    for n in (2, 3, 4, 5):
        for nominal in (
            EmitterParams(),
            EmitterParams(purcell=100.0),
            EmitterParams(purcell=10.0, detuning=0.15),
            EmitterParams(purcell=50.0, detuning=-0.2),
        ):
            a = success_probability(n, nominal)
            b = simulated_success_probability(n, nominal)
            worst = max(worst, abs(a - b))
    return CheckResult(
        "closed-form-vs-simulation", worst <= TOL, f"max |closed - simulated| = {worst:.2e}"
    )


def _expected_two_qubit_patterns():
    # detector -> sign of configs (++, +-, --); all three weights equal
    return {
        "D1": {"++": 1, "+-": 1, "--": 1},
        "D2": {"++": 1, "+-": 1, "--": -1},
        "D3": {"++": 1, "+-": -1, "--": -1},
        "D4": {"++": 1, "+-": -1, "--": 1},
    }


def _expected_three_qubit_patterns():
    return {
        "D1": {"+++": 1, "++-": 1, "+--": 1, "---": 1},
        "D2": {"+++": 1, "++-": -1, "+--": -1, "---": 1},
        "D3": {"+++": 1, "++-": 1, "+--": -1, "---": -1},
        "D4": {"+++": 1, "++-": -1, "+--": 1, "---": -1},
    }


def _config_of(label: str) -> int:
    c = 0
    for i, ch in enumerate(label):
        if ch == "-":
            c |= 1 << i
    return c


def _check_heralded_table(name: str, n: int, proto: str, patterns) -> CheckResult:
    params = ProtocolParams(n, EmitterParams())
    run = run_protocol(params, protocol=proto)
    if len(run.outcomes) != 4:
        return CheckResult(name, False, f"expected 4 detectors, got {len(run.outcomes)}")
    worst = 0.0
    amp = 1.0 / math.sqrt(n + 1)
    for oc in run.outcomes:
        worst = max(worst, abs(oc.probability - 0.25))
        pat = patterns[oc.detector]
        for label, sign in pat.items():
            got = oc.conditioned.amps.get(_config_of(label), 0.0)
            worst = max(worst, abs(got - sign * amp))
        worst = max(worst, abs(oc.fidelity - 1.0))
    return CheckResult(name, worst <= TOL, f"max deviation {worst:.2e}")


def check_two_qubit_table() -> CheckResult:
    return _check_heralded_table(
        "two-qubit-herald-table", 2, "klm2", _expected_two_qubit_patterns()
    )


def check_three_qubit_table() -> CheckResult:
    return _check_heralded_table(
        "three-qubit-herald-table", 3, "klm3", _expected_three_qubit_patterns()
    )


def _check_interference(name: str, n: int, circuit, modes, patterns) -> CheckResult:
    """Pre-detection state of a dedicated layout, slot by slot.

    At the final mixer output every surviving slot must carry amplitude
    r^n / (2 sqrt(n+1)), with the sign pattern of its detector over the
    two output ``modes``, both polarizations and the n+1 register configs.
    """
    params = ProtocolParams(n, EmitterParams(purcell=100.0, detuning=0.07))
    scale = scatter_coeffs(params.nominal).r ** n / (2.0 * math.sqrt(n + 1))
    idx = circuit.find(Mixer, label="bs")[0]
    snap = execute(circuit, params=params, trace=True).trace[idx].state.amplitudes
    a, b = modes
    detectors = {(a, "H"): "D1", (a, "V"): "D2", (b, "H"): "D3", (b, "V"): "D4"}
    expected = {
        (mode, pol, _config_of(label)): sign * scale
        for (mode, pol), det in detectors.items()
        for label, sign in patterns[det].items()
    }
    worst = max(abs(snap.get(k, 0.0) - expected.get(k, 0.0)) for k in expected.keys() | snap.keys())
    return CheckResult(name, worst <= TOL, f"max amplitude deviation {worst:.2e}")


def check_two_qubit_interference() -> CheckResult:
    return _check_interference(
        "two-qubit-interference-pattern", 2, build_two_qubit(), (6, 7),
        _expected_two_qubit_patterns(),
    )


def check_three_qubit_interference() -> CheckResult:
    return _check_interference(
        "three-qubit-interference-pattern", 3, build_three_qubit(), (9, 10),
        _expected_three_qubit_patterns(),
    )


def check_generic_chain() -> CheckResult:
    worst = 0.0
    for n in range(2, 7):
        params = ProtocolParams(n, EmitterParams(purcell=100.0, detuning=0.05))
        run = run_protocol(params, protocol="klmN")
        expect = success_probability(n, params.nominal)
        if len(run.outcomes) != 2:
            return CheckResult("generic-chain", False, f"n={n}: {len(run.outcomes)} detectors")
        for oc in run.outcomes:
            worst = max(worst, abs(oc.probability - expect / 2.0))
            worst = max(worst, abs(oc.fidelity - 1.0))
    return CheckResult("generic-chain", worst <= TOL, f"n=2..6, max deviation {worst:.2e}")


def check_generic_vs_dedicated() -> CheckResult:
    worst = 0.0
    cases = [
        (2, "klm2", (0.08, -0.13)),
        (3, "klm3", (0.05, -0.1, 0.17)),
    ]
    for n, proto, offsets in cases:
        params = ProtocolParams(n, EmitterParams(purcell=60.0, detuning=0.1), offsets)
        ded = run_protocol(params, protocol=proto)
        gen = run_protocol(params, protocol="klmN")
        worst = max(worst, abs(ded.herald_probability - gen.herald_probability))
        worst = max(worst, abs(ded.weighted_fidelity - gen.weighted_fidelity))
        ov = abs(ded.outcomes[0].corrected.overlap(gen.outcomes[0].corrected)) ** 2
        worst = max(worst, abs(ov - 1.0))
    return CheckResult("generic-vs-dedicated", worst <= TOL, f"max deviation {worst:.2e}")


def check_kernel_vs_simulation() -> CheckResult:
    import numpy as np
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, 12):
        nominal = EmitterParams(purcell=80.0, detuning=0.05)
        offs = rng.normal(0.0, 0.2, size=(6, n))
        kv = fidelity_kernel(n, nominal, offs)
        for row, k in zip(offs, kv):
            s = conditioned_fidelity(ProtocolParams(n, nominal, tuple(float(v) for v in row)))
            worst = max(worst, abs(float(k) - s))
    return CheckResult("fidelity-kernel-vs-simulation", worst <= TOL, f"max deviation {worst:.2e}")


def check_quadrature_vs_montecarlo() -> CheckResult:
    nominal = EmitterParams(purcell=100.0)
    gh = averaged_fidelity(2, nominal, 0.15)
    mc = averaged_fidelity(2, nominal, 0.15, method="mc", samples=200_000, seed=7)
    z = abs(gh.value - mc.value) / mc.std_error
    return CheckResult(
        "quadrature-vs-montecarlo", z <= 3.0, f"|gh - mc| = {z:.2f} standard errors"
    )


def check_netlist_round_trip() -> CheckResult:
    circuits = [
        build_two_qubit(),
        build_three_qubit(),
        build_n_qubit(5),
        build_heralded_z(),
    ]
    for c in circuits:
        if parse(serialize(c)) != c:
            return CheckResult("netlist-round-trip", False, f"{c.name} does not round-trip")
    for name in BUILTIN_NETLISTS:
        builtin_netlist(name)  # must parse cleanly
    return CheckResult(
        "netlist-round-trip", True, f"{len(circuits)} builders + {len(BUILTIN_NETLISTS)} files"
    )


def check_builtin_matches_builder() -> CheckResult:
    pairs = [
        ("klm2", build_two_qubit()),
        ("klm3", build_three_qubit()),
        ("klm5", build_n_qubit(5)),
        ("heralded_z", build_heralded_z()),
    ]
    for name, circ in pairs:
        if builtin_netlist(name) != circ:
            return CheckResult("builtin-matches-builder", False, f"{name} diverged")
    return CheckResult("builtin-matches-builder", True, f"{len(pairs)} files match")


def check_passive_elements() -> CheckResult:
    worst = 0.0
    for circ in (build_two_qubit(), build_three_qubit(), build_n_qubit(4)):
        report = check_passive_unitarity(circ)
        if not report.passive_ok:
            return CheckResult("passive-unitarity", False, f"{circ.name} has violations")
        worst = max(
            worst, max((e.max_deviation for e in report.entries if e.passive), default=0.0)
        )
    return CheckResult("passive-unitarity", True, f"max norm deviation {worst:.2e}")


def check_feedforward_coverage() -> CheckResult:
    cases = [
        ("klm2", build_two_qubit()),
        ("klm3", build_three_qubit()),
        ("klmN", build_n_qubit(4)),
    ]
    for proto, circ in cases:
        rules = feedforward_rules(proto)
        ids = {d for _, d in circ.bank.mapping}
        if ids - set(rules):
            return CheckResult(
                "feedforward-coverage", False, f"{proto}: {sorted(ids - set(rules))} unruled"
            )
    return CheckResult("feedforward-coverage", True, "every detector has a correction rule")


def check_target_state() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 3, 5):
        t = klm_target(n)
        worst = max(worst, abs(t.norm_sq() - 1.0))
        if len(t.amps) != n + 1:
            return CheckResult("target-state", False, f"n={n}: {len(t.amps)} configs")
    return CheckResult("target-state", worst <= 1e-12, f"max norm deviation {worst:.2e}")


CHECKS = [
    ("scatter-amplitude-relation", check_amplitude_relation),
    ("scatter-loss-formula", check_loss_formula),
    ("scatter-ideal-resonance", check_ideal_resonance),
    ("scatter-monotonicity", check_monotonicity),
    ("hwp-involution", check_hwp_involution),
    ("target-state", check_target_state),
    ("norm-conservation", check_norm_conservation),
    ("closed-form-vs-simulation", check_closed_form_equivalence),
    ("two-qubit-herald-table", check_two_qubit_table),
    ("three-qubit-herald-table", check_three_qubit_table),
    ("two-qubit-interference-pattern", check_two_qubit_interference),
    ("three-qubit-interference-pattern", check_three_qubit_interference),
    ("generic-chain", check_generic_chain),
    ("generic-vs-dedicated", check_generic_vs_dedicated),
    ("fidelity-kernel-vs-simulation", check_kernel_vs_simulation),
    ("quadrature-vs-montecarlo", check_quadrature_vs_montecarlo),
    ("netlist-round-trip", check_netlist_round_trip),
    ("builtin-matches-builder", check_builtin_matches_builder),
    ("passive-unitarity", check_passive_elements),
    ("feedforward-coverage", check_feedforward_coverage),
]


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run the (optionally filtered) suite; the filter is a substring."""
    results = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        results.append(fn())
    return results
