"""Heralded-state generation circuits and their feedforward rules.

Each builder wires the full interferometer for one protocol: a single
ancilla photon is split over branches, each branch bounces off a suffix
of the emitter register, fixed attenuators rebalance branch weights to
the nominal reflection amplitude, and the branches are interfered so
that any click in the final detector bank heralds a register state that
local sign flips turn into the target

    (1/sqrt(N+1)) * sum_j |+>^j |->^(N-j)      (domain-wall states).

Emitter indexing is chronological in label, reversed in scattering
order: emitter 0 is scattered last.  Transmission monitors D'1, D'2, ...
are numbered in scattering order; a click there means the photon was
transmitted or lost at that emitter and the attempt failed.

Mode numbers are arbitrary wiring labels.  The dedicated two- and
three-emitter layouts put their final interference on modes (6, 7) and
(9, 10); the trace tests read those modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .circuit import (
    PBS,
    Attenuator,
    Circuit,
    DetectorBank,
    EmitterScatter,
    ExecutionResult,
    HWP,
    Mirror,
    Mixer,
    execute,
)
from .params import ProtocolParams
from .scatter import PREP_ANGLE_THREE_QUBIT, PREP_ANGLE_TWO_QUBIT
from .state import EmitterState, StateOpError, klm_target

PROTOCOLS = ("klm2", "klm3", "klmN")

# Detector id -> emitter indices whose '-' component gets a sign flip.
TWO_QUBIT_FEEDFORWARD: dict[str, tuple[int, ...]] = {
    "D1": (),
    "D2": (0,),
    "D3": (1,),
    "D4": (0, 1),
}

THREE_QUBIT_FEEDFORWARD: dict[str, tuple[int, ...]] = {
    "D1": (),
    "D2": (0, 2),
    "D3": (1,),
    "D4": (0, 1, 2),
}


N_QUBIT_FEEDFORWARD: dict[str, tuple[int, ...]] = {
    "D1": (),
    "D2": (0,),
}


def feedforward_rules(protocol: str) -> dict[str, tuple[int, ...]]:
    if protocol == "klm2":
        return dict(TWO_QUBIT_FEEDFORWARD)
    if protocol == "klm3":
        return dict(THREE_QUBIT_FEEDFORWARD)
    if protocol == "klmN":
        return dict(N_QUBIT_FEEDFORWARD)
    raise ValueError(f"unknown protocol {protocol!r}")


def build_heralded_z() -> Circuit:
    """Single-emitter heralded gate: one bounce, click means success."""
    return Circuit(
        name="heralded_z",
        n_emitters=1,
        modes=(1, 2),
        components=[
            EmitterScatter(in_mode=1, emitter=0, reflected_out=2, sink="D'1"),
            DetectorBank.of({(2, "V"): "D1", (2, "H"): "D2"}),
        ],
        input_mode=1,
        input_pol="H",
    )


def build_two_qubit() -> Circuit:
    """Dedicated two-emitter network.

    An input wave plate splits the photon 1:2 between a bypass arm and a
    scattering arm; the scattering arm bounces off emitter 1, gets split
    again, and half of it bounces off emitter 0.  Attenuators rnom^2 and
    rnom on the less-scattered branches equalize the three branch
    weights, and the output interference spreads the herald over four
    detectors.
    """
    return Circuit(
        name="klm2",
        n_emitters=2,
        modes=tuple(range(10)),
        components=[
            HWP(mode=0, theta_deg=PREP_ANGLE_TWO_QUBIT, label="prep"),
            PBS.of({(0, "H"): 1, (0, "V"): 2}, label="pbs_in"),
            EmitterScatter(in_mode=2, emitter=1, reflected_out=8, sink="D'1"),
            Mirror(in_mode=8, out_mode=4),
            Mixer.bs_prime(3, 4, label="split"),
            EmitterScatter(in_mode=4, emitter=0, reflected_out=9, sink="D'2"),
            Attenuator(mode=1, sink="T2", rnom_power=2, label="T2"),
            Attenuator(mode=3, sink="T1", rnom_power=1, label="T1"),
            PBS.of({(3, "H"): 5, (9, "V"): 5}, label="pbs_merge"),
            HWP(mode=1, theta_deg=22.5),
            HWP(mode=5, theta_deg=22.5),
            Mirror(in_mode=1, out_mode=6),
            Mirror(in_mode=5, out_mode=7),
            Mixer.bs(6, 7, label="bs"),
            DetectorBank.of(
                {(6, "H"): "D1", (6, "V"): "D2", (7, "H"): "D3", (7, "V"): "D4"}
            ),
        ],
        input_mode=0,
        input_pol="H",
    )


def build_three_qubit() -> Circuit:
    """Dedicated three-emitter network.

    Same pattern one level deeper: a 30 degree input plate splits 1:3,
    two variable splitters peel the once- and twice-scattered branches,
    and attenuators rnom^3, rnom^2, rnom equalize the four branch
    weights before the output interference.
    """
    return Circuit(
        name="klm3",
        n_emitters=3,
        modes=tuple(range(14)),
        components=[
            HWP(mode=0, theta_deg=PREP_ANGLE_THREE_QUBIT, label="prep"),
            PBS.of({(0, "H"): 1, (0, "V"): 2}, label="pbs_in"),
            EmitterScatter(in_mode=2, emitter=2, reflected_out=11, sink="D'1"),
            Mirror(in_mode=11, out_mode=4),
            Mixer.vbs(3, 4, k=2, n=3, label="vbs1"),
            EmitterScatter(in_mode=4, emitter=1, reflected_out=12, sink="D'2"),
            Mirror(in_mode=12, out_mode=6),
            Mixer.vbs(5, 6, k=3, n=3, label="vbs2"),
            EmitterScatter(in_mode=6, emitter=0, reflected_out=13, sink="D'3"),
            Attenuator(mode=1, sink="T3", rnom_power=3, label="T3"),
            HWP(mode=3, theta_deg=45.0, label="flip"),
            Attenuator(mode=3, sink="T2", rnom_power=2, label="T2"),
            Attenuator(mode=5, sink="T1", rnom_power=1, label="T1"),
            PBS.of({(1, "H"): 7, (3, "V"): 7}, label="pbs_u"),
            PBS.of({(5, "V"): 8, (13, "H"): 8}, label="pbs_l"),
            HWP(mode=7, theta_deg=22.5),
            HWP(mode=8, theta_deg=22.5),
            Mirror(in_mode=7, out_mode=9),
            Mirror(in_mode=8, out_mode=10),
            Mixer.bs(9, 10, label="bs"),
            DetectorBank.of(
                {(9, "H"): "D1", (9, "V"): "D2", (10, "H"): "D3", (10, "V"): "D4"}
            ),
        ],
        input_mode=0,
        input_pol="H",
    )


def build_n_qubit(n: int) -> Circuit:
    """Generic N-emitter chain.

    The photon enters vertically polarized on a bus.  Stage k peels off
    amplitude 1/sqrt(N+2-k) with a variable splitter, scatters the rest
    off emitter N-k, and restores the bus polarization.  The N+1
    branches, one per number of bounces, end up with equal weight
    1/sqrt(N+1); they are recombined on one output mode whose two
    polarization detectors herald the target up to at most one sign
    flip.

    The recombination treats branches as addressable by their register
    state, so amplitude relabeling onto a shared mode is coherent
    bookkeeping rather than a physical two-port element.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    comps: list = []
    bus = 0

    def peel(k: int) -> int:
        return 2 * k - 1

    def out(k: int) -> int:
        return 2 * k

    merged = 2 * n + 1
    for k in range(1, n + 1):
        comps.append(Mixer.vbs(peel(k), bus, k=k, n=n, label=f"vbs{k}"))
        comps.append(
            EmitterScatter(
                in_mode=bus, emitter=n - k, reflected_out=out(k), sink=f"D'{k}"
            )
        )
        if k < n:
            comps.append(HWP(mode=out(k), theta_deg=45.0, label=f"flip{k}"))
        comps.append(
            Attenuator(
                mode=peel(k), sink=f"T{n + 1 - k}", rnom_power=n + 1 - k, label=f"T{n + 1 - k}"
            )
        )
        bus = out(k)
    for k in range(1, n + 1):
        comps.append(Mirror(in_mode=peel(k), out_mode=merged))
    comps.append(Mirror(in_mode=bus, out_mode=merged))
    comps.append(HWP(mode=merged, theta_deg=22.5))
    comps.append(DetectorBank.of({(merged, "H"): "D1", (merged, "V"): "D2"}))
    return Circuit(
        name=f"klmN{n}",
        n_emitters=n,
        modes=tuple(range(2 * n + 2)),
        components=comps,
        input_mode=0,
        input_pol="V",
    )


@functools.lru_cache(maxsize=32)
def build_protocol(protocol: str, n: int) -> Circuit:
    """The circuit of one protocol on n emitters.

    Cached: a ``Circuit`` is immutable and lowers itself once, so every
    run of a (protocol, n) pair reuses one validated program.
    """
    if n < 2:
        raise ValueError("heralded register generation needs n >= 2")
    if protocol == "klm2":
        if n != 2:
            raise ValueError("klm2 is a dedicated two-emitter layout")
        return build_two_qubit()
    if protocol == "klm3":
        if n != 3:
            raise ValueError("klm3 is a dedicated three-emitter layout")
        return build_three_qubit()
    if protocol == "klmN":
        return build_n_qubit(n)
    raise ValueError(f"unknown protocol {protocol!r}")


def default_protocol(n: int) -> str:
    if n == 2:
        return "klm2"
    if n == 3:
        return "klm3"
    return "klmN"


@dataclass
class HeraldedOutcome:
    """One detector click and what it leaves behind.

    ``conditioned`` is the register state right after the click,
    ``corrected`` the same state after the feedforward sign flips; both
    in the plusminus basis with the global phase fixed so the all-'+'
    amplitude is real and non-negative.  Circuits without a known
    feedforward table report conditioned states only.
    """

    detector: str
    probability: float
    conditioned: EmitterState
    flips: tuple[int, ...] = ()
    corrected: EmitterState | None = None
    fidelity: float | None = None


@dataclass
class ProtocolRun:
    protocol: str | None
    params: ProtocolParams
    outcomes: list[HeraldedOutcome]
    sinks: dict[str, float]

    @property
    def herald_probability(self) -> float:
        return sum(oc.probability for oc in self.outcomes)

    @property
    def weighted_fidelity(self) -> float:
        tot = self.herald_probability
        if tot <= 0.0:
            raise StateOpError("no herald fired, fidelity undefined")
        if any(oc.fidelity is None for oc in self.outcomes):
            raise StateOpError("no feedforward table for this circuit, fidelity undefined")
        return sum(oc.probability * oc.fidelity for oc in self.outcomes) / tot


def infer_protocol(circuit: Circuit) -> str | None:
    """Guess the feedforward table from a circuit's name, if any."""
    if circuit.name == "klm2" and circuit.n_emitters == 2:
        return "klm2"
    if circuit.name == "klm3" and circuit.n_emitters == 3:
        return "klm3"
    if circuit.name.startswith("klmN"):
        return "klmN"
    return None


def postprocess_execution(
    result: ExecutionResult,
    params: ProtocolParams,
    protocol: str | None,
) -> ProtocolRun:
    """Turn raw detector outcomes into reported register states.

    The conditioned states are already in the plusminus basis.  When a
    feedforward table is known for ``protocol``, applies the sign flips
    and scores against the target.
    """
    rules = feedforward_rules(protocol) if protocol else None
    target = klm_target(params.n) if protocol else None
    outcomes = []
    for oc in result.outcomes:
        reg = oc.state
        if rules is None:
            outcomes.append(
                HeraldedOutcome(oc.detector, oc.probability, reg.phase_normalized())
            )
            continue
        if oc.detector not in rules:
            raise StateOpError(
                f"detector {oc.detector} fired but has no feedforward rule"
            )
        flips = rules[oc.detector]
        corrected = reg.apply_sign_flips(flips)
        outcomes.append(
            HeraldedOutcome(
                detector=oc.detector,
                probability=oc.probability,
                conditioned=reg.phase_normalized(),
                flips=flips,
                corrected=corrected.phase_normalized(),
                fidelity=corrected.fidelity(target),
            )
        )
    return ProtocolRun(protocol, params, outcomes, result.sinks)


def run_protocol(params: ProtocolParams, protocol: str | None = None) -> ProtocolRun:
    """Build, execute and post-process one protocol at one operating point."""
    proto = protocol or default_protocol(params.n)
    circuit = build_protocol(proto, params.n)
    result = execute(circuit, params=params)
    return postprocess_execution(result, params, proto)
