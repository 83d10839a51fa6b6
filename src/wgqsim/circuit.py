"""Straight-line optical circuit programs and their executor.

A circuit is an immutable, ordered tuple of components acting on
declared spatial modes, ending in exactly one detector bank.  On first
execution it is validated once and lowered once into a cached tuple of
steps, one per component before the bank.  Lowering checks the fixed
2x2 matrices of mixers and wave plates for unitarity, so a run only
resolves the nominal reflection amplitude and each emitter's amplitudes
from its parameters.

Executing a circuit applies each step to a ``SystemState`` in order.
Every step returns its entry of the norm ledger (mass written plus sink
increments minus mass read, over the slots it touched); the running sum
is the drift of the conserved total, checked against ``NORM_TOL`` after
every component.  After the detector bank projects onto clicks, the
total is re-summed in full once, as a backstop for the ledger.

Attenuator coefficients may be given symbolically as a power of the
nominal reflection amplitude; emitter scattering always resolves its
amplitudes from the run parameters.  Such circuits are parameter-free
wiring diagrams, reusable across operating points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .params import ProtocolParams
from .scatter import hwp_matrix
from .state import (
    POLARIZATIONS,
    DetectorOutcome,
    Matrix2,
    StateOpError,
    SystemState,
    _check_unitary,
)

NORM_TOL = 1e-10

# complex(-x), not -complex(x): the latter carries a -0.0 imaginary part
_PLUS_HALF = complex(1.0 / math.sqrt(2.0))
_MINUS_HALF = complex(-1.0 / math.sqrt(2.0))


class CircuitError(Exception):
    """Ill-formed circuit or failed execution contract."""


class NormViolationError(CircuitError):
    """Conserved total drifted during execution."""

    def __init__(self, index: int, kind: str, drift: float):
        self.index = index
        self.kind = kind
        self.drift = drift
        super().__init__(
            f"norm drifted by {drift:.3e} after component {index} ({kind})"
        )


@dataclass(frozen=True)
class PBS:
    """Polarization router: moves (mode, pol) slots to new modes."""

    routing: tuple[tuple[tuple[int, str], int], ...]
    label: str = ""

    @staticmethod
    def of(routing: dict[tuple[int, str], int], label: str = "") -> "PBS":
        return PBS(tuple(sorted(routing.items())), label)

    @property
    def routing_map(self) -> dict[tuple[int, str], int]:
        return dict(self.routing)

    def modes(self) -> set[int]:
        out = set()
        for (m, _), o in self.routing:
            out |= {m, o}
        return out


@dataclass(frozen=True)
class Mixer:
    """Two-mode interference element.

    kind 'bs':      a -> (a+b)/sqrt2,  b -> (a-b)/sqrt2
    kind 'bsprime': a -> (b-a)/sqrt2,  b -> (a+b)/sqrt2
    kind 'vbs':     stage k of an n-stage peeling chain; couples a
                    fraction 1/(n+2-k) of the lower mode up
    kind 'custom':  explicit 2x2 entries, row-major
    """

    a: int
    b: int
    kind: str = "custom"
    k: int = 0
    n: int = 0
    entries: tuple[complex, complex, complex, complex] | None = None
    label: str = ""

    @staticmethod
    def bs(a: int, b: int, label: str = "") -> "Mixer":
        return Mixer(a, b, kind="bs", label=label)

    @staticmethod
    def bs_prime(a: int, b: int, label: str = "") -> "Mixer":
        return Mixer(a, b, kind="bsprime", label=label)

    @staticmethod
    def vbs(a: int, b: int, k: int, n: int, label: str = "") -> "Mixer":
        return Mixer(a, b, kind="vbs", k=k, n=n, label=label)

    @staticmethod
    def custom(a: int, b: int, matrix, label: str = "") -> "Mixer":
        """Any 2x2 input that iterates as rows, a numpy array included."""
        (m00, m01), (m10, m11) = matrix
        entries = (complex(m00), complex(m01), complex(m10), complex(m11))
        return Mixer(a, b, kind="custom", entries=entries, label=label)

    def matrix(self) -> Matrix2:
        if self.kind == "bs":
            return (_PLUS_HALF, _PLUS_HALF), (_PLUS_HALF, _MINUS_HALF)
        if self.kind == "bsprime":
            return (_MINUS_HALF, _PLUS_HALF), (_PLUS_HALF, _PLUS_HALF)
        if self.kind == "vbs":
            q = self.n + 2 - self.k
            s = 1.0 / math.sqrt(q)
            c = math.sqrt((q - 1.0) / q)
            return (complex(-c), complex(s)), (complex(s), complex(c))
        if self.kind == "custom":
            return self.entries[:2], self.entries[2:]
        raise CircuitError(f"unknown mixer kind {self.kind!r}")


@dataclass(frozen=True)
class HWP:
    """Half-wave plate on one mode, angle in degrees."""

    mode: int
    theta_deg: float
    label: str = ""


@dataclass(frozen=True)
class Attenuator:
    """Amplitude damper on one mode; lost probability goes to its sink.

    Exactly one of ``coeff`` (explicit complex value) or ``rnom_power``
    (resolved to nominal_r**power at execution time) is set.
    """

    mode: int
    sink: str
    coeff: complex | None = None
    rnom_power: int | None = None
    label: str = ""


@dataclass(frozen=True)
class EmitterScatter:
    """Bounce the photon at in_mode off one emitter.

    The reflected branch leaves at reflected_out with flipped
    polarization; transmission plus free-space loss accumulates in the
    sink.  Amplitudes come from the run parameters of that emitter.
    """

    in_mode: int
    emitter: int
    reflected_out: int
    sink: str
    label: str = ""


@dataclass(frozen=True)
class Mirror:
    """Relabel in_mode onto out_mode; merging onto an occupied mode adds."""

    in_mode: int
    out_mode: int
    label: str = ""


@dataclass(frozen=True)
class DetectorBank:
    """Terminal projective measurement: (mode, pol) -> detector id."""

    mapping: tuple[tuple[tuple[int, str], str], ...]
    label: str = ""

    @staticmethod
    def of(mapping: dict[tuple[int, str], str], label: str = "") -> "DetectorBank":
        return DetectorBank(tuple(sorted(mapping.items())), label)

    @property
    def mapping_dict(self) -> dict[tuple[int, str], str]:
        return dict(self.mapping)


Component = PBS | Mixer | HWP | Attenuator | EmitterScatter | Mirror | DetectorBank


@dataclass(frozen=True)
class Circuit:
    """Named straight-line program over declared modes.

    Immutable, so one validated and lowered program can serve every
    run; ``components`` is stored as a tuple.
    """

    name: str
    n_emitters: int
    modes: tuple[int, ...]
    components: tuple[Component, ...]
    input_mode: int = 0
    input_pol: str = "H"
    input_register: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.input_register:
            object.__setattr__(self, "input_register", "+" * self.n_emitters)

    @property
    def bank(self) -> DetectorBank:
        last = self.components[-1]
        if not isinstance(last, DetectorBank):
            raise CircuitError("circuit does not end in a detector bank")
        return last

    def validate(self) -> None:
        if self.n_emitters < 1:
            raise CircuitError("circuit needs at least one emitter")
        if not self.components:
            raise CircuitError("circuit has no components")
        if not isinstance(self.components[-1], DetectorBank):
            raise CircuitError("last component must be the detector bank")
        declared = set(self.modes)
        if len(self.modes) != len(declared):
            raise CircuitError("duplicate mode declaration")
        if self.input_mode not in declared:
            raise CircuitError(f"input mode {self.input_mode} not declared")
        sinks: list[str] = []
        for i, comp in enumerate(self.components):
            if isinstance(comp, DetectorBank) and i != len(self.components) - 1:
                raise CircuitError(f"detector bank at position {i} is not terminal")
            used = self._modes_of(comp)
            missing = used - declared
            if missing:
                raise CircuitError(
                    f"component {i} ({type(comp).__name__}) uses undeclared modes {sorted(missing)}"
                )
            if isinstance(comp, Mixer):
                if comp.a == comp.b:
                    raise CircuitError(f"mixer at {i} couples a mode with itself")
                if comp.kind == "vbs" and not 1 <= comp.k <= comp.n:
                    raise CircuitError(f"vbs at {i} needs 1 <= k <= n, got k={comp.k} n={comp.n}")
            if isinstance(comp, Attenuator):
                if (comp.coeff is None) == (comp.rnom_power is None):
                    raise CircuitError(
                        f"attenuator at {i} needs exactly one of coeff or rnom_power"
                    )
                if comp.rnom_power is not None and comp.rnom_power < 0:
                    raise CircuitError(f"attenuator at {i} has negative rnom power")
                sinks.append(comp.sink)
            if isinstance(comp, EmitterScatter):
                if not 0 <= comp.emitter < self.n_emitters:
                    raise CircuitError(
                        f"component {i} scatters off emitter {comp.emitter}, register has {self.n_emitters}"
                    )
                sinks.append(comp.sink)
        if len(sinks) != len(set(sinks)):
            dupes = sorted({s for s in sinks if sinks.count(s) > 1})
            raise CircuitError(f"sink names must be unique, repeated: {dupes}")
        ids = [d for _, d in self.bank.mapping]
        if len(ids) != len(set(ids)):
            raise CircuitError("detector ids must be unique")

    @staticmethod
    def _modes_of(comp: Component) -> set[int]:
        if isinstance(comp, PBS):
            return comp.modes()
        if isinstance(comp, Mixer):
            return {comp.a, comp.b}
        if isinstance(comp, HWP):
            return {comp.mode}
        if isinstance(comp, Attenuator):
            return {comp.mode}
        if isinstance(comp, EmitterScatter):
            return {comp.in_mode, comp.reflected_out}
        if isinstance(comp, Mirror):
            return {comp.in_mode, comp.out_mode}
        if isinstance(comp, DetectorBank):
            return {m for (m, _), _ in comp.mapping}
        raise CircuitError(f"unknown component {comp!r}")

    @cached_property
    def steps(self) -> tuple:
        """The components before the bank, validated and lowered once.

        Each step is called as step(state, nominal r, per-emitter
        ScatterCoeffs), applies its component and returns its
        norm-ledger entry.  Raises ``CircuitError`` for an ill-formed
        circuit, naming the component whose matrix is not unitary.
        """
        self.validate()
        steps = []
        for i, comp in enumerate(self.components[:-1]):
            try:
                steps.append(_lower(comp))
            except StateOpError as exc:
                raise CircuitError(f"component {i} ({type(comp).__name__}): {exc}") from exc
        return tuple(steps)

    def __getstate__(self) -> dict:
        # the lowered steps are closures, so a pickled copy lowers itself again
        return {k: v for k, v in self.__dict__.items() if k != "steps"}

    def find(self, kind: type, label: str | None = None) -> list[int]:
        """Indices of components of a type, optionally filtered by label."""
        return [
            i
            for i, c in enumerate(self.components)
            if isinstance(c, kind) and (label is None or c.label == label)
        ]

    def initial_state(self) -> SystemState:
        return SystemState.initial(
            self.n_emitters, self.input_mode, self.input_pol, self.input_register
        )


@dataclass
class TraceStep:
    index: int
    component: Component
    state: SystemState


@dataclass
class ExecutionResult:
    outcomes: list[DetectorOutcome]
    sinks: dict[str, float]
    final: SystemState
    trace: list[TraceStep] | None = None

    def herald_probability(self) -> float:
        return sum(oc.probability for oc in self.outcomes)

    def trace_dump(self) -> str:
        if self.trace is None:
            raise CircuitError("execution ran without trace recording")
        blocks = []
        for step in self.trace:
            comp = step.component
            tag = type(comp).__name__
            lbl = getattr(comp, "label", "")
            head = f"# step {step.index} {tag}" + (f" {lbl}" if lbl else "")
            blocks.append(head + "\n" + step.state.dump())
        return "\n\n".join(blocks) + "\n"


def _lower(comp: Component):
    """One component as a step; fixed matrices are checked here, once."""
    if isinstance(comp, PBS):
        routing = comp.routing_map
        return lambda state, rnom, coeffs: state.apply_pbs(routing)
    if isinstance(comp, Mixer):
        a, b, matrix = comp.a, comp.b, _check_unitary(comp.matrix())
        return lambda state, rnom, coeffs: state.apply_mode_mixer(a, b, matrix)
    if isinstance(comp, HWP):
        mode, matrix = comp.mode, _check_unitary(hwp_matrix(comp.theta_deg))
        return lambda state, rnom, coeffs: state.apply_polarization_unitary(mode, matrix)
    if isinstance(comp, Attenuator):
        mode, sink, fixed, power = comp.mode, comp.sink, comp.coeff, comp.rnom_power
        if fixed is not None:
            return lambda state, rnom, coeffs: state.apply_attenuator(mode, fixed, sink)

        def attenuate(state: SystemState, rnom, coeffs) -> float:
            if rnom is None:
                raise CircuitError("attenuator uses rnom but no parameters were given")
            return state.apply_attenuator(mode, rnom ** power, sink)

        return attenuate
    if isinstance(comp, EmitterScatter):
        in_mode, emitter, out, sink = comp.in_mode, comp.emitter, comp.reflected_out, comp.sink

        def scatter(state: SystemState, rnom, coeffs) -> float:
            if coeffs is None:
                raise CircuitError("emitter scattering needs run parameters")
            return state.apply_emitter_scatter(in_mode, emitter, coeffs[emitter], out, sink)

        return scatter
    if isinstance(comp, Mirror):
        in_mode, out_mode = comp.in_mode, comp.out_mode
        return lambda state, rnom, coeffs: state.apply_mirror(in_mode, out_mode)
    raise CircuitError(f"cannot apply component {comp!r}")


def execute(
    circuit: Circuit,
    params: ProtocolParams | None = None,
    trace: bool = False,
) -> ExecutionResult:
    """Run a circuit from its input state, checking conservation throughout.

    The drift is the running sum of the steps' ledger entries, checked
    after every component; the full ``total_norm`` is re-summed once,
    after the detector bank.  With ``trace`` on, a copy of the live
    state, in the basis the report uses, is stored after every
    component.  Bit-for-bit deterministic: identical inputs give
    identical results.
    """
    steps = circuit.steps
    if params is None:
        rnom = coeffs = None
    elif params.n != circuit.n_emitters:
        raise CircuitError(
            f"parameters describe {params.n} emitters, circuit has {circuit.n_emitters}"
        )
    else:
        rnom = params.nominal_coeffs().r
        coeffs = [params.coeffs(e) for e in range(params.n)]
    state = circuit.initial_state()
    norm0 = state.total_norm
    drift = 0.0
    snapshots: list[TraceStep] | None = [] if trace else None
    outcomes: list[DetectorOutcome] = []
    for i, comp in enumerate(circuit.components):
        try:
            if i < len(steps):
                drift += steps[i](state, rnom, coeffs)
            else:
                outcomes = state.measure_detector_bank(comp.mapping_dict)
                drift = state.total_norm - norm0
        except StateOpError as exc:
            raise CircuitError(f"component {i} ({type(comp).__name__}): {exc}") from exc
        if abs(drift) > NORM_TOL:
            raise NormViolationError(i, type(comp).__name__, abs(drift))
        if snapshots is not None:
            snapshots.append(TraceStep(i, comp, state.copy()))
    return ExecutionResult(outcomes, dict(state.sinks), state, snapshots)


@dataclass
class UnitarityEntry:
    index: int
    kind: str
    label: str
    passive: bool
    max_deviation: float

    @property
    def ok(self) -> bool:
        return not self.passive or self.max_deviation <= 1e-12


@dataclass
class UnitarityReport:
    entries: list[UnitarityEntry]

    @property
    def passive_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def non_passive(self) -> list[UnitarityEntry]:
        return [e for e in self.entries if not e.passive]


def check_passive_unitarity(circuit: Circuit) -> UnitarityReport:
    """Sweep basis states through each component.

    Every passive element (router, mixer, wave plate, mirror) must
    preserve norm on each single-slot basis state to 1e-12.  Attenuators
    and scattering are reported as non-passive, which is expected and
    not a failure.
    """
    entries = []
    for i, (comp, step) in enumerate(zip(circuit.components, circuit.steps)):
        kind = type(comp).__name__
        label = getattr(comp, "label", "")
        if isinstance(comp, (Attenuator, EmitterScatter)):
            entries.append(UnitarityEntry(i, kind, label, passive=False, max_deviation=0.0))
            continue
        worst = 0.0
        for mode in circuit.modes:
            for pol in POLARIZATIONS:
                probe = SystemState(
                    circuit.n_emitters, {(mode, pol, 0): 1.0 + 0.0j}
                )
                step(probe, None, None)
                worst = max(worst, abs(probe.total_norm - 1.0))
        entries.append(UnitarityEntry(i, kind, label, passive=True, max_deviation=worst))
    return UnitarityReport(entries)
