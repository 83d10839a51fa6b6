"""Sparse joint state of one photon and a register of emitter qubits.

The photon occupies exactly one excitation spread over spatial modes and
polarizations; the register of N two-level emitters is entangled with it.
A pure state is stored as a sparse map

    (mode, polarization, config) -> complex amplitude

where ``config`` is an N-bit integer, bit i describing emitter i in the
plusminus basis: bit 0/1 is the diagonal state (g+ +- g-)/sqrt2, printed
'+'/'-'.  The g+ branch reflects with +r and the g- branch with -r, so a
scatter is r*Z on one emitter, which flips a single bit.  The '+'/'-'
input register is one config, and runs, traces and reports all use this
one basis.  ``EmitterState`` can still Hadamard a register into the
energy basis (bit 0/1 is the ground sublevel g+/g-) for reference.

Photon loss channels are classical once the photon is gone, so they are
tracked as real probability sinks, not amplitudes.  The conserved total is

    sum |amplitude|^2  +  sum sinks  =  norm of the input.

Every ``apply_*`` returns its own entry of a norm ledger: the mass it
wrote plus its sink increments minus the mass it read, over only the
slots it touched.  The executor sums these entries into a running drift
instead of re-summing the whole state after each component, and
re-sums ``total_norm`` in full once, after the detector bank.

Pruning is relative to the operands an operation combined into a slot:
a mixer or wave plate drops a result |new| <= PRUNE_TOL * max(|a|, |b|)
over the two amplitudes it mixed, and a mirror or scatter that adds onto
an occupied slot drops |new| <= PRUNE_TOL * max(|old|, |added|).  An
attenuator multiplies by a nonzero coefficient and cannot cancel, so it
drops only an exact zero.  A slot whose operands are all small therefore
keeps a small result, so rare herald outcomes keep their probability.
The scale is the largest operand, not the term that produced the
result: a wave plate at 0 degrees on H = 0.7, V = 7e-16 drops the new V.

A 2x2 element arrives as rows ((m00, m01), (m10, m11)) of plain complex
(a numpy array passes too) and is checked for unitarity on every apply,
unless it is the value ``_check_unitary`` returned, which is checked
already.

All iteration that feeds floating-point accumulation runs over sorted
keys, so repeated runs are bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

H = "H"
V = "V"
POLARIZATIONS = (H, V)

ENERGY = "energy"
PLUSMINUS = "plusminus"

# In SystemState: a result at most this fraction of the largest operand
# combined into its slot is cancellation dust.  In EmitterState: the
# absolute cutoff below which phase_normalized skips a reference
# amplitude and the Hadamard basis change drops an amplitude.
PRUNE_TOL = 1e-14

_SQRT_HALF = 1.0 / math.sqrt(2.0)

Slot = tuple[int, str, int]
Slot2 = tuple[int, str]
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


class StateOpError(ValueError):
    """Operation applied outside its contract."""


class UncoveredSlotError(StateOpError):
    """Detector bank leaves occupied slots unobserved."""

    def __init__(self, slots: list[Slot]):
        self.slots = slots
        super().__init__(f"detector bank does not cover occupied slots: {slots}")


class _Unitary(tuple):
    """Rows ((m00, m01), (m10, m11)) that passed ``_check_unitary``."""

    __slots__ = ()


def _check_unitary(m) -> Matrix2:
    """Rows of m as plain complex, if np.allclose(M^H M, I, atol=1e-10) holds:
    |diagonal - 1| <= 1e-10 + 1e-5 and |off-diagonal| <= 1e-10.

    The rows come back as a ``_Unitary``, which passes again unchecked.
    """
    if type(m) is _Unitary:
        return m
    try:
        (a, b), (c, d) = m
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    except (TypeError, ValueError) as exc:
        raise StateOpError(f"expected a 2x2 matrix, got {m!r}") from exc
    if not (
        abs(abs(a) ** 2 + abs(c) ** 2 - 1.0) <= 1e-10 + 1e-5
        and abs(abs(b) ** 2 + abs(d) ** 2 - 1.0) <= 1e-10 + 1e-5
        and abs(a.conjugate() * b + c.conjugate() * d) <= 1e-10
    ):
        raise StateOpError("matrix is not unitary")
    return _Unitary(((a, b), (c, d)))


def config_label(config: int, n: int) -> str:
    """Render an N-bit config as '+'/'-' characters, emitter 0 first."""
    return "".join("-" if config >> i & 1 else "+" for i in range(n))


@dataclass
class EmitterState:
    """Sparse state of the emitter register alone (photon detected)."""

    n: int
    basis: str
    amps: dict[int, complex] = field(default_factory=dict)

    def copy(self) -> "EmitterState":
        return EmitterState(self.n, self.basis, dict(self.amps))

    def norm_sq(self) -> float:
        return sum(abs(self.amps[c]) ** 2 for c in sorted(self.amps))

    def overlap(self, other: "EmitterState") -> complex:
        """<self|other>.  Both states must share n and basis."""
        if self.n != other.n or self.basis != other.basis:
            raise StateOpError("overlap requires matching register size and basis")
        return sum(
            self.amps[c].conjugate() * other.amps[c]
            for c in sorted(self.amps.keys() & other.amps.keys())
        )

    def fidelity(self, other: "EmitterState") -> float:
        """|<self|other>|^2 of the normalized states.  Phase-insensitive.

        Cauchy-Schwarz bounds it by 1; rounding above that is clamped.
        """
        denom = self.norm_sq() * other.norm_sq()
        return min(1.0, abs(self.overlap(other)) ** 2 / denom)

    def change_basis(self) -> "EmitterState":
        """Hadamard every emitter, toggling energy <-> plusminus."""
        amps = _hadamard_all_bits(self.amps, self.n)
        target = PLUSMINUS if self.basis == ENERGY else ENERGY
        return EmitterState(self.n, target, amps)

    def apply_sign_flips(self, emitters: tuple[int, ...]) -> "EmitterState":
        """Flip the sign of the '-' component of the listed emitters.

        This is the feedforward correction; it is diagonal in the
        plusminus basis, so the state must carry that tag.
        """
        if self.basis != PLUSMINUS:
            raise StateOpError("sign flips are defined in the plusminus basis")
        mask = 0
        for e in emitters:
            if not 0 <= e < self.n:
                raise StateOpError(f"emitter index {e} out of range for n={self.n}")
            mask |= 1 << e
        amps = {}
        for c in sorted(self.amps):
            parity = bin(c & mask).count("1") & 1
            amps[c] = -self.amps[c] if parity else self.amps[c]
        return EmitterState(self.n, self.basis, amps)

    def phase_normalized(self) -> "EmitterState":
        """Rotate the global phase so a reference amplitude is real >= 0.

        The reference is the all-'+' config when populated, otherwise the
        lowest populated config.
        """
        ref = None
        if abs(self.amps.get(0, 0.0)) > PRUNE_TOL:
            ref = self.amps[0]
        else:
            for c in sorted(self.amps):
                if abs(self.amps[c]) > PRUNE_TOL:
                    ref = self.amps[c]
                    break
        if ref is None:
            return self.copy()
        phase = ref / abs(ref)
        return EmitterState(self.n, self.basis, {c: a / phase for c, a in self.amps.items()})


def klm_target(n: int) -> EmitterState:
    """Uniform superposition of the N+1 domain-wall register states.

    Config j has emitters 0..j-1 in '+' and j..n-1 in '-', for j = 0..n;
    every amplitude is 1/sqrt(n+1).  Plusminus basis.
    """
    if n < 1:
        raise StateOpError(f"need n >= 1, got {n}")
    a = 1.0 / math.sqrt(n + 1)
    amps = {(1 << n) - (1 << j): complex(a) for j in range(n + 1)}
    return EmitterState(n, PLUSMINUS, amps)


def _hadamard_all_bits(amps: dict[int, complex], n: int) -> dict[int, complex]:
    cur = amps
    for i in range(n):
        bit = 1 << i
        nxt: dict[int, complex] = {}
        for c in sorted(cur):
            a = cur[c] * _SQRT_HALF
            lo, hi = c & ~bit, c | bit
            nxt[lo] = nxt.get(lo, 0.0) + a
            nxt[hi] = nxt.get(hi, 0.0) + (-a if c & bit else a)
        cur = {c: a for c, a in nxt.items() if abs(a) > PRUNE_TOL}
    return cur


@dataclass
class DetectorOutcome:
    detector: str
    probability: float
    state: EmitterState  # normalized register state conditioned on the click


class SystemState:
    """Mutable photon + register state.  Value semantics via copy()."""

    __slots__ = ("n", "amplitudes", "sinks")

    def __init__(
        self,
        n: int,
        amplitudes: dict[Slot, complex] | None = None,
        sinks: dict[str, float] | None = None,
    ):
        if n < 1:
            raise StateOpError(f"need at least one emitter, got n={n}")
        self.n = n
        self.amplitudes: dict[Slot, complex] = dict(amplitudes or {})
        self.sinks: dict[str, float] = dict(sinks or {})

    # -- construction ---------------------------------------------------

    @classmethod
    def initial(cls, n: int, photon_mode: int, photon_pol: str, emitters: str) -> "SystemState":
        """Photon in one definite slot, each emitter in |+> or |->.

        ``emitters`` is a string of '+'/'-' labels, emitter 0 first; that
        register is a single config with amplitude 1.
        """
        if photon_pol not in POLARIZATIONS:
            raise StateOpError(f"polarization must be H or V, got {photon_pol!r}")
        if len(emitters) != n or set(emitters) - {"+", "-"}:
            raise StateOpError(f"emitters must be n '+'/'-' labels, got {emitters!r}")
        config = sum(1 << i for i, label in enumerate(emitters) if label == "-")
        return cls(n, {(photon_mode, photon_pol, config): 1.0 + 0.0j})

    def copy(self) -> "SystemState":
        return SystemState(self.n, self.amplitudes, self.sinks)

    # -- bookkeeping ----------------------------------------------------

    @property
    def total_norm(self) -> float:
        """sum |amp|^2 + sum sinks.  Conserved by every operation."""
        amp_part = sum(abs(self.amplitudes[k]) ** 2 for k in sorted(self.amplitudes))
        sink_part = sum(self.sinks[k] for k in sorted(self.sinks))
        return amp_part + sink_part

    def _slots_on_mode(self, mode: int) -> list[Slot]:
        return sorted(k for k in self.amplitudes if k[0] == mode)

    def _set(self, slot: Slot, amp: complex, scale: float) -> float:
        """Store amp, or drop it if |amp| <= PRUNE_TOL * scale.

        ``scale`` is the largest |operand| combined into amp, 0 where
        nothing can cancel.  Returns the mass written, |stored amp|^2.
        """
        mag = abs(amp)
        if mag > PRUNE_TOL * scale:
            # plain complex keeps dumps and JSON free of numpy scalar reprs
            self.amplitudes[slot] = complex(amp)
            return mag * mag
        self.amplitudes.pop(slot, None)
        return 0.0

    def _add(self, slot: Slot, amp: complex) -> float:
        """Add amp onto slot; returns the change of |slot amplitude|^2."""
        old = self.amplitudes.get(slot, 0.0)
        return self._set(slot, old + amp, max(abs(old), abs(amp))) - abs(old) ** 2

    def _add_sink(self, sink: str, p: float) -> float:
        if p != 0.0:
            self.sinks[sink] = self.sinks.get(sink, 0.0) + float(p)
        return p

    # -- operations -----------------------------------------------------
    #
    # Each returns its norm-ledger entry: mass written plus sink
    # increments minus mass read, over the slots it touched.

    def apply_polarization_unitary(self, mode: int, matrix: Matrix2) -> float:
        """2x2 unitary on (H, V) of one spatial mode."""
        (m00, m01), (m10, m11) = _check_unitary(matrix)
        delta = 0.0
        for c in sorted({c for (m, _, c) in self.amplitudes if m == mode}):
            h = self.amplitudes.pop((mode, H, c), 0.0)
            v = self.amplitudes.pop((mode, V, c), 0.0)
            scale = max(abs(h), abs(v))
            delta += (
                self._set((mode, H, c), m00 * h + m01 * v, scale)
                + self._set((mode, V, c), m10 * h + m11 * v, scale)
                - abs(h) ** 2 - abs(v) ** 2
            )
        return delta

    def apply_mode_mixer(self, a: int, b: int, matrix: Matrix2) -> float:
        """2x2 unitary between two spatial modes, per polarization.

        new_a = m00*a + m01*b, new_b = m10*a + m11*b.
        """
        if a == b:
            raise StateOpError("mixer needs two distinct modes")
        (m00, m01), (m10, m11) = _check_unitary(matrix)
        pairs = sorted({(p, c) for (md, p, c) in self.amplitudes if md in (a, b)})
        delta = 0.0
        for (pol, c) in pairs:
            ka, kb = (a, pol, c), (b, pol, c)
            va = self.amplitudes.pop(ka, 0.0)
            vb = self.amplitudes.pop(kb, 0.0)
            scale = max(abs(va), abs(vb))
            delta += (
                self._set(ka, m00 * va + m01 * vb, scale)
                + self._set(kb, m10 * va + m11 * vb, scale)
                - abs(va) ** 2 - abs(vb) ** 2
            )
        return delta

    def apply_pbs(self, routing: dict[tuple[int, str], int]) -> float:
        """Reroute (mode, pol) slots to new modes; polarization unchanged.

        Slots not named in the routing stay put.  The move must be
        collision-free on occupied slots; a beam splitter that would put
        two occupied slots on top of each other is a wiring error.  A
        collision-free move keeps every amplitude, so the norm change
        is exactly 0.
        """
        occupied = sorted(self.amplitudes)
        moves: list[tuple[Slot, Slot]] = []
        stay: set[Slot] = set()
        for (m, p, c) in occupied:
            out = routing.get((m, p))
            if out is None or out == m:
                stay.add((m, p, c))
            else:
                moves.append(((m, p, c), (out, p, c)))
        taken = set(stay)
        for _, dst in moves:
            if dst in taken:
                raise StateOpError(f"routing collision at slot {dst}")
            taken.add(dst)
        amps = [self.amplitudes.pop(src) for src, _ in moves]
        for (_, dst), a in zip(moves, amps):
            self.amplitudes[dst] = a
        return 0.0

    def apply_mirror(self, in_mode: int, out_mode: int) -> float:
        """Relabel one spatial mode onto another.

        Unlike a beam splitter this may land on an occupied mode, in
        which case amplitudes add coherently.  Norm is preserved only
        when the merged branches occupy disjoint (pol, config) slots;
        the returned ledger entry shows misuse as a norm change.
        """
        if in_mode == out_mode:
            return 0.0
        delta = 0.0
        for (m, p, c) in self._slots_on_mode(in_mode):
            a = self.amplitudes.pop((m, p, c))
            delta += self._add((out_mode, p, c), a) - abs(a) ** 2
        return delta

    def apply_attenuator(self, mode: int, coeff: complex, sink: str) -> float:
        """Multiply one mode by coeff, |coeff| <= 1; lost mass goes to sink."""
        mag = abs(coeff)
        if mag > 1.0 + 1e-12:
            raise StateOpError(f"attenuator coefficient must have |c| <= 1, got |{coeff}|")
        drop = max(0.0, 1.0 - mag * mag)
        delta = 0.0
        for slot in self._slots_on_mode(mode):
            a = self.amplitudes[slot]
            mass = abs(a) ** 2
            delta += self._add_sink(sink, drop * mass) + self._set(slot, coeff * a, 0.0) - mass
        return delta

    def apply_emitter_scatter(
        self,
        in_mode: int,
        emitter: int,
        coeffs,
        reflected_out: int,
        herald_sink: str,
    ) -> float:
        """Scatter the photon at in_mode off one emitter.

        The g+ branch reflects with +r and the g- branch with -r, so the
        reflection is r*Z on the emitter, which flips the emitter's bit.
        The reflected photon flips polarization.
        Transmission and free-space emission both mean the herald will
        not fire, so their combined probability 1 - |r|^2 lands in the
        herald sink.
        """
        if not 0 <= emitter < self.n:
            raise StateOpError(f"emitter index {emitter} out of range for n={self.n}")
        slots = self._slots_on_mode(in_mode)
        pols = {p for _, p, _ in slots}
        if len(pols) > 1:
            raise StateOpError(f"mode {in_mode} carries both polarizations, scattering undefined")
        r = coeffs.r
        miss = max(0.0, 1.0 - abs(r) ** 2)
        bit = 1 << emitter
        delta = 0.0
        for (m, p, c) in slots:
            a = self.amplitudes.pop((m, p, c))
            mass = abs(a) ** 2
            out_pol = V if p == H else H
            delta += (
                self._add_sink(herald_sink, miss * mass)
                + self._add((reflected_out, out_pol, c ^ bit), r * a)
                - mass
            )
        return delta

    def measure_detector_bank(self, bank: dict[Slot2, str]) -> list[DetectorOutcome]:
        """Project onto which detector fired.

        ``bank`` maps (mode, pol) -> detector id and must cover every
        occupied slot.  Returns one outcome per detector that sees an
        occupied slot with a click probability above float underflow,
        sorted by detector id; each carries the normalized register state
        conditioned on that click.
        """
        ids = list(bank.values())
        if len(set(ids)) != len(ids):
            raise StateOpError("detector ids must be unique")
        uncovered = sorted(
            {(m, p) for (m, p, _) in self.amplitudes if (m, p) not in bank}
        )
        if uncovered:
            raise UncoveredSlotError([(m, p, -1) for (m, p) in uncovered])
        collected: dict[str, dict[int, complex]] = {}
        for (m, p, c) in sorted(self.amplitudes):
            det = bank[(m, p)]
            collected.setdefault(det, {})[c] = self.amplitudes[(m, p, c)]
        outcomes = []
        for det in sorted(collected):
            amps = collected[det]
            prob = sum(abs(amps[c]) ** 2 for c in sorted(amps))
            if prob == 0.0:  # every |amp|^2 underflows: the click is below float range
                continue
            scale = 1.0 / math.sqrt(prob)
            reg = EmitterState(self.n, PLUSMINUS, {c: a * scale for c, a in amps.items()})
            outcomes.append(DetectorOutcome(det, prob, reg))
        return outcomes

    # -- reporting ------------------------------------------------------

    def dump(self) -> str:
        """One line per slot, 'mode,pol,config,re,im', lexicographically sorted."""
        lines = [
            f"{m},{p},{config_label(c, self.n)},{a.real!r},{a.imag!r}"
            for (m, p, c), a in self.amplitudes.items()
        ]
        return "\n".join(sorted(lines))

    def allclose(self, other: "SystemState", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        keys = self.amplitudes.keys() | other.amplitudes.keys()
        if any(
            abs(self.amplitudes.get(k, 0.0) - other.amplitudes.get(k, 0.0)) > tol
            for k in keys
        ):
            return False
        sk = self.sinks.keys() | other.sinks.keys()
        return all(abs(self.sinks.get(k, 0.0) - other.sinks.get(k, 0.0)) <= tol for k in sk)
