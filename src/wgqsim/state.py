"""Sparse joint state of one photon and a register of emitter qubits.

The photon occupies exactly one excitation spread over spatial modes and
polarizations; the register of N two-level emitters is entangled with it.
A pure state is stored per spatial mode as sparse maps

    mode -> {(polarization, config): complex amplitude}

so an operation reads only the inner maps of its own one or two modes.
``amplitudes`` is a read-only flat view (mode, polarization, config) ->
amplitude, built on each access; the constructor takes that flat form.
``config`` is an N-bit integer, bit i describing emitter i in the
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
modes, then sorted inner keys, so repeated runs are bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

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
Slots = dict[tuple[str, int], complex]  # one mode: (pol, config) -> amp
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


def _set(slots: Slots, key, amp: complex, scale: float) -> float:
    """Store amp at key, or drop it if |amp| <= PRUNE_TOL * scale.

    ``scale`` is the largest |operand| combined into amp, 0 where
    nothing can cancel.  Returns the mass written, |stored amp|^2.
    """
    mag = abs(amp)
    if mag > PRUNE_TOL * scale:
        # plain complex keeps dumps and JSON free of numpy scalar reprs
        slots[key] = complex(amp)
        return mag * mag
    slots.pop(key, None)
    return 0.0


def _add(slots: Slots, key, amp: complex) -> float:
    """Add amp onto key; returns the change of |amplitude at key|^2."""
    old = slots.get(key, 0.0)
    return _set(slots, key, old + amp, max(abs(old), abs(amp))) - abs(old) ** 2


def _mix(sa: Slots, ka, sb: Slots, kb, m: Matrix2) -> float:
    """(sa[ka], sb[kb]) <- m (sa[ka], sb[kb]); returns its ledger entry."""
    (m00, m01), (m10, m11) = m
    x, y = sa.pop(ka, 0.0), sb.pop(kb, 0.0)
    scale = max(abs(x), abs(y))
    new_a = _set(sa, ka, m00 * x + m01 * y, scale)
    return new_a + _set(sb, kb, m10 * x + m11 * y, scale) - abs(x) ** 2 - abs(y) ** 2


class SystemState:
    """Mutable photon + register state.  Value semantics via copy()."""

    __slots__ = ("n", "_modes", "sinks")

    def __init__(
        self,
        n: int,
        amplitudes: dict[Slot, complex] | None = None,
        sinks: dict[str, float] | None = None,
    ):
        if n < 1:
            raise StateOpError(f"need at least one emitter, got n={n}")
        self.n = n
        self._modes: dict[int, Slots] = {}
        for (m, p, c), a in (amplitudes or {}).items():
            self._modes.setdefault(m, {})[(p, c)] = a
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
        out = SystemState(self.n, None, self.sinks)
        out._modes = {m: dict(slots) for m, slots in self._modes.items() if slots}
        return out

    # -- bookkeeping ----------------------------------------------------

    @property
    def amplitudes(self) -> MappingProxyType:
        """Read-only flat view (mode, pol, config) -> amp, built on each access."""
        return MappingProxyType(
            {(m, p, c): a for m, slots in self._modes.items() for (p, c), a in slots.items()}
        )

    @property
    def total_norm(self) -> float:
        """sum |amp|^2 + sum sinks.  Conserved by every operation."""
        modes = self._modes
        amp_part = sum(abs(modes[m][k]) ** 2 for m in sorted(modes) for k in sorted(modes[m]))
        sink_part = sum(self.sinks[k] for k in sorted(self.sinks))
        return amp_part + sink_part

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
        m = _check_unitary(matrix)
        slots = self._modes.get(mode, {})
        delta = 0.0
        for c in sorted({c for (_, c) in slots}):
            delta += _mix(slots, (H, c), slots, (V, c), m)
        return delta

    def apply_mode_mixer(self, a: int, b: int, matrix: Matrix2) -> float:
        """2x2 unitary between two spatial modes, per polarization.

        new_a = m00*a + m01*b, new_b = m10*a + m11*b.
        """
        if a == b:
            raise StateOpError("mixer needs two distinct modes")
        m = _check_unitary(matrix)
        sa, sb = self._modes.setdefault(a, {}), self._modes.setdefault(b, {})
        delta = 0.0
        for key in sorted(sa.keys() | sb.keys()):
            delta += _mix(sa, key, sb, key, m)
        return delta

    def apply_pbs(self, routing: dict[tuple[int, str], int]) -> float:
        """Reroute (mode, pol) slots to new modes; polarization unchanged.

        Slots not named in the routing stay put.  The move must be
        collision-free on occupied slots; a beam splitter that would put
        two occupied slots on top of each other is a wiring error.  A
        collision-free move keeps every amplitude, so the norm change
        is exactly 0.
        """
        moves: list[tuple[int, tuple[str, int], int]] = []
        for m in sorted({m for (m, _) in routing}):
            for key in sorted(self._modes.get(m, ())):
                out = routing.get((m, key[0]), m)
                if out != m:
                    moves.append((m, key, out))
        taken = set()
        for _, key, out in moves:
            stays = key in self._modes.get(out, ()) and routing.get((out, key[0]), out) == out
            if stays or (out, key) in taken:
                raise StateOpError(f"routing collision at slot {(out, *key)}")
            taken.add((out, key))
        amps = [self._modes[m].pop(key) for m, key, _ in moves]
        for (_, key, out), a in zip(moves, amps):
            self._modes.setdefault(out, {})[key] = a
        return 0.0

    def apply_mirror(self, in_mode: int, out_mode: int) -> float:
        """Relabel one spatial mode onto another.

        Unlike a beam splitter this may land on an occupied mode, in
        which case amplitudes add coherently.  Norm is preserved only
        when the merged branches occupy disjoint (pol, config) slots;
        the returned ledger entry shows misuse as a norm change.
        """
        if in_mode == out_mode or in_mode not in self._modes:
            return 0.0
        src = self._modes.pop(in_mode)
        dst = self._modes.setdefault(out_mode, {})
        delta = 0.0
        for key, a in sorted(src.items()):
            delta += _add(dst, key, a) - abs(a) ** 2
        return delta

    def apply_attenuator(self, mode: int, coeff: complex, sink: str) -> float:
        """Multiply one mode by coeff, |coeff| <= 1; lost mass goes to sink."""
        mag = abs(coeff)
        if mag > 1.0 + 1e-12:
            raise StateOpError(f"attenuator coefficient must have |c| <= 1, got |{coeff}|")
        drop = max(0.0, 1.0 - mag * mag)
        slots = self._modes.get(mode, {})
        delta = 0.0
        for key, a in sorted(slots.items()):
            mass = abs(a) ** 2
            delta += self._add_sink(sink, drop * mass) + _set(slots, key, coeff * a, 0.0) - mass
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
        if len({p for (p, _) in self._modes.get(in_mode, ())}) > 1:
            raise StateOpError(f"mode {in_mode} carries both polarizations, scattering undefined")
        src = self._modes.pop(in_mode, {})
        dst = self._modes.setdefault(reflected_out, {})
        r = coeffs.r
        miss = max(0.0, 1.0 - abs(r) ** 2)
        bit = 1 << emitter
        delta = 0.0
        for (p, c), a in sorted(src.items()):
            mass = abs(a) ** 2
            missed = self._add_sink(herald_sink, miss * mass)
            delta += missed + _add(dst, (V if p == H else H, c ^ bit), r * a) - mass
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
        modes = self._modes
        uncovered = sorted({(m, p) for m in modes for (p, _) in modes[m] if (m, p) not in bank})
        if uncovered:
            raise UncoveredSlotError([(m, p, -1) for (m, p) in uncovered])
        collected: dict[str, dict[int, complex]] = {}
        for m in sorted(modes):
            for (p, c) in sorted(modes[m]):
                collected.setdefault(bank[(m, p)], {})[c] = modes[m][(p, c)]
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
