"""Plain-text wiring format for circuits (.wgq files).

Line-oriented, one statement per line; ';' also separates statements and
'#' starts a comment.  Header statements declare the circuit, then one
statement per component, ending with the detector declaration:

    circuit klm2
    emitters 2
    modes 0 1 2 3
    input mode=0 pol=H register=++
    hwp mode=0 theta=22.5 label=prep
    pbs (0,H)->1 (0,V)->2
    mix kind=bsprime a=3 b=4
    att mode=1 coeff=rnom^2 sink=T2
    scatter in=2 emitter=1 out=3 sink=D'1
    mirror in=3 out=4
    detect D1=(6,H) D2=(6,V)

Attenuator coefficients are either 're,im' literals or 'rnom^j', which
resolves to the nominal reflection amplitude to the j-th power when the
circuit is executed with parameters.  Scattering always resolves its
amplitudes from the execution parameters.

Parse errors carry 1-based line and column numbers.  serialize() emits
a canonical form that parses back to a structurally equal circuit.
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .circuit import (
    PBS,
    Attenuator,
    Circuit,
    CircuitError,
    Component,
    DetectorBank,
    EmitterScatter,
    HWP,
    Mirror,
    Mixer,
)

BUILTIN_NETLISTS = ("klm2", "klm3", "klm5", "heralded_z")

_TOKEN = re.compile(r"\S+")
_ROUTE = re.compile(r"^\((\d+),([HV])\)->(\d+)$")
_DETECT = re.compile(r"^([^=\s]+)=\((\d+),([HV])\)$")
_RNOM = re.compile(r"^rnom\^(\d+)$")


class NetlistError(ValueError):
    """Malformed netlist text, with position information."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class _Stmt:
    __slots__ = ("kind", "tokens", "line", "cols")

    def __init__(self, kind: str, tokens: list[str], line: int, cols: list[int]):
        self.kind = kind
        self.tokens = tokens  # without the leading keyword
        self.line = line
        self.cols = cols  # 1-based column of each token, keyword first


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for chunk in line.split(";"):
            toks = [(m.group(0), offset + m.start() + 1) for m in _TOKEN.finditer(chunk)]
            offset += len(chunk) + 1
            if not toks:
                continue
            kind = toks[0][0]
            yield _Stmt(
                kind,
                [t for t, _ in toks[1:]],
                lineno,
                [c for _, c in toks],
            )


def _kv(stmt: _Stmt, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Split key=value tokens; returns dict of (value, col)."""
    seen: dict[str, tuple[str, int]] = {}
    for tok, col in zip(stmt.tokens, stmt.cols[1:]):
        if "=" not in tok:
            raise NetlistError(f"expected key=value, got {tok!r}", stmt.line, col)
        key, val = tok.split("=", 1)
        if key not in required + optional:
            raise NetlistError(f"unknown argument {key!r}", stmt.line, col)
        if key in seen:
            raise NetlistError(f"duplicate argument {key!r}", stmt.line, col)
        seen[key] = (val, col)
    for key in required:
        if key not in seen:
            raise NetlistError(
                f"{stmt.kind} statement needs {key}=", stmt.line, stmt.cols[0]
            )
    return seen


def _as_int(stmt: _Stmt, val: str, col: int, what: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise NetlistError(f"{what} must be an integer, got {val!r}", stmt.line, col)


def _as_float(stmt: _Stmt, val: str, col: int, what: str) -> float:
    try:
        out = float(val)
    except ValueError:
        raise NetlistError(f"{what} must be a number, got {val!r}", stmt.line, col)
    if not math.isfinite(out):
        raise NetlistError(f"{what} must be finite, got {val!r}", stmt.line, col)
    return out


def _as_complex(stmt: _Stmt, val: str, col: int, what: str) -> complex:
    parts = val.split(",")
    if len(parts) != 2:
        raise NetlistError(f"{what} must be 're,im', got {val!r}", stmt.line, col)
    re_part = _as_float(stmt, parts[0], col, what)
    im_part = _as_float(stmt, parts[1], col, what)
    return complex(re_part, im_part)


def parse(text: str) -> Circuit:
    """Parse netlist text into a circuit.

    Raises NetlistError with line/column on malformed input; the
    returned circuit additionally passes structural validation.
    """
    name: str | None = None
    n_emitters: int | None = None
    modes: tuple[int, ...] | None = None
    input_args: dict | None = None
    input_stmt: _Stmt | None = None
    components: list[Component] = []
    saw_detect = False

    for stmt in _statements(text):
        if saw_detect:
            raise NetlistError(
                "detect must be the last statement", stmt.line, stmt.cols[0]
            )
        if stmt.kind == "circuit":
            if name is not None:
                raise NetlistError("duplicate circuit statement", stmt.line, stmt.cols[0])
            if len(stmt.tokens) != 1:
                raise NetlistError("circuit statement needs one name", stmt.line, stmt.cols[0])
            name = stmt.tokens[0]
            continue
        if stmt.kind == "emitters":
            if n_emitters is not None:
                raise NetlistError("duplicate emitters statement", stmt.line, stmt.cols[0])
            if len(stmt.tokens) != 1:
                raise NetlistError("emitters statement needs one count", stmt.line, stmt.cols[0])
            n_emitters = _as_int(stmt, stmt.tokens[0], stmt.cols[1], "emitter count")
            if n_emitters < 1:
                raise NetlistError("emitter count must be >= 1", stmt.line, stmt.cols[1])
            continue
        if stmt.kind == "modes":
            if modes is not None:
                raise NetlistError("duplicate modes statement", stmt.line, stmt.cols[0])
            if not stmt.tokens:
                raise NetlistError("modes statement needs mode numbers", stmt.line, stmt.cols[0])
            modes = tuple(
                _as_int(stmt, t, c, "mode")
                for t, c in zip(stmt.tokens, stmt.cols[1:])
            )
            continue
        if stmt.kind == "input":
            if input_args is not None:
                raise NetlistError("duplicate input statement", stmt.line, stmt.cols[0])
            input_args = _kv(stmt, ("mode", "pol"), ("register",))
            input_stmt = stmt
            continue

        # component statements need the header in place
        if name is None or n_emitters is None or modes is None:
            raise NetlistError(
                "circuit, emitters and modes must come before components",
                stmt.line,
                stmt.cols[0],
            )
        comp = _parse_component(stmt, n_emitters)
        components.append(comp)
        if isinstance(comp, DetectorBank):
            saw_detect = True

    if name is None:
        raise NetlistError("missing circuit statement", 1)
    if n_emitters is None:
        raise NetlistError("missing emitters statement", 1)
    if modes is None:
        raise NetlistError("missing modes statement", 1)
    if not saw_detect:
        raise NetlistError("missing detect statement", 1)

    input_mode = modes[0]
    input_pol = "H"
    register = "+" * n_emitters
    if input_args is not None:
        val, col = input_args["mode"]
        input_mode = _as_int(input_stmt, val, col, "input mode")
        pol, col = input_args["pol"]
        if pol not in ("H", "V"):
            raise NetlistError(f"input pol must be H or V, got {pol!r}", input_stmt.line, col)
        input_pol = pol
        if "register" in input_args:
            register, col = input_args["register"]
            if len(register) != n_emitters or set(register) - {"+", "-"}:
                raise NetlistError(
                    f"register must be {n_emitters} '+'/'-' labels", input_stmt.line, col
                )

    circuit = Circuit(
        name=name,
        n_emitters=n_emitters,
        modes=modes,
        components=components,
        input_mode=input_mode,
        input_pol=input_pol,
        input_register=register,
    )
    try:
        circuit.validate()
    except CircuitError as exc:
        # semantic problems in the file are parse errors to the caller
        raise NetlistError(f"invalid circuit: {exc}", 1) from exc
    return circuit


def _parse_component(stmt: _Stmt, n_emitters: int) -> Component:
    line, col0 = stmt.line, stmt.cols[0]
    if stmt.kind == "hwp":
        kv = _kv(stmt, ("mode", "theta"), ("label",))
        return HWP(
            mode=_as_int(stmt, *kv["mode"], "mode"),
            theta_deg=_as_float(stmt, *kv["theta"], "theta"),
            label=kv.get("label", ("", 0))[0],
        )
    if stmt.kind == "pbs":
        routing: dict[tuple[int, str], int] = {}
        label = ""
        for tok, col in zip(stmt.tokens, stmt.cols[1:]):
            if tok.startswith("label="):
                label = tok.split("=", 1)[1]
                continue
            m = _ROUTE.match(tok)
            if not m:
                raise NetlistError(
                    f"expected route '(mode,pol)->mode', got {tok!r}", line, col
                )
            key = (int(m.group(1)), m.group(2))
            if key in routing:
                raise NetlistError(f"duplicate route for {key}", line, col)
            routing[key] = int(m.group(3))
        if not routing:
            raise NetlistError("pbs needs at least one route", line, col0)
        return PBS.of(routing, label=label)
    if stmt.kind == "mix":
        kv = _kv(stmt, ("kind", "a", "b"), ("k", "n", "m", "label"))
        mkind, kcol = kv["kind"]
        a = _as_int(stmt, *kv["a"], "a")
        b = _as_int(stmt, *kv["b"], "b")
        label = kv.get("label", ("", 0))[0]
        if mkind == "bs":
            return Mixer.bs(a, b, label=label)
        if mkind == "bsprime":
            return Mixer.bs_prime(a, b, label=label)
        if mkind == "vbs":
            if "k" not in kv or "n" not in kv:
                raise NetlistError("vbs mixer needs k= and n=", line, kcol)
            return Mixer.vbs(
                a, b,
                k=_as_int(stmt, *kv["k"], "k"),
                n=_as_int(stmt, *kv["n"], "n"),
                label=label,
            )
        if mkind == "custom":
            if "m" not in kv:
                raise NetlistError("custom mixer needs m=", line, kcol)
            mval, mcol = kv["m"]
            cells = mval.split(";")
            if len(cells) != 4:
                raise NetlistError(
                    "custom matrix needs 4 ';'-separated 're,im' cells", line, mcol
                )
            entries = tuple(_as_complex(stmt, c, mcol, "matrix cell") for c in cells)
            return Mixer(a, b, kind="custom", entries=entries, label=label)
        raise NetlistError(f"unknown mixer kind {mkind!r}", line, kcol)
    if stmt.kind == "att":
        kv = _kv(stmt, ("mode", "coeff", "sink"), ("label",))
        cval, ccol = kv["coeff"]
        m = _RNOM.match(cval)
        if m:
            coeff, power = None, int(m.group(1))
        else:
            coeff, power = _as_complex(stmt, cval, ccol, "coeff"), None
        return Attenuator(
            mode=_as_int(stmt, *kv["mode"], "mode"),
            sink=kv["sink"][0],
            coeff=coeff,
            rnom_power=power,
            label=kv.get("label", ("", 0))[0],
        )
    if stmt.kind == "scatter":
        kv = _kv(stmt, ("in", "emitter", "out", "sink"), ("label",))
        emitter = _as_int(stmt, *kv["emitter"], "emitter")
        if not 0 <= emitter < n_emitters:
            raise NetlistError(
                f"emitter {emitter} out of range for {n_emitters} emitters",
                line,
                kv["emitter"][1],
            )
        return EmitterScatter(
            in_mode=_as_int(stmt, *kv["in"], "in"),
            emitter=emitter,
            reflected_out=_as_int(stmt, *kv["out"], "out"),
            sink=kv["sink"][0],
            label=kv.get("label", ("", 0))[0],
        )
    if stmt.kind == "mirror":
        kv = _kv(stmt, ("in", "out"), ("label",))
        return Mirror(
            in_mode=_as_int(stmt, *kv["in"], "in"),
            out_mode=_as_int(stmt, *kv["out"], "out"),
            label=kv.get("label", ("", 0))[0],
        )
    if stmt.kind == "detect":
        mapping: dict[tuple[int, str], str] = {}
        for tok, col in zip(stmt.tokens, stmt.cols[1:]):
            m = _DETECT.match(tok)
            if not m:
                raise NetlistError(
                    f"expected 'ID=(mode,pol)', got {tok!r}", line, col
                )
            slot = (int(m.group(2)), m.group(3))
            if slot in mapping:
                raise NetlistError(f"slot {slot} already observed", line, col)
            mapping[slot] = m.group(1)
        if not mapping:
            raise NetlistError("detect needs at least one detector", line, col0)
        return DetectorBank.of(mapping)
    raise NetlistError(f"unknown statement {stmt.kind!r}", line, col0)


# -- serialization ------------------------------------------------------


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _fmt_label(label: str) -> str:
    return f" label={label}" if label else ""


def serialize(circuit: Circuit) -> str:
    """Canonical text for a circuit; parse(serialize(c)) == c."""
    lines = [
        f"circuit {circuit.name}",
        f"emitters {circuit.n_emitters}",
        "modes " + " ".join(str(m) for m in circuit.modes),
        f"input mode={circuit.input_mode} pol={circuit.input_pol}"
        f" register={circuit.input_register}",
    ]
    for comp in circuit.components:
        lines.append(_serialize_component(comp))
    return "\n".join(lines) + "\n"


def _serialize_component(comp: Component) -> str:
    if isinstance(comp, HWP):
        return f"hwp mode={comp.mode} theta={comp.theta_deg!r}" + _fmt_label(comp.label)
    if isinstance(comp, PBS):
        routes = " ".join(f"({m},{p})->{o}" for (m, p), o in comp.routing)
        return f"pbs {routes}" + _fmt_label(comp.label)
    if isinstance(comp, Mixer):
        base = f"mix kind={comp.kind} a={comp.a} b={comp.b}"
        if comp.kind == "vbs":
            base += f" k={comp.k} n={comp.n}"
        elif comp.kind == "custom":
            base += " m=" + ";".join(_fmt_complex(z) for z in comp.entries)
        return base + _fmt_label(comp.label)
    if isinstance(comp, Attenuator):
        if comp.rnom_power is not None:
            cval = f"rnom^{comp.rnom_power}"
        else:
            cval = _fmt_complex(comp.coeff)
        return (
            f"att mode={comp.mode} coeff={cval} sink={comp.sink}" + _fmt_label(comp.label)
        )
    if isinstance(comp, EmitterScatter):
        return (
            f"scatter in={comp.in_mode} emitter={comp.emitter}"
            f" out={comp.reflected_out} sink={comp.sink}" + _fmt_label(comp.label)
        )
    if isinstance(comp, Mirror):
        return f"mirror in={comp.in_mode} out={comp.out_mode}" + _fmt_label(comp.label)
    if isinstance(comp, DetectorBank):
        dets = " ".join(f"{d}=({m},{p})" for (m, p), d in comp.mapping)
        return f"detect {dets}"
    raise TypeError(f"cannot serialize {comp!r}")


def load(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(circuit))


def builtin_netlist_text(name: str) -> str:
    """Text of one of the shipped netlists, e.g. 'klm2'."""
    if name not in BUILTIN_NETLISTS:
        raise KeyError(f"no builtin netlist {name!r}, know {BUILTIN_NETLISTS}")
    return (
        resources.files("wgqsim").joinpath("netlists").joinpath(f"{name}.wgq").read_text()
    )


def builtin_netlist(name: str) -> Circuit:
    return parse(builtin_netlist_text(name))
