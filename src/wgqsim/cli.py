"""Command line front end.

Subcommands:

    coeffs    reflection/transmission amplitudes at one operating point
    run       execute a built-in protocol, report herald outcomes
    exec      execute a netlist file (falls back to shipped files)
    sweep     tabulate one of the reference curve presets as CSV (optional SVG)
    fidelity  broadening-averaged fidelity, quadrature or monte-carlo
    verify    run the internal invariant suite

Exit codes: 0 success, 1 file I/O, 2 bad flags or parameters, 3 netlist
parse error, 4 physics invariant violation or failed verification.

Reports are JSON with sorted keys; identical invocations produce
identical bytes except for the timing_s field.  An infinite Purcell
factor appears as the string "ideal".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .analysis import (
    SWEEP_KINDS,
    _lin_grid,
    _log_grid,
    averaged_fidelity,
    success_probability,
    sweep,
)
from .circuit import Circuit, CircuitError, execute
from .netlist import BUILTIN_NETLISTS, NetlistError, builtin_netlist_text, parse
from .params import ProtocolParams
from .protocols import (
    PROTOCOLS,
    build_protocol,
    default_protocol,
    infer_protocol,
    postprocess_execution,
)
from .scatter import EmitterParams, InvalidParameterError, scatter_coeffs
from .state import EmitterState, StateOpError, config_label
from .verify import run_checks

EXIT_OK = 0
EXIT_IO = 1
EXIT_FLAGS = 2
EXIT_PARSE = 3
EXIT_PHYSICS = 4


def _purcell_flag(text: str) -> float:
    if text.strip().lower() == "ideal":
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'ideal', got {text!r}"
        )


def _offsets_flag(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )


def _grid_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected lo:hi:count")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text!r}")
    if num < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    return lo, hi, num


def _purcell_json(p: float):
    return "ideal" if math.isinf(p) else p


def _params_json(params: ProtocolParams) -> dict:
    return {
        "purcell": _purcell_json(params.nominal.purcell),
        "detuning": params.nominal.detuning,
        "offsets": list(params.offsets),
    }


def _state_json(state: EmitterState | None):
    if state is None:
        return None
    return {
        config_label(c, state.n): [state.amps[c].real, state.amps[c].imag]
        for c in sorted(state.amps)
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emitter_params(args) -> EmitterParams:
    return EmitterParams(purcell=args.purcell, detuning=args.detuning)


def cmd_coeffs(args) -> int:
    params = EmitterParams(args.purcell, args.detuning, args.offset)
    c = scatter_coeffs(params)
    if args.format == "text":
        sys.stdout.write(
            f"r = {c.r.real:+.9f}{c.r.imag:+.9f}i   |r|^2 = {c.reflect_prob:.6f}\n"
            f"t = {c.t.real:+.9f}{c.t.imag:+.9f}i   |t|^2 = {c.transmit_prob:.6f}\n"
            f"loss = {c.loss:.6f}\n"
        )
        return EXIT_OK
    _emit(
        {
            "schema": "wgqsim.coeffs/1",
            "purcell": _purcell_json(params.purcell),
            "detuning": params.detuning,
            "offset": params.offset,
            "r": [c.r.real, c.r.imag],
            "t": [c.t.real, c.t.imag],
            "reflect_prob": c.reflect_prob,
            "transmit_prob": c.transmit_prob,
            "loss": c.loss,
        },
        args.out,
    )
    return EXIT_OK


def _execute_report(circuit: Circuit, params: ProtocolParams, protocol: str | None, args) -> int:
    t0 = time.perf_counter()
    result = execute(circuit, params=params, trace=bool(args.trace))
    run = postprocess_execution(result, params, protocol)
    elapsed = time.perf_counter() - t0
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(result.trace_dump())
    outcomes = []
    for oc in run.outcomes:
        outcomes.append(
            {
                "detector": oc.detector,
                "probability": oc.probability,
                "conditioned": _state_json(oc.conditioned),
                "flips": list(oc.flips),
                "corrected": _state_json(oc.corrected),
                "fidelity": oc.fidelity,
            }
        )
    payload = {
        "schema": "wgqsim.run/1",
        "circuit": circuit.name,
        "protocol": protocol,
        "n": circuit.n_emitters,
        "params": _params_json(params),
        "herald_probability": run.herald_probability,
        "closed_form_success": (
            success_probability(params.n, params.nominal) if protocol else None
        ),
        "weighted_fidelity": (
            run.weighted_fidelity if protocol and run.outcomes else None
        ),
        "outcomes": outcomes,
        "sinks": run.sinks,
        "timing_s": elapsed,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    protocol = args.protocol
    n = args.n
    if protocol is None and n is None:
        raise InvalidParameterError("need --protocol and/or --n")
    if protocol in ("klm2", "klm3"):
        fixed = 2 if protocol == "klm2" else 3
        if n is not None and n != fixed:
            raise InvalidParameterError(f"{protocol} runs on exactly {fixed} emitters")
        n = fixed
    if protocol is None:
        protocol = default_protocol(n)
    if n is None:
        raise InvalidParameterError("--protocol klmN needs --n")
    offsets = args.offsets or ()
    params = ProtocolParams(n, _emitter_params(args), offsets)
    circuit = build_protocol(protocol, n)
    return _execute_report(circuit, params, protocol, args)


def cmd_exec(args) -> int:
    path = args.netlist
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        stem = os.path.basename(path)
        stem = stem[:-4] if stem.endswith(".wgq") else stem
        if stem in BUILTIN_NETLISTS and os.sep not in path:
            text = builtin_netlist_text(stem)
        else:
            raise OSError(f"netlist file not found: {path}")
    circuit = parse(text)
    offsets = args.offsets or ()
    params = ProtocolParams(circuit.n_emitters, _emitter_params(args), offsets)
    return _execute_report(circuit, params, infer_protocol(circuit), args)


def cmd_sweep(args) -> int:
    grid = None
    if args.grid:
        lo, hi, num = args.grid
        if args.log and (lo <= 0 or hi <= 0):
            raise InvalidParameterError("log grid needs positive bounds")
        grid = (_log_grid if args.log else _lin_grid)(lo, hi, num)
    res = sweep(args.kind, grid)
    csv_text = res.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        res.to_svg(args.svg)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    nominal = _emitter_params(args)
    t0 = time.perf_counter()
    res = averaged_fidelity(
        args.n,
        nominal,
        args.sigma,
        method=args.method,
        order=args.order,
        samples=args.samples,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - t0
    _emit(
        {
            "schema": "wgqsim.fidelity/1",
            "n": args.n,
            "purcell": _purcell_json(args.purcell),
            "detuning": args.detuning,
            "sigma": args.sigma,
            "method": res.method,
            "order": args.order if res.method == "gh" else None,
            "samples": args.samples if res.method == "mc" else None,
            "seed": args.seed if res.method == "mc" else None,
            "value": res.value,
            "std_error": res.std_error,
            "evaluations": res.evaluations,
            "timing_s": elapsed,
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.filter)
    if not results:
        sys.stdout.write(f"no checks match filter {args.filter!r}\n")
        return EXIT_FLAGS
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        failed += 0 if r.ok else 1
        sys.stdout.write(f"{mark} {r.name.ljust(width)}  {r.detail}\n")
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_PHYSICS


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wgqsim",
        description="Heralded multi-emitter state generation in a 1-D waveguide.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_point_flags(p, offsets: bool = True):
        p.add_argument(
            "--purcell", type=_purcell_flag, default=math.inf,
            help="Purcell factor, a positive number or 'ideal' (default)",
        )
        p.add_argument("--detuning", type=float, default=0.0, help="common detuning")
        if offsets:
            p.add_argument(
                "--offsets", type=_offsets_flag, default=None,
                help="comma-separated per-emitter detuning offsets",
            )

    p = sub.add_parser("coeffs", help="scattering amplitudes at one operating point")
    add_point_flags(p, offsets=False)
    p.add_argument("--offset", type=float, default=0.0, help="extra detuning offset")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("run", help="execute a built-in protocol")
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument("--n", type=int, default=None, help="number of emitters")
    add_point_flags(p)
    p.add_argument("--trace", help="write a per-component state trace to this file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("exec", help="execute a netlist file")
    p.add_argument("netlist", help=f"path to a .wgq file, or one of {BUILTIN_NETLISTS}")
    add_point_flags(p)
    p.add_argument("--trace", help="write a per-component state trace to this file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_exec)

    p = sub.add_parser("sweep", help="tabulate a reference curve preset as CSV")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--grid", type=_grid_flag, default=None, help="axis grid lo:hi:count")
    p.add_argument("--log", action="store_true", help="space the grid logarithmically")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="also draw an SVG line chart here")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fidelity", help="broadening-averaged fidelity")
    p.add_argument("--n", type=int, required=True, help="number of emitters")
    add_point_flags(p, offsets=False)
    p.add_argument("--sigma", type=float, required=True, help="offset spread")
    p.add_argument("--method", choices=("gh", "mc"), default="gh")
    p.add_argument("--order", type=int, default=20, help="quadrature nodes per emitter")
    p.add_argument("--samples", type=int, default=100_000, help="monte-carlo samples")
    p.add_argument("--seed", type=int, default=0, help="monte-carlo seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_fidelity)

    p = sub.add_parser("verify", help="run the internal invariant suite")
    p.add_argument("--filter", default=None, help="only run checks whose name contains this")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NetlistError as exc:
        sys.stderr.write(f"netlist error: {exc}\n")
        return EXIT_PARSE
    except (CircuitError, StateOpError) as exc:
        sys.stderr.write(f"physics error: {exc}\n")
        return EXIT_PHYSICS
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
