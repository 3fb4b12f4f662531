"""Command-line front end.

Three subcommands:

* ``run``   -- evolve a circuit (file or builtin), print reduced
  densities for requested subsets and the dual-picture trace distance.
* ``audit`` -- dependence verdicts for a parameter plus the contiguity
  audit.
* ``demo``  -- packaged walkthroughs of the protocol scenarios.

Exit codes are stable: 0 success, 1 parse error, 2 binding/input error,
3 budget exceeded or out of memory, 4 internal invariant violation
(signals a bug).  A reader that closes the output pipe early ends the
command quietly with exit 0.  The ``DH_DENSE_BUDGET`` environment
variable overrides the qubit limit of the global density and the
dual-picture check.
JSON output is deterministic for a fixed configuration and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .circuit import (
    BUILTIN_CIRCUITS,
    Circuit,
    bind,
    build_superdense,
    parse,
)
from .config import DENSE_QUBITS
from .descriptors import evolve
from .errors import (
    BindingError,
    BudgetError,
    DhError,
    InvariantError,
    ParseError,
)
from .infoflow import (
    DEFAULT_GRID_POINTS,
    DEFAULT_GRID_SEED,
    audit,
    classify_information,
    descriptor_distance,
    grid_values,
)
from .reconstruct import (
    expectation_table,
    gauge_transform,
    global_density,
    reduced_density,
)
from .statevector import (
    density,
    evolve_state,
    measurement_distribution,
    state_fidelity,
    trace_distance,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BINDING = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

DUAL_CHECK_TOL = 1e-10


def _dense_budget() -> int:
    raw = os.environ.get("DH_DENSE_BUDGET")
    if raw is None:
        return DENSE_QUBITS
    if not raw.strip().isdecimal():
        raise BindingError(f"DH_DENSE_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


def _load_circuit(args) -> tuple[Circuit, str]:
    if args.builtin:
        if args.builtin == "superdense":
            bits = args.bits or "00"
            if len(bits) != 2 or any(b not in "01" for b in bits):
                raise BindingError("--bits takes two binary digits, e.g. 10")
            return build_superdense(int(bits[0]), int(bits[1])), f"superdense({bits})"
        return BUILTIN_CIRCUITS[args.builtin](), args.builtin
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read circuit file: {err}", 1) from None
    return parse(text), args.circuit


def _parse_bindings(pairs) -> dict:
    binding = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise BindingError(f"--bind takes symbol=value, got {pair!r}")
        try:
            binding[name.strip()] = float(value)
        except ValueError:
            raise BindingError(f"bad value in --bind {pair!r}") from None
    return binding


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_complex(value: complex) -> str:
    return f"{value.real:.10g}{value.imag:+.10g}j"


def _matrix_lines(entries: np.ndarray, indent: str = "  ") -> list[str]:
    return [
        indent + "  ".join(_fmt_complex(v) for v in row) for row in np.asarray(entries)
    ]


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(table_lines))


# -- run ------------------------------------------------------------------------


def cmd_run(args) -> int:
    budget = _dense_budget()
    circuit, source = _load_circuit(args)
    binding = _parse_bindings(args.bind)
    bc = bind(circuit, binding)
    state = evolve(bc, backend=args.backend, upto=args.at)
    payload = {
        "source": source,
        "n": circuit.n,
        "step": state.step,
        "backend": args.backend,
        "binding": {k: binding[k] for k in sorted(binding)},
        "subsets": {},
    }
    lines = [
        f"circuit: {source} (n={circuit.n}, {circuit.depth} gates), "
        f"backend={args.backend}, step={state.step}"
    ]
    if binding:
        lines.append(
            "binding: " + " ".join(f"{k}={_fmt(binding[k])}" for k in sorted(binding))
        )
    for subset in args.subset or []:
        qubits = sorted({int(tok) for tok in subset.split(",")})
        rho = reduced_density(state, qubits)
        key = ",".join(map(str, qubits))
        payload["subsets"][key] = rho.to_json()
        lines.append(f"reduced density on qubits {{{key}}}:")
        lines.extend(_matrix_lines(rho.entries))
    if args.expect:
        table = expectation_table(state, args.expect)
        payload["expectations"] = table
        lines.append("selection expectations:")
        lines.extend(f"  {k}: {_fmt(v)}" for k, v in sorted(table.items()))
    dual = None
    if circuit.n <= budget:
        reconstructed = global_density(state, dense_budget=budget)
        oracle = density(evolve_state(bc, upto=args.at, dense_budget=budget))
        dual = trace_distance(reconstructed, oracle)
        payload["dual_trace_distance"] = dual
        lines.append(f"dual-picture trace distance: {_fmt(dual)}")
    if args.builtin in ("teleport", "partial-teleport") and state.step == circuit.depth:
        theta = binding.get("theta", 0.0)
        chi = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])
        fid = state_fidelity(reduced_density(state, [5]).entries, chi)
        payload["teleport_fidelity"] = fid
        lines.append(f"teleport fidelity <chi|rho5|chi>: {_fmt(fid)}")
    if args.builtin == "bell":
        sv = evolve_state(bc, upto=args.at, dense_budget=budget)
        dist = measurement_distribution(sv, [1, 4])
        payload["record_distribution"] = dist
        lines.append("record distribution on qubits (1, 4):")
        lines.extend(f"  {k}: {_fmt(v)}" for k, v in sorted(dist.items()))
    if args.dump_descriptors:
        payload["descriptors"] = state.to_json()
        lines.append("descriptors: (see JSON output)")
    _emit(args, payload, lines)
    if dual is not None and dual > DUAL_CHECK_TOL:
        print(
            f"error: pictures disagree (trace distance {dual:.3e}) -- this is a bug",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


# -- audit -----------------------------------------------------------------------


def cmd_audit(args) -> int:
    circuit, source = _load_circuit(args)
    verdicts, report = audit(
        circuit, args.param, None if args.qubit is None else [args.qubit],
        base=_parse_bindings(args.bind), at=args.at,
        grid=grid_values(args.grid_points, args.seed),
    )
    payload = {
        "source": source,
        "parameter": args.param,
        "at": str(args.at) if args.at is not None else "final",
        "verdicts": [v.to_json() for v in verdicts],
        "contiguity": report.to_json(),
    }
    lines = [f"dependence audit: {source}, parameter {args.param}, at={payload['at']}"]
    for v in verdicts:
        flags = (
            f"descriptor={'yes' if v.descriptor_depends else 'no'} "
            f"global={'yes' if v.global_depends else 'no'} "
            f"reduced={'yes' if v.reduced_depends else 'no'}"
        )
        lines.append(f"  qubit {v.subject}: {v.classification}  ({flags})")
    lines.append(
        f"contiguity audit: {len(report.checks)} out-of-cone checks, "
        f"{len(report.violations)} violation(s)"
    )
    for ch in report.violations:
        lines.append(
            f"  VIOLATION qubit {ch.qubit} parameter {ch.parameter} "
            f"distance {_fmt(ch.witness.distance)}"
        )
    _emit(args, payload, lines)
    return EXIT_INVARIANT if report.violations else EXIT_OK


# -- demos -----------------------------------------------------------------------


def _demo_superdense(args):
    rows = []
    for b1 in (0, 1):
        for b2 in (0, 1):
            bc = bind(build_superdense(b1, b2))
            dist = measurement_distribution(evolve_state(bc), [1, 2])
            outcome = max(dist, key=dist.get)
            rows.append({"bits": f"{b1}{b2}", "outcome": outcome, "probability": dist[outcome]})
    payload = {"demo": "superdense", "rows": rows}
    lines = ["superdense coding: two classical bits through one qubit", "bits -> outcome (probability)"]
    lines += [f"  {r['bits']}  ->  {r['outcome']}  ({_fmt(r['probability'])})" for r in rows]
    distinct = len({r["outcome"] for r in rows})
    lines.append(f"distinct deterministic outcomes: {distinct} of 4")
    return payload, lines


def _demo_teleport(args):
    circuit = BUILTIN_CIRCUITS["teleport"]()
    thetas = [float(v) for v in np.linspace(0.0, 2 * np.pi, 8, endpoint=False)]
    worst_fid = 1.0
    for theta in thetas:
        state = evolve(bind(circuit, {"theta": theta}))
        chi = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        worst_fid = min(worst_fid, state_fidelity(reduced_density(state, [5]).entries, chi))
    mid = evolve(bind(circuit, {"theta": 1.0}), upto="after-bell")
    worst_mixed = max(
        trace_distance(reduced_density(mid, [q]), np.eye(2) / 2) for q in range(1, 6)
    )
    verdicts = {
        "2": classify_information(circuit, 2, "theta", at="after-bell").classification,
        "3": classify_information(circuit, 3, "theta", at="after-bell").classification,
        "5": classify_information(circuit, 5, "theta").classification,
    }
    payload = {
        "demo": "teleport",
        "worst_fidelity": worst_fid,
        "worst_midpoint_mixedness_gap": worst_mixed,
        "verdicts": verdicts,
    }
    lines = [
        "teleportation of RY(theta)|0> from qubit 1 to qubit 5",
        f"worst fidelity over {len(thetas)} angles: {_fmt(worst_fid)}",
        f"after the Bell stage, max trace distance of any marginal from I/2: {_fmt(worst_mixed)}",
        f"verdicts for theta: qubit 2 {verdicts['2']}, qubit 3 {verdicts['3']} (after-bell), "
        f"qubit 5 {verdicts['5']} (final)",
    ]
    return payload, lines


def _demo_bell(args):
    circuit = BUILTIN_CIRCUITS["bell"]()
    theta, phis = 0.9, [0.0, 1.3, 2.6, 5.1]
    marginals = []
    for phi in phis:
        sv = evolve_state(bind(circuit, {"theta": theta, "phi": phi}))
        marginals.append(measurement_distribution(sv, [1])["0"])
    spread = max(marginals) - min(marginals)
    sv = evolve_state(bind(circuit, {"theta": 0.0, "phi": 0.0}))
    joint = measurement_distribution(sv, [1, 4])
    m1 = measurement_distribution(sv, [1])
    m4 = measurement_distribution(sv, [4])
    gap = max(abs(joint[a + b] - m1[a] * m4[b]) for a in "01" for b in "01")
    payload = {
        "demo": "bell",
        "marginal_spread_over_phi": spread,
        "nonfactorisability_gap": gap,
    }
    lines = [
        "Bell experiment: records at angles theta (qubit 1) and phi (qubit 4)",
        f"qubit 1 marginal spread across phi values: {_fmt(spread)} (no-signalling)",
        f"joint-vs-product gap at theta=phi=0: {_fmt(gap)} (non-factorisable)",
    ]
    return payload, lines


def _demo_gauge(args):
    base = parse("qubits 2\nH 1\nCNOT 1 2\n")
    state = evolve(bind(base))
    results = {}
    for name, matrix, qubits in (
        ("phase", np.diag([1.0, np.exp(0.9j)]), (1,)),
        ("cz", np.diag([1, 1, 1, -1]).astype(complex), (1, 2)),
    ):
        gauged = gauge_transform(state, matrix, qubits)
        stat_gap = trace_distance(global_density(state), global_density(gauged))
        desc_gap = max(
            descriptor_distance(state.descriptor(q), gauged.descriptor(q))
            for q in (1, 2)
        )
        results[name] = {"statistics_gap": stat_gap, "descriptor_gap": desc_gap}
    prefixed = parse("qubits 2\nparam alpha\nPHASE(alpha) 1\nH 1\nCNOT 1 2\n")
    verdict = classify_information(prefixed, 1, "alpha")
    payload = {"demo": "gauge", "transforms": results, "classification": verdict.classification}
    lines = ["gauge freedom: stabilizing unitaries move descriptors, not statistics"]
    for name, r in results.items():
        lines.append(
            f"  {name}: statistics gap {_fmt(r['statistics_gap'])} (< 1e-10), "
            f"descriptor gap {_fmt(r['descriptor_gap'])} (> 0.1)"
        )
    lines.append(f"classification of the gauge angle: {verdict.classification}")
    return payload, lines


def _demo_history(args):
    from .pauli import permute_qubits

    c = parse("qubits 4\nH 1\nCNOT 1 2\nH 3\nCNOT 3 4\nS 3\n")
    state = evolve(bind(c))
    rho_gap = trace_distance(reduced_density(state, [1]), reduced_density(state, [3]))
    relabel = {3: 1, 1: 3, 4: 2, 2: 4}
    desc_gap = max(
        (
            state.descriptor(1).component(m)
            - permute_qubits(state.descriptor(3).component(m), relabel)
        ).coeff_norm()
        for m in (1, 2, 3)
    )
    payload = {"demo": "history", "marginal_gap": rho_gap, "descriptor_gap": desc_gap}
    lines = [
        "history distinction: equal marginals, different descriptors",
        f"trace distance between the two marginals: {_fmt(rho_gap)} (both I/2)",
        f"descriptor gap after relabeling supports: {_fmt(desc_gap)} (> 0.1)",
    ]
    return payload, lines


_DEMOS = {
    "bell": _demo_bell,
    "superdense": _demo_superdense,
    "teleport": _demo_teleport,
    "gauge": _demo_gauge,
    "history": _demo_history,
}


def cmd_demo(args) -> int:
    payload, lines = _DEMOS[args.name](args)
    _emit(args, payload, lines)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "table"), default="table")


def _add_circuit_source(p: argparse.ArgumentParser):
    p.add_argument("circuit", nargs="?", help="path to a .dh circuit file")
    p.add_argument("--builtin", choices=("bell", "superdense", "teleport", "partial-teleport"))
    p.add_argument("--bits", help="data bits for --builtin superdense, e.g. 10")
    p.add_argument("--bind", action="append", metavar="SYM=VALUE")
    p.add_argument("--at", help="evaluation prefix: a step number or checkpoint name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhsim",
        description="Heisenberg-picture descriptor simulator for qubit gate networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a circuit and reconstruct states")
    _add_circuit_source(p_run)
    _add_common(p_run)
    p_run.add_argument("--backend", choices=("pauli", "dense"), default="pauli")
    p_run.add_argument("--subset", action="append", metavar="Q[,Q...]",
                       help="qubit subset to print a reduced density for")
    p_run.add_argument("--expect", action="append", metavar="LETTERS",
                       help='selection string such as "ZZI" to print the '
                            "product expectation for")
    p_run.add_argument("--dump-descriptors", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="parameter dependence and contiguity audit")
    _add_circuit_source(p_audit)
    _add_common(p_audit)
    p_audit.add_argument("--seed", type=int, default=DEFAULT_GRID_SEED,
                         help="seed for dependence-grid sampling")
    p_audit.add_argument("--param", required=True)
    p_audit.add_argument("--qubit", type=int)
    p_audit.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_audit.set_defaults(func=cmd_audit)

    p_demo = sub.add_parser("demo", help="run a packaged protocol walkthrough")
    p_demo.add_argument("name", choices=sorted(_DEMOS))
    _add_common(p_demo)
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "audit") and not (args.circuit or args.builtin):
        parser.error("need a circuit file or --builtin")
    at = getattr(args, "at", None)
    if at is not None and at.isdigit():
        args.at = int(at)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BindingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BINDING
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_BINDING
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BINDING
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except DhError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BINDING
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at
        # /dev/null so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
