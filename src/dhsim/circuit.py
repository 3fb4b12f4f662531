"""Gate networks with symbolic parameters, plus the ``.dh`` text format.

Conventions, stated once:

* Qubits are numbered 1..n, as in circuit diagrams.
* One gate per time step; sequence position is temporal order.
* ``PHASE(a) = diag(1, exp(ia))``; ``RX/RY/RZ(t) = exp(-i t sigma / 2)``.
* For two-qubit gates the first listed qubit is the more significant bit
  of the 4x4 matrix index (CNOT's control is its first qubit).
* A parameter reference in a gate is ``scale * symbol``; the text forms
  are ``theta``, ``-theta`` and ``2*theta``.  A numeric literal such as
  ``RY(0.5)`` is a constant angle and involves no symbol.

The text grammar is one statement per line, ``#`` starts a comment, and
spaces may stand inside a gate's parentheses:

    qubits <n>
    param <symbol>
    <GATE> <q> [<q2>]
    <GATE>(<angle-or-symbol>) <q>
    U1(<4 complex entries>) <q>
    U2(<16 complex entries>) <q> <q2>

Builders for the protocol circuits live here as well; they attach named
checkpoints (gate counts) used by staged analyses.  Checkpoints are
annotations only: they are not serialized and do not affect equality.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import BindingError, ParseError

SQRT1_2 = 1.0 / math.sqrt(2.0)

FIXED_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQRT1_2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
FIXED_2Q = {
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}
for _m in (*FIXED_1Q.values(), *FIXED_2Q.values()):
    _m.setflags(write=False)

# The gate table: kind -> (arity, argument), the argument being None,
# ANGLE or MATRIX.  Everything that checks, binds or writes a gate reads it.
ANGLE, MATRIX = "angle", "matrix"
GATE_KINDS = {
    **{kind: (1, None) for kind in FIXED_1Q},
    **{kind: (2, None) for kind in FIXED_2Q},
    **{kind: (1, ANGLE) for kind in ("PHASE", "RX", "RY", "RZ")},
    "U1": (1, MATRIX),
    "U2": (2, MATRIX),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.diag([cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)])
    if kind == "PHASE":
        return np.diag([1.0, cmath.exp(1j * angle)])
    raise ValueError(f"not a rotation kind: {kind}")


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-10)


@dataclass(frozen=True)
class ParamRef:
    """A reference ``scale * symbol`` to a declared parameter."""

    name: str
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValueError(f"non-finite scale {self.scale!r} for symbol {self.name!r}")

    def resolve(self, binding: Mapping[str, float]) -> float:
        if self.name not in binding:
            raise BindingError(f"no value bound for symbol {self.name!r}")
        value = float(binding[self.name])
        angle = self.scale * value
        if not math.isfinite(angle):
            raise BindingError(
                f"angle {self.render()} overflows for symbol {self.name!r} = {value!r}"
            )
        return angle

    def render(self) -> str:
        if self.scale == 1.0:
            return self.name
        if self.scale == -1.0:
            return f"-{self.name}"
        return f"{self.scale!r}*{self.name}"


ParamLike = Union[ParamRef, float, None]


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: kind, target qubits, optional angle or matrix."""

    kind: str
    qubits: tuple[int, ...]
    param: ParamLike = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, argument = GATE_KINDS[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind} {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise ValueError("qubit indices are 1-based")
        if argument == ANGLE:
            if not isinstance(self.param, (ParamRef, float, int)):
                raise ValueError(f"{self.kind} needs an angle or symbol reference")
            if isinstance(self.param, (float, int)):
                if not math.isfinite(self.param):
                    raise ValueError(f"{self.kind} angle must be finite, got {self.param!r}")
                object.__setattr__(self, "param", float(self.param))
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no argument")
        if argument == MATRIX:
            dim = 2**arity
            if self.matrix is None:
                raise ValueError(f"{self.kind} needs a {dim}x{dim} matrix, got none")
            m = np.array(self.matrix, dtype=complex)
            if m.shape != (dim, dim):
                raise ValueError(f"{self.kind} needs a {dim}x{dim} matrix, got shape {m.shape}")
            if not is_unitary(m):
                raise ValueError(f"{self.kind} matrix is not unitary")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} takes no argument")

    @property
    def symbol(self) -> Optional[str]:
        return self.param.name if isinstance(self.param, ParamRef) else None

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.param) != (other.kind, other.qubits, other.param):
            return False
        if self.matrix is None or other.matrix is None:
            return self.matrix is None and other.matrix is None
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.kind, self.qubits, self.param))

    def __repr__(self):
        extra = ""
        if isinstance(self.param, ParamRef):
            extra = f"({self.param.render()})"
        elif isinstance(self.param, float):
            extra = f"({self.param:g})"
        return f"{self.kind}{extra} {' '.join(map(str, self.qubits))}"


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate sequence on n qubits with declared symbols."""

    n: int
    gates: tuple[Gate, ...] = ()
    params: tuple[str, ...] = ()
    checkpoints: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "params", tuple(self.params))
        if self.n < 1:
            raise ValueError("need at least one qubit")
        declared = set(self.params)
        if len(declared) != len(self.params):
            raise ValueError("duplicate parameter declaration")
        for g in self.gates:
            if max(g.qubits) > self.n:
                raise ValueError(f"gate {g!r} addresses qubit > n={self.n}")
            if g.symbol is not None and g.symbol not in declared:
                raise ValueError(f"undeclared symbol {g.symbol!r} in {g!r}")
        for name, step in self.checkpoints.items():
            if not 0 <= step <= len(self.gates):
                raise ValueError(f"checkpoint {name!r} out of range")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.n, self.gates, self.params) == (other.n, other.gates, other.params)

    def __hash__(self):
        return hash((self.n, self.gates, self.params))

    @property
    def depth(self) -> int:
        return len(self.gates)

    def resolve_step(self, at: Union[int, str, None]) -> int:
        """Map a checkpoint name / step index / None (= final) to a gate count."""
        if at is None or at == "final":
            return len(self.gates)
        if isinstance(at, str):
            if at in self.checkpoints:
                return self.checkpoints[at]
            raise KeyError(f"unknown checkpoint {at!r}")
        step = int(at)
        if not 0 <= step <= len(self.gates):
            raise ValueError(f"step {step} outside 0..{len(self.gates)}")
        return step


@dataclass(frozen=True)
class BoundGate:
    """A gate with its unitary fully resolved."""

    kind: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    symbol: Optional[str] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.flags.writeable:
            m = m.copy()
            m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class BoundCircuit:
    """A circuit plus a complete parameter binding."""

    circuit: Circuit
    binding: dict
    gates: tuple[BoundGate, ...]

    @property
    def n(self) -> int:
        return self.circuit.n

    def prefix(self, upto: Union[int, str, None]) -> tuple[BoundGate, ...]:
        return self.gates[: self.circuit.resolve_step(upto)]


def gate_unitary(g: Gate, binding: Mapping[str, float]) -> np.ndarray:
    argument = GATE_KINDS[g.kind][1]
    if argument == MATRIX:
        return g.matrix
    if argument == ANGLE:
        angle = g.param.resolve(binding) if isinstance(g.param, ParamRef) else g.param
        return rotation_matrix(g.kind, angle)
    return FIXED_1Q[g.kind] if g.kind in FIXED_1Q else FIXED_2Q[g.kind]


def bind(c: Circuit, binding: Optional[Mapping[str, float]] = None) -> BoundCircuit:
    """Resolve every parametric gate to a concrete unitary."""
    binding = dict(binding or {})
    missing = [s for s in c.params if s not in binding]
    if missing:
        raise BindingError(f"missing binding for symbol(s): {', '.join(missing)}")
    for name, value in binding.items():
        if not math.isfinite(float(value)):
            raise BindingError(f"non-finite value for symbol {name!r}: {value}")
    bound = tuple(
        BoundGate(g.kind, g.qubits, gate_unitary(g, binding), g.symbol) for g in c.gates
    )
    return BoundCircuit(c, binding, bound)


# -- text format -------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
_GATE = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:\((.*?)\))?(?=\s|\Z)")


def _tokens(line: str, start: int = 0) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of ``line[start:]`` with 1-based columns."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line, start)]


def _parse_angle(arg: str, params: Sequence[str], lineno: int, col: int) -> ParamLike:
    """An angle literal or a ``symbol``, ``-symbol`` or ``scale*symbol`` reference."""
    arg = arg.strip()
    if "*" in arg:
        scale_str, _, name = arg.partition("*")
        name = name.strip()
        if not _IDENT.match(name):
            raise ParseError(f"bad symbol name {name!r}", lineno, col)
        try:
            scale = float(scale_str)
        except ValueError:
            raise ParseError(f"bad scale factor {scale_str!r}", lineno, col) from None
        if not math.isfinite(scale):
            raise ParseError(f"non-finite scale factor {scale_str!r}", lineno, col)
    elif _IDENT.match(arg.removeprefix("-")):
        name = arg.removeprefix("-")
        scale = 1.0 if name == arg else -1.0
    else:
        try:
            angle = float(arg)
        except ValueError:
            raise ParseError(f"bad angle or symbol {arg!r}", lineno, col) from None
        if not math.isfinite(angle):
            raise ParseError(f"non-finite angle {arg!r}", lineno, col)
        return angle
    if name not in params:
        raise ParseError(f"undeclared symbol {name}", lineno, col)
    return ParamRef(name, scale)


def _parse_matrix(kind: str, arg: str, lineno: int, col: int) -> np.ndarray:
    """Row-major complex entries, as many as the kind's arity asks for."""
    dim = 2 ** GATE_KINDS[kind][0]
    entries = []
    for tok in arg.split(","):
        try:
            entries.append(complex(tok))
        except ValueError:
            raise ParseError(f"bad complex literal {tok!r}", lineno, col) from None
    if len(entries) != dim * dim:
        raise ParseError(f"{kind} needs {dim*dim} entries, got {len(entries)}", lineno, col)
    return np.array(entries, dtype=complex).reshape(dim, dim)


def _parse_qubit(tok: str, n: int, lineno: int, col: int) -> int:
    try:
        q = int(tok)
    except ValueError:
        raise ParseError(f"bad qubit index {tok!r}", lineno, col) from None
    if not 1 <= q <= n:
        raise ParseError(f"qubit {q} out of range 1..{n}", lineno, col)
    return q


def _parse_gate(line: str, col: int, n: int, params: Sequence[str], lineno: int) -> Gate:
    """The gate statement at `col`; errors raised by `Gate` point at its name."""
    m = _GATE.match(line, col - 1)
    if not m:
        raise ParseError(f"bad gate token {line.split()[0]!r}", lineno, col)
    kind, arg = m.group(1).upper(), m.group(2)
    if kind not in GATE_KINDS:
        raise ParseError(f"unknown gate {m.group(1)!r}", lineno, col)
    param = matrix = None
    if arg is not None:
        arg_col = m.start(2) + len(arg) - len(arg.lstrip()) + 1
        argument = GATE_KINDS[kind][1]
        if argument == ANGLE:
            param = _parse_angle(arg, params, lineno, arg_col)
        elif argument == MATRIX:
            matrix = _parse_matrix(kind, arg, lineno, arg_col)
        else:
            raise ParseError(f"{kind} takes no argument", lineno, col)
    qubits = tuple(_parse_qubit(tok, n, lineno, c) for tok, c in _tokens(line, m.end()))
    try:
        return Gate(kind, qubits, param, matrix)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def parse(text: str) -> Circuit:
    """Parse the line-based circuit format; raises `ParseError` with location."""
    n = None
    params: list[str] = []
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens, cols = zip(*_tokens(line))
        if tokens[0] == "qubits":
            if n is not None:
                raise ParseError("duplicate qubits declaration", lineno, cols[0])
            if len(tokens) != 2:
                raise ParseError("usage: qubits <n>", lineno, cols[0])
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad qubit count {tokens[1]!r}", lineno, cols[1]) from None
            if n < 1:
                raise ParseError("qubit count must be positive", lineno, cols[1])
        elif n is None:
            raise ParseError("first statement must be 'qubits <n>'", lineno, cols[0])
        elif tokens[0] == "param":
            if len(tokens) != 2 or not _IDENT.match(tokens[1]):
                raise ParseError("usage: param <symbol>", lineno, cols[0])
            if tokens[1] in params:
                raise ParseError(f"duplicate param {tokens[1]}", lineno, cols[1])
            params.append(tokens[1])
        else:
            gates.append(_parse_gate(line, cols[0], n, params, lineno))
    if n is None:
        raise ParseError("missing 'qubits <n>' declaration", 1, 1)
    return Circuit(n, tuple(gates), tuple(params))


def _format_complex(c: complex) -> str:
    return repr(complex(c)).strip("()")


def serialize(c: Circuit) -> str:
    """Render a circuit so that ``parse(serialize(c)) == c``."""
    lines = [f"qubits {c.n}"]
    lines.extend(f"param {s}" for s in c.params)
    for g in c.gates:
        argument = GATE_KINDS[g.kind][1]
        if argument == ANGLE:
            arg = f"({g.param.render() if isinstance(g.param, ParamRef) else repr(g.param)})"
        elif argument == MATRIX:
            arg = f"({','.join(_format_complex(v) for v in g.matrix.ravel())})"
        else:
            arg = ""
        lines.append(f"{g.kind}{arg} {' '.join(map(str, g.qubits))}")
    return "\n".join(lines) + "\n"


def circuit_to_json(c: Circuit) -> dict:
    gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if isinstance(g.param, ParamRef):
            entry["param"] = {"name": g.param.name, "scale": g.param.scale}
        elif isinstance(g.param, float):
            entry["param"] = g.param
        if g.matrix is not None:
            entry["matrix"] = [[float(v.real), float(v.imag)] for v in g.matrix.ravel()]
        gates.append(entry)
    return {"qubits": c.n, "params": list(c.params), "gates": gates}


def circuit_from_json(obj: dict) -> Circuit:
    gates = []
    for entry in obj["gates"]:
        kind, param, matrix = entry["kind"], entry.get("param"), entry.get("matrix")
        if isinstance(param, dict):
            param = ParamRef(param["name"], float(param["scale"]))
        if matrix is not None:
            # Row-major pairs; a count that does not fit the kind is left to `Gate`.
            flat = np.array([complex(re_, im_) for re_, im_ in matrix])
            dim = 2 ** GATE_KINDS.get(kind, (0, None))[0]
            matrix = flat.reshape(dim, dim) if flat.size == dim * dim else flat
        gates.append(Gate(kind, tuple(entry["qubits"]), param, matrix))
    return Circuit(int(obj["qubits"]), tuple(gates), tuple(obj["params"]))


# -- protocol builders --------------------------------------------------------


def measurement_gadget(target: int, record: int, angle: ParamRef) -> list[Gate]:
    """Unitary, collapse-free record of the spin component at an angle in
    the x-z plane: rotate the axis onto z, copy the bit, rotate back."""
    back = ParamRef(angle.name, -angle.scale)
    return [
        Gate("RY", (target,), param=back),
        Gate("CNOT", (target, record)),
        Gate("RY", (target,), param=angle),
    ]


def build_bell_experiment() -> Circuit:
    """Entangled pair on (2, 3); records at angles theta, phi land on 1 and 4."""
    gates = [Gate("H", (2,)), Gate("CNOT", (2, 3))]
    gates += measurement_gadget(2, 1, ParamRef("theta"))
    gates += measurement_gadget(3, 4, ParamRef("phi"))
    return Circuit(
        4,
        tuple(gates),
        ("theta", "phi"),
        checkpoints={"prep": 2, "theta-recorded": 5, "final": 8},
    )


_SUPERDENSE_ENCODING = {(0, 0): None, (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}


def build_superdense(b1: int, b2: int) -> Circuit:
    """Two classical bits through one qubit: encode on the shared pair,
    decode with CNOT then H; the outcome string equals (b1, b2)."""
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    gates = [Gate("H", (1,)), Gate("CNOT", (1, 2))]
    encoding = _SUPERDENSE_ENCODING[(b1, b2)]
    if encoding is not None:
        gates.append(Gate(encoding, (1,)))
    gates += [Gate("CNOT", (1, 2)), Gate("H", (1,))]
    return Circuit(2, tuple(gates))


def _teleport_gates(resource_prep: list[Gate]) -> list[Gate]:
    return [
        Gate("RY", (1,), param=ParamRef("theta")),  # message state
        *resource_prep,                             # pair on (4, 5)
        Gate("CNOT", (1, 4)),                       # Bell measurement of (1, 4) ...
        Gate("H", (1,)),
        Gate("CNOT", (1, 2)),                       # ... recorded into (2, 3)
        Gate("CNOT", (4, 3)),
        Gate("CZ", (2, 5)),                         # corrections on 5
        Gate("CNOT", (3, 5)),
    ]


def build_teleportation() -> Circuit:
    """Five-qubit teleportation of RY(theta)|0> from qubit 1 to qubit 5.

    Record qubit 2 holds the phase bit (H side) and controls CZ; record
    qubit 3 holds the parity bit and controls CNOT.
    """
    gates = _teleport_gates([Gate("H", (4,)), Gate("CNOT", (4, 5))])
    return Circuit(
        5,
        tuple(gates),
        ("theta",),
        checkpoints={"prep": 3, "after-bell": 7, "final": 9},
    )


def build_partial_teleportation() -> Circuit:
    """Teleportation with a tunable resource cos(a)|00> + sin(a)|11>.

    At alpha = pi/4 this is `build_teleportation`; elsewhere the output
    fidelity drops below one for generic theta.
    """
    gates = _teleport_gates(
        [Gate("RY", (4,), param=ParamRef("alpha", 2.0)), Gate("CNOT", (4, 5))]
    )
    return Circuit(
        5,
        tuple(gates),
        ("theta", "alpha"),
        checkpoints={"prep": 3, "after-bell": 7, "final": 9},
    )


BUILTIN_CIRCUITS = {
    "bell": build_bell_experiment,
    "teleport": build_teleportation,
    "partial-teleport": build_partial_teleportation,
}
