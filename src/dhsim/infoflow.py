"""Parameter-dependence analysis over circuits.

"Depends on a parameter" is operationalized numerically: the parameter
sweeps a fixed-seed pseudo-random grid in [0, 2pi) while every other
symbol stays at a provided base binding (default 0), and dependence
means some grid pair moves the probe past a fixed tolerance
(`DESCRIPTOR_TOL` for descriptors, `TRACE_TOL` for densities).  Probes:

* descriptor dependence -- the qubit's triple moves in coefficient norm
  (the norm equals the dense Frobenius norm scaled by 2**(-n/2), so a
  single-string difference scores the same at every n);
* reduced dependence  -- the subset's reduced density moves in trace
  distance;
* global dependence   -- the full density moves in trace distance.

The verdict classification is a pure function of the three booleans.
The grid (at least two points) comes from stdlib ``random.Random(seed)``,
so rerunning a witness pair reproduces its distance; coincidental
equality at all grid points is measure-zero but not impossible, which is
the standard caveat of numerical dependence testing.  A sweep evolves
the symbol-free gate prefix once and forks every grid binding from it;
`audit` runs all qubits and the contiguity audit from one such pass.

A past interaction cone collects the gate positions reachable backward
from a qubit through shared-qubit adjacency; a descriptor can only
depend on parameters carried by gates in its cone, and the contiguity
audit asserts exactly that (a violation would indicate an engine bug).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .circuit import Circuit, bind
from .descriptors import Descriptor, NetworkState, apply_gate, evolve
from .errors import BindingError, SizeMismatchError
from .reconstruct import global_density, reduced_density
from .statevector import trace_distance

DEFAULT_GRID_POINTS = 5
DEFAULT_GRID_SEED = 1905
DESCRIPTOR_TOL = 1e-8
TRACE_TOL = 1e-8

At = Union[int, str, None]


def grid_values(
    count: int = DEFAULT_GRID_POINTS, seed: int = DEFAULT_GRID_SEED
) -> tuple[float, ...]:
    """Deterministic pseudo-random sweep values in [0, 2pi), from stdlib `random`."""
    if seed < 0:
        raise BindingError(f"grid seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    return tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))


def descriptor_distance(a: Descriptor, b: Descriptor) -> float:
    """Max over the three components of the coefficient 2-norm gap."""
    if a.x.n != b.x.n:
        raise SizeMismatchError(f"descriptor sizes differ: {a.x.n} vs {b.x.n}")
    if a is b:  # forked sweep states share every descriptor the suffix leaves alone
        return 0.0
    return max((ca - cb).coeff_norm() for ca, cb in zip(a.components, b.components))


@dataclass(frozen=True)
class Witness:
    """The grid pair achieving the reported distance."""

    binding_a: dict
    binding_b: dict
    distance: float

    def to_json(self) -> dict:
        return {
            "binding_a": self.binding_a,
            "binding_b": self.binding_b,
            "distance": self.distance,
        }


def _dependence(
    bindings: list[dict], probes: list, metric, tol: float
) -> tuple[bool, Witness]:
    worst, i, j = 0.0, 0, 0
    for a in range(len(probes)):
        for b in range(a + 1, len(probes)):
            d = metric(probes[a], probes[b])
            if d > worst:
                worst, i, j = d, a, b
    return worst > tol, Witness(bindings[i], bindings[j], worst)


def _sweep(
    c: Circuit, base: Optional[Mapping[str, float]], at: At, grid: Optional[Sequence[float]]
):
    """Return ``sweep(param) -> (bindings, states)`` over the grid.

    The gates before the first symbol-carrying gate, cut at `at`, are the
    same under every binding of every symbol: the first call evolves them
    once and every grid binding continues from that shared state.
    """
    grid = tuple(grid) if grid is not None else grid_values()
    if len(grid) < 2:
        raise BindingError(f"a dependence grid needs at least 2 points, got {len(grid)}")
    base = dict(base or {})
    for name in base:
        if name not in c.params:
            raise BindingError(f"base binding names undeclared symbol {name!r}")
    shared: list[NetworkState] = []

    def sweep(param: str) -> tuple[list[dict], list[NetworkState]]:
        if param not in c.params:
            raise BindingError(f"symbol {param!r} is not declared by the circuit")
        filled = {name: base.get(name, 0.0) for name in c.params if name != param}
        bindings = [dict(filled, **{param: v}) for v in grid]
        stop = c.resolve_step(at)
        bound = [bind(c, b) for b in bindings]
        if not shared:
            first = next((i for i, g in enumerate(c.gates) if g.symbol is not None), stop)
            shared.append(evolve(bound[0], upto=min(first, stop)))
        states = []
        for bc in bound:
            state = shared[0]
            for gate in bc.gates[state.step:stop]:
                state = apply_gate(state, gate)
            states.append(state)
        return bindings, states

    return sweep


def depends_descriptor(
    c: Circuit,
    qubit: int,
    param: str,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> tuple[bool, Witness]:
    """Does the qubit's descriptor move when the parameter sweeps?"""
    bindings, states = _sweep(c, base, at, grid)(param)
    probes = [s.descriptor(qubit) for s in states]
    return _dependence(bindings, probes, descriptor_distance, DESCRIPTOR_TOL)


def depends_reduced(
    c: Circuit,
    subset: Iterable[int],
    param: str,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> tuple[bool, Witness]:
    """Does the subset's reduced density move when the parameter sweeps?"""
    subset = sorted(set(subset))
    bindings, states = _sweep(c, base, at, grid)(param)
    densities = [reduced_density(s, subset) for s in states]
    return _dependence(bindings, densities, trace_distance, TRACE_TOL)


def depends_global(
    c: Circuit,
    param: str,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> tuple[bool, Witness]:
    """Does the full density matrix move when the parameter sweeps?"""
    bindings, states = _sweep(c, base, at, grid)(param)
    densities = [global_density(s) for s in states]
    return _dependence(bindings, densities, trace_distance, TRACE_TOL)


@dataclass(frozen=True)
class DependenceVerdict:
    """Joint outcome of the three dependence probes for one subject."""

    subject: int
    parameter: str
    descriptor_depends: bool
    reduced_depends: bool
    global_depends: bool
    classification: str
    witnesses: dict = field(compare=False)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "parameter": self.parameter,
            "descriptor_depends": self.descriptor_depends,
            "reduced_depends": self.reduced_depends,
            "global_depends": self.global_depends,
            "classification": self.classification,
            "witnesses": {k: w.to_json() for k, w in self.witnesses.items()},
        }


def classification_of(descriptor: bool, global_: bool, reduced: bool) -> str:
    if not descriptor:
        return "no-information"
    if not global_:
        return "def1-only"
    return "locally-accessible" if reduced else "locally-inaccessible"


def classify_information(
    c: Circuit,
    qubit: int,
    param: str,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> DependenceVerdict:
    """Classify what the qubit carries about the parameter.

    Evolves the grid once and feeds all three probes from the same
    states.  ``locally-inaccessible`` means the triple and the global
    statistics move while the qubit's own reduced density does not.
    """
    bindings, states = _sweep(c, base, at, grid)(param)
    return _verdicts(param, bindings, states, [qubit])[0]


def audit(
    c: Circuit,
    param: str,
    qubits: Optional[Iterable[int]] = None,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> tuple[tuple[DependenceVerdict, ...], ContiguityReport]:
    """Classify each qubit (default: all) and audit contiguity in one pass.

    Equal to `classify_information` per qubit plus `contiguity_audit`,
    from one sweep of `param`; every other audited symbol is swept once
    from the same shared prefix.
    """
    sweep = _sweep(c, base, at, grid)
    bindings, states = sweep(param)
    qubits = range(1, c.n + 1) if qubits is None else qubits
    verdicts = _verdicts(param, bindings, states, qubits)
    report = _contiguity(c, at, lambda p: (bindings, states) if p == param else sweep(p))
    return verdicts, report


def _verdicts(
    param: str, bindings: list[dict], states: list[NetworkState], qubits: Iterable[int]
) -> tuple[DependenceVerdict, ...]:
    """Classify each qubit from one sweep; the global probe is shared."""
    g_dep, g_wit = _dependence(
        bindings, [global_density(s) for s in states], trace_distance, TRACE_TOL
    )
    verdicts = []
    for qubit in qubits:
        d_dep, d_wit = _dependence(
            bindings, [s.descriptor(qubit) for s in states], descriptor_distance, DESCRIPTOR_TOL
        )
        r_dep, r_wit = _dependence(
            bindings, [reduced_density(s, [qubit]) for s in states], trace_distance, TRACE_TOL
        )
        verdicts.append(DependenceVerdict(
            subject=qubit,
            parameter=param,
            descriptor_depends=d_dep,
            reduced_depends=r_dep,
            global_depends=g_dep,
            classification=classification_of(d_dep, g_dep, r_dep),
            witnesses={"descriptor": d_wit, "reduced": r_wit, "global": g_wit},
        ))
    return tuple(verdicts)


# -- past cones and contiguity ---------------------------------------------------


@dataclass(frozen=True)
class PastCone:
    """Backward-reachable gate positions (1-based) for one qubit."""

    qubit: int
    step: int
    gates: tuple[int, ...]
    qubits: frozenset

    def to_json(self) -> dict:
        return {
            "qubit": self.qubit,
            "step": self.step,
            "gates": list(self.gates),
            "qubits": sorted(self.qubits),
        }


def past_cone(c: Circuit, qubit: int, step: At = None) -> PastCone:
    """Walk backward from `step`; a gate joins the cone iff it touches
    the growing qubit set, which then absorbs the gate's qubits."""
    if not 1 <= qubit <= c.n:
        raise ValueError(f"qubit {qubit} outside 1..{c.n}")
    upto = c.resolve_step(step)
    active = {qubit}
    positions = []
    for pos in range(upto, 0, -1):
        g = c.gates[pos - 1]
        if active.intersection(g.qubits):
            positions.append(pos)
            active.update(g.qubits)
    return PastCone(qubit, upto, tuple(reversed(positions)), frozenset(active))


def cone_parameters(c: Circuit, cone: PastCone) -> frozenset:
    return frozenset(
        c.gates[pos - 1].symbol
        for pos in cone.gates
        if c.gates[pos - 1].symbol is not None
    )


@dataclass(frozen=True)
class ContiguityCheck:
    qubit: int
    parameter: str
    depends: bool
    witness: Witness


@dataclass(frozen=True)
class ContiguityReport:
    """Outcome of scanning every (qubit, out-of-cone parameter) pair.

    A parameter is audited for a qubit when *no* gate of the qubit's
    final past cone carries it (a symbol may appear both inside and
    outside a cone, in which case dependence through the in-cone gate is
    legitimate and the pair is skipped).  Any entry in `violations`
    signals an engine bug, never physics.
    """

    n: int
    cones: tuple[PastCone, ...]
    checks: tuple[ContiguityCheck, ...]

    @property
    def violations(self) -> tuple[ContiguityCheck, ...]:
        return tuple(ch for ch in self.checks if ch.depends)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cones": [cone.to_json() for cone in self.cones],
            "checks": [
                {
                    "qubit": ch.qubit,
                    "parameter": ch.parameter,
                    "depends": ch.depends,
                    "distance": ch.witness.distance,
                }
                for ch in self.checks
            ],
            "violations": len(self.violations),
        }


def contiguity_audit(
    c: Circuit,
    *,
    base: Optional[Mapping[str, float]] = None,
    at: At = None,
    grid: Optional[Sequence[float]] = None,
) -> ContiguityReport:
    """Assert no descriptor depends on a parameter absent from its cone."""
    return _contiguity(c, at, _sweep(c, base, at, grid))


def _contiguity(c: Circuit, at: At, sweep) -> ContiguityReport:
    """Sweep each audited parameter once; every qubit auditing it reads those states."""
    cones = tuple(past_cone(c, q, at) for q in range(1, c.n + 1))
    audited: dict[str, list[int]] = {}
    for cone in cones:
        in_cone = cone_parameters(c, cone)
        for param in c.params:
            if param not in in_cone:
                audited.setdefault(param, []).append(cone.qubit)
    checks = []
    for param, qubits in audited.items():
        bindings, states = sweep(param)
        for qubit in qubits:
            depends, witness = _dependence(
                bindings, [s.descriptor(qubit) for s in states], descriptor_distance,
                DESCRIPTOR_TOL,
            )
            checks.append(ContiguityCheck(qubit, param, depends, witness))
    return ContiguityReport(c.n, cones, tuple(checks))
