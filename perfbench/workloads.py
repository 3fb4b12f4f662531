"""The benchmark workloads.

An op is one circuit pushed through the workload's pipeline, or one CLI
command.  Each workload supplies

* ``make(seed, stream, index)``: the op's input, drawn only from
  ``(seed, stream, index)``; stream 0 feeds the timed ops and stream 1
  the warm-up, so warm-up never sees a timed input;
* ``run(inp)``: the op itself, the only timed part;
* ``check(inp, out)``: the correctness gate, run outside the timed
  region; it raises `CheckFailed` on a wrong result;
* ``window``: how many ops the traced run replays, so that its counts
  repeat exactly for a given seed;
* ``round`` and ``round_s``: a workload of mixed commands runs whole
  rounds of ``round`` ops, as many as fit in the run at ``round_s``
  seconds each, so that every run holds the same mix.

Library calls go through module attributes (``descriptors.evolve``), so
the traced run sees them.

An op that runs out of memory or term budget is counted as failed, not
hidden.  The generic family's term counts are unbounded in practice (at
n=12, depth 120, seed 1 a generic circuit was OOM-killed: the `sum_mul`
pair grid is built before the term budget is checked), so the workloads
stay at sizes where no op fails at the seed commit.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import generators
from dhsim import circuit, cli, descriptors, reconstruct, statevector

TOL = 1e-10


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass(frozen=True)
class Workload:
    make: Callable
    run: Callable
    check: Callable
    window: int
    round: int = 1
    round_s: float = 0.0
    warmup_slot: int = 0

    def warmup_index(self, rep: int) -> int:
        """Index into the warm-up stream for set-up repetition `rep`."""
        return rep * self.round + self.warmup_slot


def _rng(seed: int, stream: int, *more: int):
    return np.random.default_rng([seed, stream, *more])


# -- dual-check ----------------------------------------------------------------
# Acceptance criterion 01 and the core of `dhsim run`.  Dense
# global_density does nearly all the work and evolve little, so this is
# the target of a single reconstruction path.  The state-vector layer is
# a control that no engine change should move.

def _dual_make(seed, stream, index):
    rng = _rng(seed, stream, index)
    return circuit.bind(generators.generic_circuit(rng, 8, 60))


def _dual_run(bc):
    rho = reconstruct.global_density(descriptors.evolve(bc))
    oracle = statevector.density(statevector.evolve_state(bc))
    return statevector.trace_distance(rho, oracle)


def _dual_check(bc, distance):
    if not distance < TOL:
        raise CheckFailed(f"dual-picture trace distance {distance:.3e}")


# -- cli-audit -----------------------------------------------------------------
# The only workload that reaches cli and infoflow: repeated evolves per
# audit, the default process pool and import cost.  The generated
# circuits share a parameter-free prefix across grid values, so an
# audit that forks from the prefix would show here.  Those prefixes are
# Clifford and evolved dozens of times per audit, so per-gate apply_gate
# cost (what a stabilizer-tableau path would cut) shows here as well.
# Only default flags are passed, so the commands keep working when
# tuning flags go away.

ROUND = (
    ("audit", "--builtin", "teleport", "--param", "theta", "--at", "after-bell"),
    ("audit", "@generated", "2"),
    ("run", "--builtin", "teleport", "--bind", "theta=0.7", "--subset", "5"),
    ("audit", "--builtin", "teleport", "--param", "theta"),
    ("audit", "--builtin", "partial-teleport", "--param", "alpha"),
    ("audit", "@generated", "3"),
    ("audit", "--builtin", "bell", "--param", "phi"),
)
AUDIT_N, AUDIT_PREFIX = 6, 60


@dataclass(frozen=True)
class CliOp:
    argv: tuple
    in_process: bool


def child_env(root: str) -> dict:
    """This process's environment with ``root/src`` on PYTHONPATH."""
    paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class CliAudit:
    """Runs each command as ``python -m dhsim.cli``, or in-process when traced."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.in_process = False
        self.env = child_env(root)

    def make(self, seed, stream, index):
        slot = index % len(ROUND)
        argv = ROUND[slot]
        if argv[1] == "@generated":
            rng = _rng(seed, stream, index // len(ROUND), slot)
            c = generators.audit_circuit(rng, AUDIT_N, AUDIT_PREFIX, int(argv[2]))
            path = os.path.join(self.workdir, f"s{stream}-op{index}.dh")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(circuit.serialize(c))
            argv = ("audit", path, "--param", "s0")
        return CliOp(argv, self.in_process)

    def run(self, op: CliOp):
        if op.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "dhsim.cli", *op.argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: CliOp, out):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"{' '.join(op.argv)} exited {code}: {stderr.strip()[-200:]}")
        if op.argv[0] == "run":
            dual = float(re.search(r"dual-picture trace distance: (\S+)", stdout).group(1))
            fid = float(re.search(r"teleport fidelity <chi\|rho5\|chi>: (\S+)", stdout).group(1))
            if not (dual < TOL and fid > 1.0 - TOL):
                raise CheckFailed(f"run: trace distance {dual}, fidelity {fid}")
            return
        classes = {int(q): cls for q, cls in re.findall(r"^\s+qubit (\d+): (\S+)", stdout, re.M)}
        found = re.search(r"contiguity audit: \d+ out-of-cone checks, (\d+) violation", stdout)
        if found is None or int(found.group(1)) != 0:
            raise CheckFailed(f"{' '.join(op.argv)}: contiguity violations or no report")
        if op.argv[:3] == ("audit", "--builtin", "teleport"):
            if "after-bell" in op.argv:
                want = {1: "locally-inaccessible", 2: "locally-inaccessible",
                        3: "locally-inaccessible", 4: "locally-inaccessible",
                        5: "no-information"}
            else:
                want = {5: "locally-accessible"}
            wrong = {q: classes.get(q) for q, cls in want.items() if classes.get(q) != cls}
            if wrong:
                raise CheckFailed(f"{' '.join(op.argv)}: unexpected classes {wrong}")


def build(name: str, root: str, workdir: str) -> tuple[Workload, object]:
    """The named workload, plus the object holding its state (or None)."""
    if name == "dual-check":
        return Workload(_dual_make, _dual_run, _dual_check, window=8), None
    if name == "cli-audit":
        state = CliAudit(root, workdir)
        # Warm up on the cheap `run` command: each op is a fresh process,
        # so warm-up only fills the file cache (and, traced, the tables).
        # A round took 10 to 15 s on a 2-vCPU Xeon host.
        return Workload(state.make, state.run, state.check, window=len(ROUND),
                        round=len(ROUND), round_s=12.5, warmup_slot=2), state
    raise KeyError(name)
