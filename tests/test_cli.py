"""Tests for the command-line interface: outputs, exit codes, determinism."""
import json
import subprocess
import sys

import numpy as np
import pytest
from helpers import child_env, random_circuit

from dhsim.circuit import build_teleportation, parse, serialize
from dhsim.cli import main
from dhsim.infoflow import classify_information, contiguity_audit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_run_teleport_fidelity_line(capsys):
    code, payload, _ = run_json(
        capsys, "run", "--builtin", "teleport", "--bind", "theta=0.7", "--subset", "5"
    )
    assert code == 0
    assert payload["teleport_fidelity"] >= 1 - 1e-10
    assert payload["dual_trace_distance"] < 1e-10
    assert "5" in payload["subsets"]


def test_run_bell_correlated_records(capsys):
    code, payload, _ = run_json(
        capsys, "run", "--builtin", "bell", "--bind", "theta=0", "--bind", "phi=0"
    )
    assert code == 0
    dist = payload["record_distribution"]
    assert dist["00"] + dist["11"] == pytest.approx(1.0, abs=1e-10)


def test_run_superdense_bits(capsys):
    code, payload, _ = run_json(capsys, "run", "--builtin", "superdense", "--bits", "10")
    assert code == 0
    assert payload["n"] == 2
    assert payload["dual_trace_distance"] < 1e-10


def test_run_expectation_table(capsys):
    code, payload, _ = run_json(
        capsys, "run", "--builtin", "superdense", "--bits", "00",
        "--expect", "ZZ", "--expect", "ZI", "--at", "2",
    )
    assert code == 0
    assert payload["expectations"]["ZZ"] == pytest.approx(1.0)
    assert payload["expectations"]["ZI"] == pytest.approx(0.0, abs=1e-12)
    code, _, err = run_cli(
        capsys, "run", "--builtin", "superdense", "--expect", "BAD"
    )
    assert code == 2


def test_run_circuit_file(tmp_path, capsys):
    path = tmp_path / "pair.dh"
    path.write_text("qubits 2\nH 1\nCNOT 1 2\n")
    code, payload, _ = run_json(capsys, "run", str(path), "--subset", "1,2")
    assert code == 0
    matrix = payload["subsets"]["1,2"]
    assert len(matrix) == 16  # 4x4 row-major re/im pairs
    assert matrix[0] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert payload["dual_trace_distance"] < 1e-10


def test_run_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.dh"
    path.write_text("qubits 2\nH 1\nFROB 2\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "line 3" in err


def test_run_non_finite_angle_exit_codes(tmp_path, capsys):
    # Both ended in "error: math domain error", exit 2.
    literal = tmp_path / "literal.dh"
    literal.write_text("qubits 1\nRX(1e400) 1\n")
    code, out, err = run_cli(capsys, "run", str(literal))
    assert (code, out) == (1, "")
    assert err == "error: line 2, column 4: non-finite angle '1e400'\n"
    scaled = tmp_path / "scaled.dh"
    scaled.write_text("qubits 1\nparam a\nRX(2*a) 1\n")
    code, out, err = run_cli(capsys, "run", str(scaled), "--bind", "a=1e308")
    assert (code, out) == (2, "")
    assert err == "error: angle 2.0*a overflows for symbol 'a' = 1e+308\n"


def test_run_missing_binding_exit_code(capsys):
    code, _, err = run_cli(capsys, "run", "--builtin", "teleport")
    assert code == 2
    assert "theta" in err


def test_run_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DH_DENSE_BUDGET", "2")
    code, _, err = run_cli(
        capsys, "run", "--builtin", "bell", "--bind", "theta=0", "--bind", "phi=0"
    )
    assert code == 3
    assert "budget" in err


def test_run_negative_dense_budget_exit_code(capsys, monkeypatch):
    # A negative budget used to skip the dual-picture check silently.
    monkeypatch.setenv("DH_DENSE_BUDGET", "-1")
    code, out, err = run_cli(
        capsys, "run", "--builtin", "teleport", "--bind", "theta=0.7", "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert err == "error: DH_DENSE_BUDGET must be a non-negative integer, got '-1'\n"


def test_run_unknown_checkpoint_exit_code(capsys):
    for at in ("nowhere", "-1"):
        code, _, err = run_cli(
            capsys, "run", "--builtin", "teleport", "--bind", "theta=0", "--at", at
        )
        assert code == 2
        assert err == f"error: unknown checkpoint '{at}'\n"


def test_run_dense_backend_and_dump(capsys):
    code, payload, _ = run_json(
        capsys, "run", "--builtin", "teleport", "--bind", "theta=0.3",
        "--backend", "dense", "--dump-descriptors",
    )
    assert code == 0
    assert payload["backend"] == "dense"
    assert payload["descriptors"]["n"] == 5
    assert len(payload["descriptors"]["descriptors"]) == 5


def test_audit_teleport_after_bell(capsys):
    code, payload, _ = run_json(
        capsys, "audit", "--builtin", "teleport", "--param", "theta",
        "--at", "after-bell",
    )
    assert code == 0
    by_qubit = {v["subject"]: v["classification"] for v in payload["verdicts"]}
    assert by_qubit[2] == "locally-inaccessible"
    assert by_qubit[3] == "locally-inaccessible"
    assert payload["contiguity"]["violations"] == 0


def test_audit_final_qubit_five_accessible(capsys):
    code, payload, _ = run_json(
        capsys, "audit", "--builtin", "teleport", "--param", "theta",
        "--qubit", "5",
    )
    assert code == 0
    assert payload["verdicts"][0]["classification"] == "locally-accessible"


def test_audit_bell_record_has_no_far_information(capsys):
    code, payload, _ = run_json(
        capsys, "audit", "--builtin", "bell", "--param", "phi", "--qubit", "1"
    )
    assert code == 0
    assert payload["verdicts"][0]["classification"] == "no-information"


def test_audit_undeclared_param_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--builtin", "teleport", "--param", "zeta"
    )
    assert code == 2
    assert "zeta" in err


# A parameter-free Clifford prefix, then three symbol gates: the audit
# evolves the prefix once and forks every sweep of every symbol from it.
PREFIX_THEN_SYMBOLS = (
    "qubits 4\nparam a\nparam b\nparam c\n"
    "H 1\nCNOT 1 2\nS 2\nCNOT 2 3\nH 4\nCZ 3 4\nH 3\n"
    "RY(a) 1\nRZ(b) 3\nCNOT 1 2\nPHASE(c) 4\nH 4\n"
)


@pytest.mark.parametrize("source", ["teleport", "prefix-then-symbols"])
def test_audit_matches_per_qubit_classification_and_contiguity(tmp_path, capsys, source):
    if source == "teleport":
        circuit, argv = build_teleportation(), ("--builtin", "teleport")
        param, at = "theta", "after-bell"
    else:
        path = tmp_path / "prefix.dh"
        path.write_text(PREFIX_THEN_SYMBOLS)
        circuit, argv = parse(PREFIX_THEN_SYMBOLS), (str(path),)
        param, at = "a", None
    at_args = ("--at", at) if at else ()
    code, payload, _ = run_json(capsys, "audit", *argv, "--param", param, *at_args)
    assert code == 0
    want = [
        classify_information(circuit, q, param, at=at).to_json()
        for q in range(1, circuit.n + 1)
    ]
    assert payload["verdicts"] == want
    assert payload["contiguity"] == contiguity_audit(circuit, at=at).to_json()
    assert payload["contiguity"]["checks"]


@pytest.mark.parametrize("points", ["0", "1"])
def test_audit_rejects_degenerate_grid(capsys, points):
    code, out, err = run_cli(
        capsys, "audit", "--builtin", "teleport", "--param", "theta", "--grid-points", points
    )
    assert code == 2
    assert out == ""
    assert "at least 2 points" in err


def test_audit_negative_seed_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--builtin", "teleport", "--param", "theta", "--seed", "-1"
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--builtin", "bell", "--seed", "5"),
        ("demo", "gauge", "--seed", "7"),
        ("run", "--builtin", "bell", "--dual-tol", "1e-3"),
        ("audit", "--builtin", "teleport", "--param", "theta", "--descriptor-tol", "1e-3"),
        ("audit", "--builtin", "teleport", "--param", "theta", "--trace-tol", "1e-3"),
        ("audit", "--builtin", "teleport", "--param", "theta", "--backend", "dense"),
    ],
    ids=["run-seed", "demo-seed", "run-dual-tol", "audit-descriptor-tol",
         "audit-trace-tol", "audit-backend"],
)
def test_fixed_settings_are_not_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_audit_qubit_zero_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--builtin", "teleport", "--param", "theta", "--qubit", "0"
    )
    assert code == 2
    assert "qubit 0" in err


def run_child(
    code: str, *args: str, timeout: float = 300, **env_extra: str
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env(**env_extra),
        capture_output=True, text=True, timeout=timeout,
    )


def test_audit_does_not_import_numpy_random():
    # numpy.random adds several MiB to every audit process.
    proc = run_child(
        """
import sys
from dhsim.cli import main
code = main(["audit", "--builtin", "teleport", "--param", "theta"])
print(code, "numpy.random" in sys.modules)
"""
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_run_out_of_memory_exit_code(tmp_path):
    # A 13-qubit dense check under a 1 GiB address-space cap: the cap is
    # set inside the child, so it limits only the child process.
    path = tmp_path / "thirteen.dh"
    path.write_text("qubits 13\nH 1\nCNOT 1 2\n")
    proc = run_child(
        """
import resource, runpy, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
sys.argv = ["dhsim", "run", sys.argv[1]]
runpy.run_module("dhsim.cli", run_name="__main__")
""",
        str(path),
        DH_DENSE_BUDGET="13",
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


def test_run_subset_over_budget_exits_before_reconstructing(tmp_path):
    # 11 of 12 qubits: over the budget of DENSE_QUBITS = 10, so the CLI
    # must stop at once instead of working through 4**11 selections.
    rng = np.random.default_rng(58)
    c, _ = random_circuit(rng, n=12, depth=60, symbol_prob=0.0)
    path = tmp_path / "twelve.dh"
    path.write_text(serialize(c))
    proc = run_child(
        """
import runpy, sys
sys.argv = ["dhsim", "run", sys.argv[1], "--subset", "1,2,3,4,5,6,7,8,9,10,11"]
runpy.run_module("dhsim.cli", run_name="__main__")
""",
        str(path),
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]


def test_closed_output_pipe_exits_quietly(tmp_path):
    # Six qubits of a 12-qubit network print about 200 KB of JSON, more
    # than a pipe holds, so the CLI is still writing when `head -c 10`
    # closes its end.
    rng = np.random.default_rng(58)
    c, _ = random_circuit(rng, n=12, depth=60, symbol_prob=0.0)
    path = tmp_path / "twelve.dh"
    path.write_text(serialize(c))
    argv = ["run", str(path), "--subset", "1,2,3,4,5,6", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, "-m", "dhsim.cli", *argv], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert head == b'{\n  "backe'
    assert code == 0, err
    assert err == b""


def test_demo_superdense_table(capsys):
    code, out, _ = run_cli(capsys, "demo", "superdense")
    assert code == 0
    assert "distinct deterministic outcomes: 4 of 4" in out


def test_demo_gauge(capsys):
    code, payload, _ = run_json(capsys, "demo", "gauge")
    assert code == 0
    assert payload["classification"] == "def1-only"
    for entry in payload["transforms"].values():
        assert entry["statistics_gap"] < 1e-10
        assert entry["descriptor_gap"] > 0.1


def test_demo_history(capsys):
    code, payload, _ = run_json(capsys, "demo", "history")
    assert code == 0
    assert payload["marginal_gap"] < 1e-10
    assert payload["descriptor_gap"] > 0.1


def test_demo_teleport_and_bell(capsys):
    code, payload, _ = run_json(capsys, "demo", "teleport")
    assert code == 0
    assert payload["worst_fidelity"] >= 1 - 1e-10
    assert payload["worst_midpoint_mixedness_gap"] < 1e-10
    assert payload["verdicts"] == {
        "2": "locally-inaccessible",
        "3": "locally-inaccessible",
        "5": "locally-accessible",
    }
    code, payload, _ = run_json(capsys, "demo", "bell")
    assert code == 0
    assert payload["marginal_spread_over_phi"] < 1e-10
    assert payload["nonfactorisability_gap"] > 1e-3


def test_json_output_is_deterministic(capsys):
    args = ("run", "--builtin", "teleport", "--bind", "theta=1.1", "--subset", "5")
    _, first, _ = run_json(capsys, *args)
    code, out1, _ = run_cli(capsys, *args, "--format", "json")
    code, out2, _ = run_cli(capsys, *args, "--format", "json")
    assert out1 == out2
    assert first == json.loads(out1)
