"""Tests of the benchmark's own references, checks and input generation.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from matchgates.circuits import Circuit  # noqa: E402
from matchgates.cli import main  # noqa: E402
from matchgates.fermion import run_covariance  # noqa: E402
from matchgates.statevector import circuit_unitary, run as sv_run  # noqa: E402
from reference import CheckFailed, Checker  # noqa: E402


def _run(req, tmp_path: Path):
    """Write a request's files, run its commands, return (stdouts, out text)."""
    for name, text in req.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    stdouts = []
    for argv in req.commands:
        res = CliRunner().invoke(main, [a.replace(workloads.WORK, str(tmp_path)) for a in argv])
        assert res.exit_code == 0, res.output
        stdouts.append(res.stdout)
    out = tmp_path / req.spec["out"] if "out" in req.spec else None
    return stdouts, out.read_text(encoding="utf-8") if out else None


def _circuit(n, steps) -> Circuit:
    c = Circuit(n)
    for gate, targets in steps:
        c.append(gate, targets)
    return c


def _tiny_steps(rng, n, count, matchgates_only=False):
    steps = []
    for _ in range(count):
        if matchgates_only:
            s = int(rng.integers(0, n - 1))
            steps.append((workloads.random_matchgate(rng), (s, s + 1)))
            continue
        q0, q1 = (int(q) for q in rng.choice(n, size=2, replace=False))
        steps.append((workloads.random_nonmatchgate(rng), (q0, q1)))
        steps.append((workloads.haar(rng, 2), (q1,)))
    return steps


# ---------------------------------------------------------------------------
# References agree with the package on tiny cases
# ---------------------------------------------------------------------------


def test_unitary_matches_package():
    rng = np.random.default_rng(3)
    steps = _tiny_steps(rng, 3, 6)
    np.testing.assert_allclose(
        reference.unitary(3, steps), circuit_unitary(_circuit(3, steps)), atol=1e-12
    )


def test_marginals_match_package_statevector():
    rng = np.random.default_rng(4)
    steps = _tiny_steps(rng, 4, 5)
    probs = sv_run(_circuit(4, steps)).probabilities().reshape((2,) * 4)
    expected = [probs.take(1, axis=k).sum() for k in range(4)]
    np.testing.assert_allclose(
        reference.one_marginals_sv(reference.statevector(4, steps)), expected, atol=1e-12
    )


def test_covariance_matches_package_and_dense_statevector():
    rng = np.random.default_rng(5)
    n = 5
    steps = _tiny_steps(rng, n, 12, matchgates_only=True)
    ours = reference.z_expectations(n, steps)
    package = run_covariance(_circuit(n, steps))
    np.testing.assert_allclose(ours, [package.expectation_z(k) for k in range(n)], atol=1e-12)
    p_one = reference.one_marginals_sv(reference.statevector(n, steps))
    np.testing.assert_allclose(ours, 1.0 - 2.0 * p_one, atol=1e-12)


def test_compile_reference_matches_package(tmp_path):
    (req,) = workloads.make_requests("compile_generic", 0, [0])
    stdouts, out_text = _run(req, tmp_path)
    summary = json.loads(stdouts[1])
    doc = json.loads(out_text)
    phys = reference.read_physical(doc, 2 * req.spec["logical_qubits"])
    assert phys["target_uses"] == summary["target_uses"] == req.spec["model_target_uses"]
    assert phys["flat_ops"] == summary["flat_op_count"]
    counters = Checker().check(req, stdouts, out_text)
    assert counters["leakage"] <= reference.LEAKAGE_TOL
    assert counters["infidelity"] <= req.spec["epsilon"]


# ---------------------------------------------------------------------------
# Deliberately wrong outputs fail their checks
# ---------------------------------------------------------------------------


def test_compile_check_rejects_a_dropped_op(tmp_path):
    (req,) = workloads.make_requests("compile_generic", 0, [0])
    stdouts, out_text = _run(req, tmp_path)
    Checker().check(req, stdouts, out_text)
    doc = json.loads(out_text)
    # The first op is the logical Haar gate G(A, A) on a pair.
    assert "repeat" not in doc["gates"][0]
    del doc["gates"][0]
    with pytest.raises(CheckFailed, match="flat_op_count"):
        Checker().check(req, stdouts, json.dumps(doc))
    # A summary that agrees with the tampered document still fails on fidelity.
    summary = json.loads(stdouts[1])
    summary["flat_op_count"] -= 1
    with pytest.raises(CheckFailed, match="infidelity"):
        Checker().check(req, [stdouts[0], json.dumps(summary)], json.dumps(doc))


def _simulate(tmp_path, backend, n, steps, shots=1000):
    workload = "sv_mixed" if backend == "sv" else "ff_shots"
    req = workloads._simulate_request(workload, 0, n, steps, backend, shots, 11, "t")
    stdouts, _ = _run(req, tmp_path)
    return req, stdouts[0]


def test_ff_check_rejects_a_perturbed_z_expectation(tmp_path):
    rng = np.random.default_rng(6)
    req, stdout = _simulate(tmp_path, "ff", 6, _tiny_steps(rng, 6, 10, matchgates_only=True))
    Checker().check(req, [stdout], None)
    payload = json.loads(stdout)
    payload["z_expectations"][2] += 1e-6
    with pytest.raises(CheckFailed, match="Z_2"):
        Checker().check(req, [json.dumps(payload)], None)


@pytest.mark.parametrize("backend", ["ff", "sv"])
def test_histogram_check_rejects_a_skewed_histogram(tmp_path, backend):
    rng = np.random.default_rng(7)
    steps = _tiny_steps(rng, 5, 8, matchgates_only=True)
    req, stdout = _simulate(tmp_path, backend, 5, steps)
    Checker().check(req, [stdout], None)
    payload = json.loads(stdout)
    counts = payload["counts"]
    top = max(counts, key=counts.get)
    payload["counts"] = {top: sum(counts.values())}
    with pytest.raises(CheckFailed, match="frequency"):
        Checker().check(req, [json.dumps(payload)], None)
    payload["counts"] = {top: sum(counts.values()) - 1}
    with pytest.raises(CheckFailed, match="sums to"):
        Checker().check(req, [json.dumps(payload)], None)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_for_one_seed(workload):
    indices = range(6)
    first = workloads.make_requests(workload, 9, indices)
    second = workloads.make_requests(workload, 9, indices)
    assert [r.files for r in first] == [r.files for r in second]
    assert [r.commands for r in first] == [r.commands for r in second]
    assert workloads.inputs_hash(first) == workloads.inputs_hash(second)
    assert workloads.inputs_hash(first) != workloads.inputs_hash(workloads.make_requests(workload, 10, indices))


def test_compile_targets_have_the_requested_schedule_length():
    for req in workloads.make_requests("compile_generic", 2, range(len(workloads.COMPILE_SHAPES))):
        spec = req.spec
        target = spec["target"]
        a, b = target[np.ix_([0, 3], [0, 3])], target[np.ix_([1, 2], [1, 2])]
        assert abs(workloads.det2(a) - workloads.det2(b)) > 0.1
        beta = float(np.angle(workloads.det2(a) / workloads.det2(b))) / 4.0
        eps_angle = workloads.angle_budget(spec["epsilon"], spec["model_cz"])
        r = spec["model_target_uses"] // spec["model_cz"]
        assert workloads.schedule_repetitions(beta, eps_angle, r) == r


def test_rescale_follows_the_probes_and_ignores_one_disturbed_probe():
    ref = 0.01
    walls = [0.1, 0.2, 0.3, 0.4]
    assert speed.rescale(walls, [ref] * 5, ref) == pytest.approx(walls)
    assert speed.rescale(walls, [2 * ref] * 5, ref) == pytest.approx([w / 2 for w in walls])
    assert speed.rescale(walls, [ref, ref, 5 * ref, ref, ref], ref) == pytest.approx(walls)
