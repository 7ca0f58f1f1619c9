"""verify's decoded mode, which runs each distinct provenance span once on
its code columns and composes the decoded blocks on 2^L, against its exact
mode, which pushes the encoded states through the whole physical circuit;
and the checks of provenance read from a document."""

import copy
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from matchgates.circuits import Circuit, CircuitOp
from matchgates.cli import main
from matchgates.compiler import check_provenance, compile_circuit, verify
from matchgates.errors import ParseError
from matchgates.gates import H, build_pp, gate_library, phase_rz
from matchgates.io import emit_circuit_document, load_circuit, parse_circuit_document
from test_io_cli import FUZZ, JSON_VALUES, write_doc
from util import haar_unitary


def fsim(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, np.exp(-1j * phi)]], dtype=complex
    )


TARGETS = {
    "SWAP": gate_library("SWAP"),
    "fSim": fsim(math.pi / 2, math.pi / 6),
    "NL": gate_library("NL", (0.2, 0.1, 0.35)),
}
TWO_QUBIT = {"cz": gate_library("CZ"), "cnot": gate_library("CNOT"), "swap": gate_library("SWAP")}


def random_logical(rng: np.random.Generator, n: int, grouped: bool) -> Circuit:
    """Haar one-qubit gates and two CZ, CNOT or SWAP ops on random pairs at
    any distance; with ``grouped``, the first two-qubit op and its
    neighbours repeat in a group."""
    circuit = Circuit(n)

    def one_qubit(q):
        return CircuitOp(haar_unitary(rng, 2), (q,))

    def two_qubit():
        name = str(rng.choice(list(TWO_QUBIT)))
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        return CircuitOp(TWO_QUBIT[name], (a, b), name=name)

    for q in range(n):
        circuit.add(one_qubit(q))
    body = [one_qubit(int(rng.integers(n))), two_qubit(), one_qubit(int(rng.integers(n)))]
    if grouped:
        circuit.append_segment(body, int(rng.integers(2, 4)))
    else:
        for op in body:
            circuit.add(op)
    circuit.add(two_qubit())
    circuit.add(one_qubit(n - 1))
    return circuit


def assert_within_the_bound(decoded, exact) -> None:
    """The decoded fidelity within 2s + s^2 of the exact one, s the summed
    span leakage, which bounds the exact leakage; 1e-13 for rounding."""
    s = decoded.leakage
    assert decoded.mode == "decoded" and exact.mode == "exact"
    assert abs(decoded.fidelity - exact.fidelity) <= 2 * s + s * s + 1e-13
    assert exact.leakage <= s + 1e-13
    assert (decoded.target_uses, decoded.flat_op_count) == (exact.target_uses, exact.flat_op_count)


@pytest.mark.parametrize("target", list(TARGETS))
@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("grouped", [False, True])
def test_decoded_agrees_with_exact_on_random_compiles(target, n, grouped):
    rng = np.random.default_rng([n, grouped, len(target)])
    logical = random_logical(rng, n, grouped)
    assert bool(logical.groups) == grouped
    comp = compile_circuit(logical, TARGETS[target], 1e-6)
    decoded = verify(comp.physical, logical, 1e-6, comp.provenance)
    exact = verify(comp.physical, logical, 1e-6)
    assert_within_the_bound(decoded, exact)
    assert decoded.passed is True and exact.passed is True


def test_a_leaking_span_is_bounded_and_seen():
    # An RX(0.3) on physical qubit 1 takes the code's |00> half out of it:
    # that span's leakage is sin(0.15), and the compile no longer passes.
    rng = np.random.default_rng(5)
    logical = random_logical(rng, 3, False)
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    entries = comp.provenance[-1]["physical_ops"][1]
    comp.physical.append(gate_library("RX", (0.3,)), (1,))
    span = {"logical_op": len(comp.provenance), "kind": "1q", "qubits": [0], "physical_ops": [entries, entries + 1]}
    decoded = verify(comp.physical, logical, 1e-6, comp.provenance + [span])
    exact = verify(comp.physical, logical, 1e-6)
    assert_within_the_bound(decoded, exact)
    assert decoded.leakage == pytest.approx(math.sin(0.15), abs=1e-12)
    assert exact.leakage == pytest.approx(math.sin(0.15), rel=1e-12)
    assert decoded.passed is False and exact.passed is False


@pytest.mark.parametrize("target", ["SWAP", "NL(0.2,0.1,0.35)"])
def test_a_compiled_document_verifies_as_the_compile_did(tmp_path, target):
    # compile --out writes the provenance that mgc verify reads back.
    doc = {"format_version": 1, "qubits": 4, "gates": [
        {"name": "h", "targets": [0]},
        {"repeat": 2, "gates": [{"name": "cnot", "targets": [0, 3]}, {"name": "rz", "targets": [2], "params": [0.3]}]},
        {"name": "swap", "targets": [1, 2]},
    ]}
    logical_path = write_doc(tmp_path, doc, "logical.json")
    out = str(tmp_path / "physical.json")
    runner = CliRunner()
    result = runner.invoke(main, ["compile", "--input", logical_path, "--target", target, "--out", out, "--json"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)["verification"]
    physical, logical = load_circuit(out), load_circuit(logical_path)
    report = verify(physical, logical, 1e-6, physical.metadata["provenance"])
    assert summary == {"mode": "decoded", "fidelity": report.fidelity, "leakage": report.leakage, "passed": True}
    assert_within_the_bound(report, verify(physical, logical, 1e-6))
    result = runner.invoke(main, ["verify", "--logical", logical_path, "--physical", out, "--json"])
    assert result.exit_code == 0, result.output
    printed = json.loads(result.output)
    assert (printed["mode"], printed["fidelity"], printed["leakage"]) == ("decoded", report.fidelity, report.leakage)


def ring_circuit(n: int, rng: np.random.Generator) -> Circuit:
    """H on every qubit, a CZ ring twice, CZ(q, q + n/2), and Haar one-qubit
    gates."""
    circuit = Circuit(n)
    for q in range(n):
        circuit.append(H, (q,))
    for _ in range(2):
        for q in range(n):
            circuit.append(TWO_QUBIT["cz"], (q, (q + 1) % n), name="cz")
    for q in range(n // 2):
        circuit.append(TWO_QUBIT["cz"], (q, q + n // 2), name="cz")
    for q in range(n):
        circuit.append(haar_unitary(rng, 2), (q,))
    return circuit


def test_eight_logical_qubits_verify_in_under_a_second():
    logical = ring_circuit(8, np.random.default_rng(8))
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    start = time.perf_counter()
    report = verify(comp.physical, logical, 1e-6, comp.provenance)
    assert time.perf_counter() - start < 1.0
    assert report.mode == "decoded" and report.passed is True
    assert 1 - report.fidelity < 1e-13 and report.leakage < 1e-13


def test_eleven_logical_qubits_exit_5(tmp_path):
    doc = {"format_version": 1, "qubits": 11, "gates": [{"name": "cz", "targets": [4, 5]}]}
    logical = write_doc(tmp_path, doc, "logical.json")
    out = str(tmp_path / "physical.json")
    runner = CliRunner()
    result = runner.invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", out])
    assert result.exit_code == 5, result.output
    assert "over the cap of 10 logical qubits; compile with --skip-verify" in result.output
    result = runner.invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", out, "--skip-verify"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", "--logical", logical, "--physical", out])
    assert result.exit_code == 5, result.output
    assert "--skip-verify" not in result.output


# ---------------------------------------------------------------------------
# Provenance read from a document
# ---------------------------------------------------------------------------

# H(0), CNOT(0, 2), Rz(0.3) on 3 logical qubits: the spans are 1q H on 0,
# 1q H on 2, swap on (1, 2), cz on (0, 1), swap on (1, 2), 1q H on 2 and
# 1q Rz on 0.
ROUTED = {"format_version": 1, "qubits": 3, "gates": [
    {"name": "h", "targets": [0]},
    {"name": "cnot", "targets": [0, 2]},
    {"name": "rz", "targets": [0], "params": [0.3]},
]}


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The logical and physical documents of ROUTED compiled with the SWAP
    target."""
    tmp = tmp_path_factory.mktemp("routed")
    logical = write_doc(tmp, ROUTED, "logical.json")
    out = tmp / "physical.json"
    result = CliRunner().invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return logical, json.loads(out.read_text())


def test_the_routed_compile_has_the_spans_the_tampering_expects(compiled):
    _, doc = compiled
    spans = [(span["kind"], span["qubits"]) for span in doc["metadata"]["provenance"]]
    assert spans == [("1q", [0]), ("1q", [2]), ("swap", [1, 2]), ("cz", [0, 1]), ("swap", [1, 2]),
                     ("1q", [2]), ("1q", [0])]


def verify_tampered(tmp_path, compiled, tamper):
    """``mgc verify`` of the compiled document with its provenance changed
    by ``tamper``."""
    logical, doc = compiled
    doc = copy.deepcopy(doc)
    tamper(doc["metadata"]["provenance"])
    physical = write_doc(tmp_path, doc, "tampered.json")
    return CliRunner().invoke(main, ["verify", "--logical", logical, "--physical", physical, "--json"])


def test_the_untampered_document_verifies_decoded(tmp_path, compiled):
    result = verify_tampered(tmp_path, compiled, lambda spans: None)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["mode"] == "decoded"


def test_without_provenance_the_document_verifies_exactly(tmp_path, compiled):
    logical, doc = compiled
    doc = copy.deepcopy(doc)
    del doc["metadata"]["provenance"]
    physical = write_doc(tmp_path, doc, "bare.json")
    result = CliRunner().invoke(main, ["verify", "--logical", logical, "--physical", physical, "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["mode"] == "exact"


def shift(span: dict, by: int) -> None:
    span["physical_ops"] = [span["physical_ops"][0] + by, span["physical_ops"][1]]


TAMPERED = {
    "a qubit one too high": (
        lambda spans: spans[3].update(qubits=[1, 2]),
        "provenance[3]: op 6 (g on (1, 2)) acts outside physical qubits 2..5",
    ),
    "non-adjacent qubits": (
        lambda spans: spans[3].update(qubits=[0, 2]),
        "provenance[3]: a 'cz' span acts on 2 adjacent logical qubit(s) of 3, got 'qubits' [0, 2]",
    ),
    "a qubit out of range": (
        lambda spans: spans[1].update(qubits=[3]),
        "provenance[1]: a '1q' span acts on 1 adjacent logical qubit(s) of 3, got 'qubits' [3]",
    ),
    "a one-qubit span on two qubits": (
        lambda spans: spans[0].update(qubits=[0, 1]),
        "provenance[0]: a '1q' span acts on 1 adjacent logical qubit(s) of 3, got 'qubits' [0, 1]",
    ),
    "a kind the compiler does not write": (
        lambda spans: spans[2].update(kind="cnot"),
        "provenance[2]: 'kind' must be one of 1q, cz, swap, got 'cnot'",
    ),
    "overlapping ranges": (
        lambda spans: shift(spans[4], -1),
        "provenance[4]: 'physical_ops' [8, 13] overlaps the span before it, which ends at entry 9",
    ),
    "a gap": (
        lambda spans: shift(spans[4], 1),
        "provenance[4]: 'physical_ops' [10, 13] leaves entries 9..9 in no span",
    ),
    "an entry index out of range": (
        lambda spans: spans[6].update(physical_ops=[14, 16]),
        "provenance[6]: 'physical_ops' [14, 16] is not a nonempty range of the 15 top-level entries",
    ),
    "a missing last span": (
        lambda spans: spans.pop(),
        "provenance: the spans end at entry 14 of the 15 top-level entries",
    ),
    "a row outside its span's pairs": (
        lambda spans: spans[0].update(qubits=[1]),
        "provenance[0]: op 0 (g on (0, 1)) acts outside physical qubits 2..3",
    ),
    "a bool for an index": (
        lambda spans: spans[0].update(physical_ops=[False, 1]),
        "provenance[0]: 'physical_ops' must be [start, stop], got [False, 1]",
    ),
    "a span that is not an object": (
        lambda spans: spans.__setitem__(5, [2]),
        "provenance[5]: a span must be an object",
    ),
}


@pytest.mark.parametrize("case", list(TAMPERED))
def test_tampered_provenance_is_refused_naming_the_span(tmp_path, compiled, case):
    tamper, refusal = TAMPERED[case]
    result = verify_tampered(tmp_path, compiled, tamper)
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {refusal}"), result.output


def test_provenance_that_is_not_a_list_is_refused(tmp_path, compiled):
    logical, doc = compiled
    doc = copy.deepcopy(doc)
    doc["metadata"]["provenance"] = {"kind": "1q"}
    physical = write_doc(tmp_path, doc, "tampered.json")
    result = CliRunner().invoke(main, ["verify", "--logical", logical, "--physical", physical])
    assert result.exit_code == 2, result.output
    assert result.output == "error: provenance must be a list of spans, got dict\n"


def test_the_checked_spans_hold_relative_rows():
    logical = Circuit(2)
    logical.append(TWO_QUBIT["swap"], (0, 1), name="swap")
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    [(q, k, row0, row1, groups, rows)] = check_provenance(comp.provenance, comp.physical, 2)
    assert (q, k, row0, row1, groups) == (0, 2, 0, 4, ())
    assert [row[2:] for row in rows] == [(1, 2), (0, 1), (2, 3), (1, 2)]


def test_a_span_can_hold_a_physical_repeat_group():
    # The span is decoded with its group folded, as the exact mode folds it.
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    assert comp.physical.groups and comp.plan.repetitions > 2
    [(_, _, _, _, groups, _)] = check_provenance(comp.provenance, comp.physical, 2)
    assert groups == ((2, 4, comp.plan.repetitions - 1),)
    assert_within_the_bound(verify(comp.physical, logical, 1e-6, comp.provenance), verify(comp.physical, logical, 1e-6))


def test_equal_spans_of_a_loaded_document_hold_equal_rows():
    # The parser gives every row its own slot; rows name the first slot
    # holding their matrix, so a loaded document decodes each distinct span
    # once, as the compile does.
    logical = Circuit(3)
    logical.append(H, (0,))
    logical.append(TWO_QUBIT["swap"], (0, 1), name="swap")
    logical.append(TWO_QUBIT["swap"], (1, 2), name="swap")
    logical.append(H, (0,))
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    loaded = parse_circuit_document(emit_circuit_document(comp.physical))
    assert sorted(loaded.columns.slots.tolist()) == list(range(loaded.rows))

    def templates(physical):
        return [(k, groups, rows) for _, k, _, _, groups, rows in check_provenance(comp.provenance, physical, 3)]

    for spans in (templates(comp.physical), templates(loaded)):
        assert spans[0] == spans[3] and spans[1] == spans[2]
        assert len(set(spans)) == 2


def odd_span(rng: np.random.Generator, k: int) -> Circuit:
    """Rows the compiler never writes, on the 2k physical qubits of one
    span: two-qubit gates on reversed and non-adjacent pairs, one-qubit
    gates, and a repeat group of both."""
    physical = Circuit(2 * k)
    pairs = [(1, 0), (0, 1)] if k == 1 else [(1, 0), (0, 2), (3, 1), (0, 3), (2, 3)]
    for pair in pairs:
        physical.append(haar_unitary(rng, 4), pair)
    physical.append(haar_unitary(rng, 2), (2 * k - 1,))
    body = [CircuitOp(haar_unitary(rng, 4), (2 * k - 1, 0)), CircuitOp(haar_unitary(rng, 2), (0,))]
    physical.append_segment(body, 3)
    return physical


@pytest.mark.parametrize("k,kind", [(1, "1q"), (2, "swap")])
def test_a_span_of_odd_rows_decodes_to_its_unitary(k, kind):
    # With one span, the decoded block is the physical unitary on the code,
    # so both modes read the same fidelity and leakage.
    rng = np.random.default_rng(k)
    physical = odd_span(rng, k)
    logical = Circuit(k)
    logical.append(haar_unitary(rng, 2**k), tuple(range(k)))
    provenance = [{"kind": kind, "qubits": list(range(k)), "physical_ops": [0, len(physical.ops)]}]
    decoded, exact = verify(physical, logical, None, provenance), verify(physical, logical)
    assert decoded.mode == "decoded" and 0.01 < exact.fidelity < 0.99 and exact.leakage > 0.1
    assert decoded.fidelity == pytest.approx(exact.fidelity, abs=1e-13)
    assert decoded.leakage == pytest.approx(exact.leakage, rel=1e-12)


SPAN_FIELDS = ("kind", "qubits", "physical_ops", "logical_op")


@settings(FUZZ, max_examples=60)
@given(edits=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(SPAN_FIELDS), st.booleans(), JSON_VALUES),
                      min_size=1, max_size=3))
def test_mutated_provenance_maps_to_documented_exit_codes(tmp_path_factory, compiled, edits):
    def tamper(spans):
        for index, key, delete, value in edits:
            if delete:
                spans[index].pop(key, None)
            else:
                spans[index][key] = value

    result = verify_tampered(tmp_path_factory.getbasetemp(), compiled, tamper)
    assert result.exit_code in (0, 2, 8), (result.exit_code, result.output)
    if result.exit_code == 2:
        assert result.output.startswith("error: provenance"), result.output


def test_decoded_mode_uses_the_rounding_floor_of_every_physical_flat_op():
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    flat = comp.physical.flat_count()
    with pytest.raises(ParseError, match=f"for {flat} flat ops"):
        verify(comp.physical, logical, 4 * 2.0**-52 * flat / 2, comp.provenance)


def test_a_perturbed_rz_pair_fails_in_both_modes():
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    entries = comp.provenance[-1]["physical_ops"][1]
    comp.physical.append(build_pp(phase_rz(0.1), phase_rz(0.1)), (2, 3))
    span = {"logical_op": 1, "kind": "1q", "qubits": [1], "physical_ops": [entries, entries + 1]}
    decoded = verify(comp.physical, logical, 1e-6, comp.provenance + [span])
    exact = verify(comp.physical, logical, 1e-6)
    assert_within_the_bound(decoded, exact)
    assert decoded.passed is False and 1 - decoded.fidelity > 1e-3


def test_an_empty_compile_verifies_with_float_fields(tmp_path):
    doc = write_doc(tmp_path, {"format_version": 1, "qubits": 2, "gates": []}, "empty.json")
    result = CliRunner().invoke(main, ["compile", "--input", doc, "--target", "SWAP", "--json"])
    assert result.exit_code == 0, result.output
    assert '"verification": {"fidelity": 1.0, "leakage": 0.0, "mode": "decoded", "passed": true}' in result.output
