"""verify, which reads decode windows off the physical rows, runs each
distinct window once on its code columns and composes the decoded blocks on
2^L, against the exact oracle, which pushes the encoded states through the
whole physical circuit; and a document's provenance, which verify ignores."""

import copy
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from matchgates.circuits import Circuit, CircuitOp
from matchgates.cli import main
from matchgates.compiler import _decode, _windows, compile_circuit, verify
from matchgates.errors import ParseError, TooLarge
from matchgates.gates import H, build_pp, gate_library, phase_rz
from matchgates.io import emit_circuit_document, load_circuit, parse_circuit_document
from test_io_cli import FUZZ, JSON_VALUES, write_doc
from util import exact_verify, haar_unitary


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


def windows_before_the_last(physical: Circuit) -> float:
    """s', the summed leakage of every decode window but the last."""
    _, leaks = _decode(physical, _windows(physical))
    return sum(leaks[:-1], 0.0)


def assert_agrees_with_the_oracle(report, physical: Circuit, logical: Circuit) -> None:
    """The verified fidelity within 2s' + s'^2 of the oracle's (1e-13 for
    rounding), the reported leakage a bound on the oracle's, and, with an
    epsilon, the oracle's verdict."""
    fidelity, leakage = exact_verify(physical, logical)
    s = windows_before_the_last(physical)
    assert report.mode == "decoded"
    assert abs(report.fidelity - fidelity) <= 2 * s + s * s + 1e-13
    assert leakage <= report.leakage + 1e-13
    if report.epsilon is not None:
        assert report.passed == (abs(1 - fidelity) <= report.epsilon)


@pytest.mark.parametrize("target", list(TARGETS))
@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("grouped", [False, True])
def test_decoded_agrees_with_exact_on_random_compiles(target, n, grouped):
    rng = np.random.default_rng([n, grouped, len(target)])
    logical = random_logical(rng, n, grouped)
    assert bool(logical.groups) == grouped
    comp = compile_circuit(logical, TARGETS[target], 1e-6)
    report = verify(comp.physical, logical, 1e-6)
    assert_agrees_with_the_oracle(report, comp.physical, logical)
    assert report.passed is True


def test_a_leaking_span_is_bounded_and_seen():
    # An RX(0.3) on physical qubit 1 takes the code's |00> half out of it:
    # the leakage is sin(0.15), and the compile no longer passes.  After the
    # first entry instead, it leaks in a window before the last, and the one
    # window over the whole circuit decides.
    rng = np.random.default_rng(5)
    logical = random_logical(rng, 3, False)
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    rx = CircuitOp(gate_library("RX", (0.3,)), (1,))
    entries = comp.physical.ops
    comp.physical.add(rx)
    report = verify(comp.physical, logical, 1e-6)
    assert_agrees_with_the_oracle(report, comp.physical, logical)
    assert report.leakage == pytest.approx(math.sin(0.15), abs=1e-12)
    assert exact_verify(comp.physical, logical)[1] == pytest.approx(math.sin(0.15), rel=1e-12)
    assert report.passed is False
    early = Circuit(6, [entries[0], rx, *entries[1:]])
    assert windows_before_the_last(early) == pytest.approx(math.sin(0.15), abs=1e-12)
    report = verify(early, logical, 1e-6)
    assert (report.fidelity, report.leakage) == pytest.approx(exact_verify(early, logical), abs=1e-13)
    assert report.passed is False


@pytest.mark.parametrize("target", ["SWAP", "NL(0.2,0.1,0.35)"])
def test_a_compiled_document_verifies_as_the_compile_did(tmp_path, target):
    # mgc verify reads back what compile --out wrote and finds what the
    # compile found.
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
    report = verify(physical, logical, 1e-6)
    assert summary == {"mode": "decoded", "fidelity": report.fidelity, "leakage": report.leakage, "passed": True}
    assert_agrees_with_the_oracle(report, physical, logical)
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
    report = verify(comp.physical, logical, 1e-6)
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


def test_an_entry_wider_than_a_window_is_refused_before_any_block(tmp_path):
    # A cz on physical (0, 19) spans logical qubits 0..9: decoding it as one
    # window would take a 2^20 x 2^10 block.  A group is named by the row
    # that reaches furthest.
    logical = Circuit(10)
    group = [{"name": "h", "targets": [1]}, {"name": "h", "targets": [18]}]
    rows = {
        "op 1 (cz on (0, 19))": [{"name": "h", "targets": [3]}, {"name": "cz", "targets": [0, 19]}],
        "op 0.1 (h on (18,))": [{"repeat": 2, "gates": group}],
    }
    for op, gates in rows.items():
        physical = parse_circuit_document({"format_version": 1, "qubits": 20, "gates": gates})
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge) as info:
                verify(physical, logical, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert str(info.value) == f"{op} spans logical qubits 0..9, past the 8 that one decode window may hold"
    logical_path = write_doc(tmp_path, {"format_version": 1, "qubits": 10, "gates": []}, "logical.json")
    physical_path = write_doc(tmp_path, {"format_version": 1, "qubits": 20, "gates": rows["op 1 (cz on (0, 19))"]},
                              "physical.json")
    result = CliRunner().invoke(main, ["verify", "--logical", logical_path, "--physical", physical_path])
    assert result.exit_code == 5, result.output
    assert result.output.startswith("error: op 1 (cz on (0, 19)) spans logical qubits 0..9")


def test_interleaved_cz_schedules_at_ten_logical_qubits():
    # The schedules of CZ(0, 1) and CZ(8, 9) alternate entry by entry; each
    # stays in a window of its own, open beside the other's.  1 - F is about
    # 5.6e-9, the residual of the two schedules.
    logical = Circuit(10)
    for pair in ((0, 1), (8, 9)):
        logical.append(TWO_QUBIT["cz"], pair, name="cz")
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    entries = comp.physical.ops
    half = len(entries) // 2
    interleaved = Circuit(20, [entry for pair in zip(entries[:half], entries[half:]) for entry in pair])
    assert len(_windows(interleaved)) == 2
    report, sequential = verify(interleaved, logical, 1e-6), verify(comp.physical, logical, 1e-6)
    assert report.passed is True and 0 < 1 - report.fidelity < 1e-6
    assert report.fidelity == pytest.approx(sequential.fidelity, abs=1e-13)


def fswap_identity(n: int) -> Circuit:
    """FSWAP on physical (1, 2), (3, 4), (3, 4), (1, 2) of n logical
    qubits: the identity, whose first window on logical (0, 1) leaves the
    code and whose last comes back."""
    gates = [{"name": "fswap", "targets": [q, q + 1]} for q in (1, 3, 3, 1)]
    return parse_circuit_document({"format_version": 1, "qubits": 2 * n, "gates": gates})


def test_an_fswap_identity_passes_through_the_one_window_fallback():
    physical = fswap_identity(3)
    assert [window[:2] for window in _windows(physical)] == [(0, 2), (1, 2), (0, 2)]
    _, leaks = _decode(physical, _windows(physical))
    assert leaks == pytest.approx([1.0, 0.0, 1.0], abs=1e-15)
    report = verify(physical, Circuit(3), 1e-6)
    assert report.passed is True
    assert report.fidelity == pytest.approx(1.0, abs=1e-15) and report.leakage == pytest.approx(0.0, abs=1e-15)
    assert_agrees_with_the_oracle(report, physical, Circuit(3))


def test_the_fswap_identity_past_the_window_cap_fails(tmp_path):
    # At 9 logical qubits no window covers the circuit: the windows' F and
    # their bound 2s' + s'^2 = 3 stand, the documented limit.
    physical = write_doc(tmp_path, emit_circuit_document(fswap_identity(9)), "physical.json")
    logical = write_doc(tmp_path, {"format_version": 1, "qubits": 9, "gates": []}, "logical.json")
    result = CliRunner().invoke(main, ["verify", "--logical", logical, "--physical", physical, "--json"])
    assert result.exit_code == 8, result.output
    report = json.loads(result.output)
    assert report["fidelity"] == pytest.approx(0.25, abs=1e-15) and report["leakage"] == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Provenance in a document, which verify does not read
# ---------------------------------------------------------------------------

# H(0), CNOT(0, 2), Rz(0.3) on 3 logical qubits: the spans are 1q H on 0,
# 1q H on 2, swap on (1, 2), cz on (0, 1), swap on (1, 2), 1q H on 2 and
# 1q Rz on 0.
ROUTED = {"format_version": 1, "qubits": 3, "gates": [
    {"name": "h", "targets": [0]},
    {"name": "cnot", "targets": [0, 2]},
    {"name": "rz", "targets": [0], "params": [0.3]},
]}


def verify_document(logical: str, doc: dict, tmp_path) -> tuple[int, str]:
    """The exit code and output of ``mgc verify --json`` on ``doc``."""
    physical = write_doc(tmp_path, doc, "physical.json")
    result = CliRunner().invoke(main, ["verify", "--logical", logical, "--physical", physical, "--json"])
    return result.exit_code, result.output


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The logical document of ROUTED, its compile with the SWAP target,
    and the exit code and output of ``mgc verify --json`` on that."""
    tmp = tmp_path_factory.mktemp("routed")
    logical = write_doc(tmp, ROUTED, "logical.json")
    out = tmp / "physical.json"
    result = CliRunner().invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    return logical, doc, verify_document(logical, doc, tmp)


def test_the_routed_compile_has_the_spans_the_tampering_expects(compiled):
    _, doc, _ = compiled
    spans = [(span["kind"], span["qubits"]) for span in doc["metadata"]["provenance"]]
    assert spans == [("1q", [0]), ("1q", [2]), ("swap", [1, 2]), ("cz", [0, 1]), ("swap", [1, 2]),
                     ("1q", [2]), ("1q", [0])]


def spans_edited(edit):
    """A tamper of the metadata that applies ``edit`` to its provenance."""
    return lambda metadata: edit(metadata["provenance"])


def shift(span: dict, by: int) -> None:
    span["physical_ops"] = [span["physical_ops"][0] + by, span["physical_ops"][1]]


# Spans that would fail any check of them: wrong, non-adjacent or
# out-of-range qubits, a kind the compiler does not write, ranges that
# overlap, leave a gap or run past the entries, a missing last span, a bool
# for an index and a span that is not an object; then provenance that is not
# a list, and none.
TAMPERS = {
    "a qubit one too high": spans_edited(lambda spans: spans[3].update(qubits=[1, 2])),
    "non-adjacent qubits": spans_edited(lambda spans: spans[3].update(qubits=[0, 2])),
    "a qubit out of range": spans_edited(lambda spans: spans[1].update(qubits=[3])),
    "a one-qubit span on two qubits": spans_edited(lambda spans: spans[0].update(qubits=[0, 1])),
    "a kind the compiler does not write": spans_edited(lambda spans: spans[2].update(kind="cnot")),
    "overlapping ranges": spans_edited(lambda spans: shift(spans[4], -1)),
    "a gap": spans_edited(lambda spans: shift(spans[4], 1)),
    "an entry index out of range": spans_edited(lambda spans: spans[6].update(physical_ops=[14, 16])),
    "a missing last span": spans_edited(lambda spans: spans.pop()),
    "a row outside its span's pairs": spans_edited(lambda spans: spans[0].update(qubits=[1])),
    "a bool for an index": spans_edited(lambda spans: spans[0].update(physical_ops=[False, 1])),
    "a span that is not an object": spans_edited(lambda spans: spans.__setitem__(5, [2])),
    "provenance that is not a list": lambda metadata: metadata.update(provenance={"kind": "1q"}),
    "no provenance": lambda metadata: metadata.pop("provenance"),
}
SPAN_FIELDS = ("kind", "qubits", "physical_ops", "logical_op")


def fuzzed(edits):
    """A tamper that deletes or sets span fields, as ``edits`` say."""
    def edit(spans):
        for index, key, delete, value in edits:
            if delete:
                spans[index].pop(key, None)
            else:
                spans[index][key] = value

    return spans_edited(edit)


FUZZED = st.lists(st.tuples(st.integers(0, 6), st.sampled_from(SPAN_FIELDS), st.booleans(), JSON_VALUES),
                  min_size=1, max_size=3).map(fuzzed)


def assert_ignored(tmp_path, compiled, tamper):
    """mgc verify prints the same bytes whatever the provenance holds."""
    logical, doc, untouched = compiled
    assert untouched[0] == 0 and json.loads(untouched[1])["passed"] is True
    doc = copy.deepcopy(doc)
    tamper(doc["metadata"])
    assert verify_document(logical, doc, tmp_path) == untouched


@pytest.mark.parametrize("case", list(TAMPERS))
def test_tampered_provenance_is_ignored(tmp_path, compiled, case):
    assert_ignored(tmp_path, compiled, TAMPERS[case])


@settings(FUZZ, max_examples=30)
@given(tamper=FUZZED)
def test_provenance_is_ignored(tmp_path_factory, compiled, tamper):
    assert_ignored(tmp_path_factory.getbasetemp(), compiled, tamper)


@pytest.mark.parametrize("n", [9, 10])
def test_provenance_is_ignored_past_eight_logical_qubits(tmp_path, n):
    doc = {"format_version": 1, "qubits": n, "gates": [{"name": "h", "targets": [0]},
                                                       {"name": "cz", "targets": [0, n - 1]}]}
    logical = write_doc(tmp_path, doc, "logical.json")
    out = tmp_path / "compiled.json"
    result = CliRunner().invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", str(out)])
    assert result.exit_code == 0, result.output
    compiled = json.loads(out.read_text())
    untouched = verify_document(logical, compiled, tmp_path)
    assert untouched[0] == 0
    for case in ("a span that is not an object", "provenance that is not a list", "no provenance"):
        doc = copy.deepcopy(compiled)
        TAMPERS[case](doc["metadata"])
        assert verify_document(logical, doc, tmp_path) == untouched


def test_a_window_holds_relative_rows():
    logical = Circuit(2)
    logical.append(TWO_QUBIT["swap"], (0, 1), name="swap")
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    [(q, k, groups, rows)] = _windows(comp.physical)
    assert (q, k, groups) == (0, 2, ())
    assert [row[2:] for row in rows] == [(1, 2), (0, 1), (2, 3), (1, 2)]


# (targets of each physical row, on 8 physical qubits; the windows'
# (first logical qubit, width) in order of application).
WINDOW_RULE = {
    "two windows joined by a row over both": ([(0, 1), (2, 3), (1, 2)], [(0, 2)]),
    "a row past the hull of 2 closes": ([(1, 2), (3, 4)], [(0, 2), (1, 2)]),
    "disjoint windows stay open, last taker last": ([(0, 1), (4, 5), (1,)], [(2, 1), (0, 1)]),
    "a wide row": ([(1,), (0, 5)], [(0, 3)]),
    "a narrow row inside a wide window opens its own": ([(0, 5), (2,)], [(0, 3), (1, 1)]),
}


@pytest.mark.parametrize("case", list(WINDOW_RULE))
def test_windows_follow_the_hull_rule(case):
    rows, want = WINDOW_RULE[case]
    rng = np.random.default_rng(len(rows))
    physical = Circuit(8, [CircuitOp(haar_unitary(rng, 2 ** len(t)), t) for t in rows])
    assert [window[:2] for window in _windows(physical)] == want


def test_a_window_can_hold_a_physical_repeat_group():
    # The window is decoded with its group folded, as the oracle folds it.
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    assert comp.physical.groups and comp.plan.repetitions > 2
    [(_, _, groups, _)] = _windows(comp.physical)
    assert groups == ((2, 4, comp.plan.repetitions - 1),)
    assert_agrees_with_the_oracle(verify(comp.physical, logical, 1e-6), comp.physical, logical)


def test_equal_spans_of_a_loaded_document_hold_equal_rows():
    # The parser gives every row its own slot; rows name the first slot
    # holding their matrix, so a loaded document decodes each distinct
    # window once, as the compile does: H then SWAP on logical (0, 1) and
    # on (2, 3) make two equal windows, open side by side.
    logical = Circuit(4)
    for q in (0, 2):
        logical.append(H, (q,))
        logical.append(TWO_QUBIT["swap"], (q, q + 1), name="swap")
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    loaded = parse_circuit_document(emit_circuit_document(comp.physical))
    assert sorted(loaded.columns.slots.tolist()) == list(range(loaded.rows))

    def templates(physical):
        return [(k, groups, rows) for _, k, groups, rows in _windows(physical)]

    for physical in (comp.physical, loaded):
        assert [window[:2] for window in _windows(physical)] == [(0, 2), (2, 2)]
        assert len(set(templates(physical))) == 1


def test_an_empty_repeat_group_is_in_no_window():
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    gates = [{"repeat": 3, "gates": []}, {"name": "g", "targets": [0, 1], "blocks": {"a": x, "b": x}},
             {"repeat": 2, "gates": []}]
    physical = parse_circuit_document({"format_version": 1, "qubits": 4, "gates": gates})
    assert [window[:2] for window in _windows(physical)] == [(0, 1)]
    logical = Circuit(2)
    logical.append(gate_library("X"), (0,))
    report = verify(physical, logical, 1e-6)
    assert report.passed is True and report.fidelity == pytest.approx(1.0, abs=1e-15)


def odd_window(rng: np.random.Generator, k: int) -> Circuit:
    """Rows the compiler never writes, on the 2k physical qubits of one
    window: two-qubit gates on reversed and non-adjacent pairs, one-qubit
    gates, and a repeat group of both."""
    physical = Circuit(2 * k)
    pairs = [(1, 0), (0, 1)] if k == 1 else [(1, 0), (0, 2), (3, 1), (0, 3), (2, 3)]
    for pair in pairs:
        physical.append(haar_unitary(rng, 4), pair)
    physical.append(haar_unitary(rng, 2), (2 * k - 1,))
    body = [CircuitOp(haar_unitary(rng, 4), (2 * k - 1, 0)), CircuitOp(haar_unitary(rng, 2), (0,))]
    physical.append_segment(body, 3)
    return physical


@pytest.mark.parametrize("k", [1, 2])
def test_a_window_of_odd_rows_decodes_to_its_unitary(k):
    # With one window, the decoded block is the physical unitary on the
    # code, so verify and the oracle read the same fidelity and leakage.
    rng = np.random.default_rng(k)
    physical = odd_window(rng, k)
    assert len(_windows(physical)) == 1
    logical = Circuit(k)
    logical.append(haar_unitary(rng, 2**k), tuple(range(k)))
    report = verify(physical, logical)
    fidelity, leakage = exact_verify(physical, logical)
    assert 0.01 < fidelity < 0.99 and leakage > 0.1
    assert report.fidelity == pytest.approx(fidelity, abs=1e-13)
    assert report.leakage == pytest.approx(leakage, rel=1e-12)


def test_decoded_mode_uses_the_rounding_floor_of_every_physical_flat_op():
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["NL"], 1e-6)
    flat = comp.physical.flat_count()
    with pytest.raises(ParseError, match=f"for {flat} flat ops"):
        verify(comp.physical, logical, 4 * 2.0**-52 * flat / 2)


def test_a_perturbed_rz_pair_fails_in_both_modes():
    # Both verify and the oracle see an Rz(0.1) pair on logical qubit 1.
    logical = Circuit(2)
    logical.append(TWO_QUBIT["cz"], (0, 1), name="cz")
    comp = compile_circuit(logical, TARGETS["SWAP"], 1e-6)
    comp.physical.append(build_pp(phase_rz(0.1), phase_rz(0.1)), (2, 3))
    report = verify(comp.physical, logical, 1e-6)
    assert_agrees_with_the_oracle(report, comp.physical, logical)
    assert report.passed is False and 1 - report.fidelity > 1e-3


def test_an_empty_compile_verifies_with_float_fields(tmp_path):
    doc = write_doc(tmp_path, {"format_version": 1, "qubits": 2, "gates": []}, "empty.json")
    result = CliRunner().invoke(main, ["compile", "--input", doc, "--target", "SWAP", "--json"])
    assert result.exit_code == 0, result.output
    assert '"verification": {"fidelity": 1.0, "leakage": 0.0, "mode": "decoded", "passed": true}' in result.output
