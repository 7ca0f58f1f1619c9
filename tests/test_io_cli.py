"""Circuit document round trips, gate-spec parsing, and CLI behavior."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import matchgates
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from matchgates.circuits import REPEAT_CAP, Circuit, CircuitOp, Columns, RepeatedSegment
from matchgates.cli import main
from matchgates.compiler import LOGICAL_FLAT_OP_CAP, compile_circuit
from matchgates.errors import MatchgatesError, NonUnitaryInput, ParseError, TooLarge
from matchgates.gates import H, I2, X, build_pp, gate_library
from matchgates.io import (
    _complex_stack,
    dumps_document,
    emit_circuit_document,
    gate_from_document,
    load_circuit,
    matrix_out,
    parse_angle,
    parse_circuit_document,
    parse_gate_spec,
)
from matchgates.statevector import circuit_unitary
from util import flat, random_matchgate, random_matchgate_circuit

PI = np.pi


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", PI),
            ("-pi", -PI),
            ("pi/4", PI / 4),
            ("3pi/8", 3 * PI / 8),
            ("3*pi/8", 3 * PI / 8),
            ("-pi/2", -PI / 2),
            ("0.25", 0.25),
            (1.5, 1.5),
            (2, 2.0),
        ],
    )
    def test_values(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=0)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_angle("two pies")


def g_entry(targets, a=((1, 0), (0, 1)), b=((1, 0), (0, 1))) -> dict:
    """A 'g' gate entry with the given 2x2 blocks."""

    def rows(m):
        return [[[complex(x).real, complex(x).imag] for x in row] for row in m]

    return {"name": "g", "targets": list(targets), "blocks": {"a": rows(a), "b": rows(b)}}


class TestCircuitDocuments:
    def bell_doc(self):
        return {
            "format_version": 1,
            "qubits": 2,
            "gates": [
                {"name": "h", "targets": [0]},
                {"name": "cnot", "targets": [0, 1]},
            ],
            "metadata": {"label": "bell"},
        }

    def test_parse_and_run(self):
        circ = parse_circuit_document(self.bell_doc())
        assert circ.n == 2 and circ.metadata["label"] == "bell"
        u = circuit_unitary(circ)
        assert u.shape == (4, 4)

    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(80)
        circ = random_matchgate_circuit(rng, 4, 6)
        circ.append_segment(tuple(flat(random_matchgate_circuit(rng, 4, 2))), 5)
        circ.append(H, (0,), tag="")
        circ.append_segment([CircuitOp(H, (1,), tag="target"), CircuitOp(H, (2,), tag="")], 3)
        doc = emit_circuit_document(circ)
        text = dumps_document(doc)
        reparsed = parse_circuit_document(json.loads(text))
        assert dumps_document(emit_circuit_document(reparsed)) == text
        assert reparsed.columns.tags == circ.columns.tags
        assert_allclose(
            circuit_unitary(reparsed), circuit_unitary(circ), atol=1e-12
        )

    def test_pi_params_accepted(self):
        doc = {
            "format_version": 1,
            "qubits": 2,
            "gates": [{"name": "nl", "targets": [0, 1], "params": ["pi/4", 0, "-pi/8"]}],
        }
        circ = parse_circuit_document(doc)
        op = circ.ops[0]
        assert op.params[0] == pytest.approx(PI / 4)

    def test_unknown_gate_names_location(self):
        doc = self.bell_doc()
        doc["gates"].append({"name": "frobnicate", "targets": [0]})
        with pytest.raises(ParseError, match=r"gates\[2\]"):
            parse_circuit_document(doc)

    def test_bad_version(self):
        doc = self.bell_doc()
        doc["format_version"] = 99
        with pytest.raises(ParseError, match="format_version"):
            parse_circuit_document(doc)

    def test_bad_complex_entry(self):
        doc = {
            "format_version": 1,
            "qubits": 2,
            "gates": [
                {"name": "matrix", "targets": [0], "matrix": [[1, 0], [0, 1]]}
            ],
        }
        with pytest.raises(ParseError, match=r"\[re, im\]"):
            parse_circuit_document(doc)

    def test_nested_repeat_rejected(self):
        doc = {
            "format_version": 1,
            "qubits": 2,
            "gates": [
                {"repeat": 2, "gates": [{"repeat": 2, "gates": []}]}
            ],
        }
        with pytest.raises(ParseError, match="nested"):
            parse_circuit_document(doc)

    @pytest.mark.parametrize(
        "gates,message",
        [
            ([g_entry((0, 1)), g_entry((1, 0), a=((2, 0), (0, 1)))],
             "gates[1]: even block A is not unitary within 1e-09"),
            ([g_entry((0, 1)), {"repeat": 3, "gates": [g_entry((0, 1), b=((0, 1), (1, 1)))]}],
             "gates[1].gates[0]: odd block B is not unitary within 1e-09"),
            # Overflow makes the defect NaN, which still fails the check.
            ([g_entry((0, 1), a=((1e200 + 1e200j, 0), (0, 1)))],
             "gates[0]: even block A is not unitary within 1e-09"),
            # Past one stacked check's worth of entries.
            ([g_entry((0, 1))] * 150 + [g_entry((0, 1), a=((1, 0), (0, 0)))],
             "gates[150]: even block A is not unitary within 1e-09"),
            # A non-unitary block is named before a later fault of any kind.
            ([g_entry((0, 1), b=((2, 0), (0, 1))), {"name": "frobnicate", "targets": [0]}],
             "gates[0]: odd block B is not unitary within 1e-09"),
            ([g_entry((0, 1), b=((2, 0), (0, 1))), g_entry((0, 7))],
             "gates[0]: odd block B is not unitary within 1e-09"),
            # ... and after an earlier one.
            ([{"name": "frobnicate", "targets": [0]}, g_entry((0, 1), a=((2, 0), (0, 1)))],
             "gates[0]: unknown gate 'frobnicate'"),
        ],
    )
    # One case overflows on purpose.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_unitary_g_block_names_entry_and_block(self, gates, message):
        doc = {"format_version": 1, "qubits": 2, "gates": gates}
        with pytest.raises(ParseError) as info:
            parse_circuit_document(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entry", [[True, 0], [0, False], ["1", 0], [float("nan"), 0], [0, float("inf")], [10**400, 0], [1], [1, 0, 0], None]
    )
    def test_bad_matrix_entry_refused(self, entry):
        rows = [[entry, [0, 0]], [[0, 0], [1, 0]]]
        doc = {"format_version": 1, "qubits": 1, "gates": [{"name": "matrix", "targets": [0], "matrix": rows}]}
        with pytest.raises(ParseError, match=r"\[re, im\] pairs, got"):
            parse_circuit_document(doc)

    def test_matrix_entries_convert_exactly(self):
        # Far from unitary, so converted as the parser converts a chunk.
        values = [[[1, 0], [0.1, -2**64 - 1]], [[10**30, 3], [-0.0, 1e-300]]]
        expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in values])
        gate = _complex_stack([values], 2)[0]
        assert gate.dtype == complex and np.array_equal(gate, expected)
        # Ints, a signed zero and a tiny part in a unitary one, parsed.
        values = [[[1, 0], [-0.0, 1e-300]], [[0, 1e-300], [-1, 0]]]
        doc = {"format_version": 1, "qubits": 1, "gates": [{"name": "matrix", "targets": [0], "matrix": values}]}
        gate = parse_circuit_document(doc).ops[0].gate
        expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in values])
        assert gate.dtype == complex and np.array_equal(gate, expected)

    def test_blocks_gate(self):
        g = random_matchgate(np.random.default_rng(81))
        circ = Circuit(2)
        circ.append(g, (0, 1), name="g")
        doc = emit_circuit_document(circ)
        assert doc["gates"][0]["name"] == "g"
        reparsed = parse_circuit_document(doc)
        assert_allclose(reparsed.ops[0].gate, g, atol=0)


class TestGateSpecs:
    def test_names_and_calls(self):
        assert_allclose(parse_gate_spec("SWAP"), gate_library("SWAP"))
        assert_allclose(parse_gate_spec("NL(pi/4, 0, 0)"), gate_library("NL", (PI / 4, 0, 0)))
        assert_allclose(parse_gate_spec("rz(0.3)"), gate_library("RZ", (0.3,)))

    def test_document_forms(self):
        g = build_pp(H, H)
        doc = {"blocks": {"a": [[[x.real, x.imag] for x in row] for row in H],
                          "b": [[[x.real, x.imag] for x in row] for row in H]}}
        assert_allclose(gate_from_document(doc), g, atol=1e-15)
        doc = {"matrix": [[[float(x.real), float(x.imag)] for x in row] for row in g]}
        assert_allclose(gate_from_document(doc), g, atol=1e-15)
        doc = {"pp_params": {"theta": 0, "alpha": 0, "gamma": 0, "phi": "pi/2",
                             "mu": 0, "nu": 0, "beta": "pi/4"}}
        got = gate_from_document(doc)
        assert got.shape == (4, 4)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({"name": "iswap"}))
        assert_allclose(parse_gate_spec(str(path)), gate_library("ISWAP"))

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            parse_gate_spec("NOT_A_GATE")


@pytest.fixture()
def runner():
    return CliRunner()


def write_bell(tmp_path):
    doc = {
        "format_version": 1,
        "qubits": 2,
        "gates": [
            {"name": "h", "targets": [0]},
            {"name": "cnot", "targets": [0, 1]},
        ],
        "metadata": {},
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_logical_cz(tmp_path):
    doc = {
        "format_version": 1,
        "qubits": 2,
        "gates": [{"name": "cz", "targets": [0, 1]}],
        "metadata": {},
    }
    path = tmp_path / "cz.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyzeCommand:
    def test_swap(self, runner):
        result = runner.invoke(main, ["analyze", "--gate", "SWAP", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["is_matchgate"] is False
        triple = report["nonlocal_triple"]
        assert_allclose([triple["a"], triple["b"], triple["c"]], [PI / 4] * 3, atol=1e-9)
        assert report["entangling_power"] == pytest.approx(0.0, abs=1e-12)

    def test_both_triples_are_weyl_chamber_points(self, runner):
        result = runner.invoke(main, ["analyze", "--gate", "NL(0.2,0.1,0.35)", "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        for key in ("nonlocal_triple", "pp_nonlocal_triple"):
            triple = report[key]
            assert_allclose([triple["a"], triple["b"], triple["c"]], [0.35, 0.2, 0.1], atol=1e-12)
        text = runner.invoke(main, ["analyze", "--gate", "NL(0.2,0.1,0.35)"]).output
        assert "nonlocal triple (canonical): a=0.350000000 b=0.200000000 c=0.100000000" in text

    def test_iswap(self, runner):
        result = runner.invoke(main, ["analyze", "--gate", "ISWAP", "--json"])
        report = json.loads(result.output)
        assert report["is_matchgate"] is True

    def test_nl_gate(self, runner):
        result = runner.invoke(main, ["analyze", "--gate", "NL(0.3,0.1,0)", "--json"])
        report = json.loads(result.output)
        assert report["is_matchgate"] is True
        expected = 1 - np.cos(0.6) ** 2 * np.cos(0.2) ** 2
        assert report["entangling_power"] == pytest.approx(expected, abs=1e-9)

    def test_mc_option(self, runner):
        result = runner.invoke(
            main,
            ["analyze", "--gate", "CNOT", "--mc-samples", "20000", "--seed", "3", "--json"],
        )
        report = json.loads(result.output)
        assert report["entangling_power_mc"] == pytest.approx(1.0, abs=0.05)

    def test_parse_error_exit_code(self, runner):
        result = runner.invoke(main, ["analyze", "--gate", "NOPE"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("samples", [10**6 + 1, 10**8])
    def test_mc_samples_past_the_cap_are_too_large(self, runner, samples):
        result = runner.invoke(main, ["analyze", "--gate", "CNOT", "--mc-samples", str(samples)])
        assert result.exit_code == 5
        assert result.output == f"error: {samples} Monte-Carlo samples is past the cap of 1000000\n"


class TestCompileCommand:
    def test_bell_with_swap(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        out = str(tmp_path / "compiled.json")
        result = runner.invoke(
            main,
            ["compile", "--input", bell, "--target", "SWAP", "--out", out, "--json"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["verification"]["passed"] is True
        assert summary["verification"]["fidelity"] >= 1 - 1e-6
        doc = json.loads(Path(out).read_text())
        circ = parse_circuit_document(doc)
        assert circ.n == 4

    def test_r_max_is_a_cap(self, runner, tmp_path):
        # One CZ with this target needs 699 repetitions at epsilon 1e-6.
        logical = write_logical_cz(tmp_path)
        args = ["compile", "--input", logical, "--target", "NL(0.3,0.1,0.1)", "--json"]
        result = runner.invoke(main, args + ["--r-max", "50"])
        assert result.exit_code == 7
        assert "no repetition count <= 50" in result.output
        result = runner.invoke(main, args + ["--skip-verify"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["repetitions"] == 699

    @pytest.mark.parametrize("r_max", ["0", "-5"])
    def test_r_max_below_one_is_a_usage_error(self, runner, tmp_path, r_max):
        logical = write_logical_cz(tmp_path)
        result = runner.invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--r-max", r_max])
        assert result.exit_code == 2, result.output
        assert "--r-max" in result.output

    @pytest.mark.parametrize("target", ["SWAP", "NL(0.2,0.1,0.35)"])
    def test_cz_written_as_a_matrix_or_g_entry_compiles_as_named_cz(self, runner, tmp_path, target):
        forms = [
            {"name": "cz", "targets": [0, 2]},
            {"name": "matrix", "targets": [0, 2], "matrix": matrix_out(gate_library("CZ"))},
            g_entry([0, 2], a=np.diag([1, -1]), b=np.eye(2)),
        ]
        outputs = []
        for k, entry in enumerate(forms):
            doc = {"format_version": 1, "qubits": 3, "gates": [{"name": "h", "targets": [0]}, entry]}
            path = write_doc(tmp_path, doc, f"cz{k}.json")
            result = runner.invoke(main, ["compile", "--input", path, "--target", target, "--json"])
            assert result.exit_code == 0, result.output
            outputs.append(json.loads(result.output))
        assert outputs[0]["verification"]["mode"] == "decoded"
        assert outputs[0]["verification"]["passed"] is True
        assert outputs[0]["target_uses"] > 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_huge_logical_repeat_group_is_refused_quickly(self, runner, tmp_path):
        doc = {"format_version": 1, "qubits": 1,
               "gates": [{"repeat": 1_000_000, "gates": [{"name": "h", "targets": [0]}]}]}
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(doc))
        args = ["compile", "--input", str(path), "--target", "NL(0.2,0.1,0.35)", "--skip-verify"]
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 5, result.output
        assert "entry 0 repeats 1 op(s) 1000000 times" in result.output
        assert f"past the cap of {LOGICAL_FLAT_OP_CAP}" in result.output

    def test_an_epsilon_below_the_rounding_resolution_is_a_usage_error(self, runner, tmp_path):
        # r = 7138963 repetitions: the ZZ residual meets the angle budget, but
        # the folded product drifts the fidelity about 1e-9 away from 1.  Its
        # 14,277,927 flat ops resolve no |1 - F| below 4 * 2**-52 each.
        logical = write_logical_cz(tmp_path)
        out = tmp_path / "compiled.json"
        args = ["compile", "--input", logical, "--target", "NL(0,0,0.1)", "--epsilon", "4e-14", "--json"]
        result = runner.invoke(main, args + ["--skip-verify"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["repetitions"] == 7138963
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: --epsilon 4e-14 is below the verifier's rounding resolution 1.27e-08 "
            "for 14277927 flat ops\n"
        )
        assert not out.exists()

    def test_failed_verification_exits_8_after_writing_its_output(self, runner, tmp_path, monkeypatch):
        # An Rz(0.1) on physical qubit 0 after the compiled circuit: a
        # logical phase error of 1 - F about 2.5e-3.
        def perturbed(*args, **kwargs):
            compiled = compile_circuit(*args, **kwargs)
            compiled.physical.append(gate_library("rz", (0.1,)), (0,), name="rz", params=(0.1,))
            return compiled

        monkeypatch.setattr(matchgates.cli, "compile_circuit", perturbed)
        logical = write_logical_cz(tmp_path)
        out = str(tmp_path / "compiled.json")
        args = ["compile", "--input", logical, "--target", "SWAP", "--json", "--out", out]
        result = runner.invoke(main, args)
        assert result.exit_code == 8, result.output
        summary = json.loads(result.output)
        assert summary["verification"]["passed"] is False
        assert 1e-3 < 1 - summary["verification"]["fidelity"] < 1e-2
        assert summary["out"] == out
        assert load_circuit(out).flat_count() == summary["flat_op_count"]

    @pytest.mark.parametrize("epsilon,code", [("1e-15", 2), ("1.3e-14", 2), ("1.4e-14", 0)])
    def test_the_epsilon_floor_scales_with_the_flat_op_count(self, runner, tmp_path, epsilon, code):
        # H(0), CNOT(0, 2), Rz(0.3) on the SWAP target: 15 exact flat ops,
        # whose computed 1 - F is about 1.3e-15; the floor is 15 * 4 * 2**-52.
        doc = {"format_version": 1, "qubits": 3, "gates": [
            {"name": "h", "targets": [0]},
            {"name": "cnot", "targets": [0, 2]},
            {"name": "rz", "targets": [0], "params": [0.3]},
        ]}
        logical = write_doc(tmp_path, doc, "logical.json")
        physical = str(tmp_path / "physical.json")
        compiled = runner.invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", physical, "--skip-verify"])
        assert compiled.exit_code == 0, compiled.output
        refusal = "is below the verifier's rounding resolution 1.33e-14 for 15 flat ops"
        for args in (
            ["compile", "--input", logical, "--target", "SWAP", "--epsilon", epsilon],
            ["verify", "--logical", logical, "--physical", physical, "--epsilon", epsilon],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == code, result.output
            assert (refusal in result.output) == (code == 2)
            assert ("passed=True" in result.output) == (code == 0)

    def test_matchgate_target_exit_code(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        result = runner.invoke(main, ["compile", "--input", bell, "--target", "ISWAP"])
        assert result.exit_code == 3
        assert "det" in result.output

    def test_non_pp_target_exit_code(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        result = runner.invoke(main, ["compile", "--input", bell, "--target", "CNOT"])
        assert result.exit_code == 4

    def test_compiled_output_reverifies(self, runner, tmp_path):
        logical = write_logical_cz(tmp_path)
        out = str(tmp_path / "compiled.json")
        result = runner.invoke(
            main,
            ["compile", "--input", logical, "--target", "NL(0.2,0.1,0.35)", "--out", out, "--json"],
        )
        assert result.exit_code == 0, result.output
        verify_result = runner.invoke(
            main,
            ["verify", "--logical", logical, "--physical", out, "--epsilon", "1e-6", "--json"],
        )
        assert verify_result.exit_code == 0, verify_result.output
        report = json.loads(verify_result.output)
        assert report["passed"] is True

    def test_verify_past_twelve_logical_qubits_is_too_large(self, runner, tmp_path):
        doc = {"format_version": 1, "qubits": 13, "gates": [{"name": "cz", "targets": [5, 6]}]}
        path = write_doc(tmp_path, doc)
        result = runner.invoke(main, ["compile", "--input", path, "--target", "SWAP"])
        assert result.exit_code == 5
        assert "--skip-verify" in result.output
        result = runner.invoke(
            main, ["compile", "--input", path, "--target", "SWAP", "--skip-verify", "--json"]
        )
        assert result.exit_code == 0, result.output
        assert "verification" not in json.loads(result.output)

    def test_byte_identical_outputs(self, runner, tmp_path):
        logical = write_logical_cz(tmp_path)
        outputs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            result = runner.invoke(
                main,
                ["compile", "--input", logical, "--target", "NL(0.2,0.1,0.35)", "--out", out],
            )
            assert result.exit_code == 0
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]


class TestSimulateCommand:
    @pytest.mark.parametrize("backend,key", [("sv", "state"), ("ff", "z_expectations")])
    def test_huge_repeat_matches_one_application(self, runner, tmp_path, backend, key):
        h = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
        ghh = {"name": "g", "targets": [0, 1], "blocks": {"a": h, "b": h}}
        payloads = []
        for gates in (
            [ghh],
            [{"repeat": REPEAT_CAP, "gates": []}, {"repeat": REPEAT_CAP - 1, "gates": [ghh]}],
        ):
            doc = {"format_version": 1, "qubits": 2, "gates": gates}
            path = write_doc(tmp_path, doc, name=f"{len(gates)}.json")
            result = runner.invoke(
                main, ["simulate", "--input", path, "--backend", backend, "--json"]
            )
            assert result.exit_code == 0, result.output
            payloads.append(np.array(json.loads(result.output)[key]))
        assert np.max(np.abs(payloads[0] - payloads[1])) < 1e-6

    @pytest.mark.parametrize("backend,key", [("sv", "state"), ("ff", "z_expectations")])
    def test_huge_three_qubit_repeat_matches_one_application(self, runner, tmp_path, backend, key):
        # The body is an involution; sv folds it on its three qubits.
        h = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
        ghh = {"name": "g", "targets": [0, 1], "blocks": {"a": h, "b": h}}
        body = [{"name": "fswap", "targets": t} for t in ([0, 1], [1, 2], [0, 1])]
        payloads = []
        for gates in ([ghh, *body], [ghh, {"repeat": REPEAT_CAP - 1, "gates": body}]):
            doc = {"format_version": 1, "qubits": 3, "gates": gates}
            path = write_doc(tmp_path, doc, name=f"{len(gates)}.json")
            result = runner.invoke(main, ["simulate", "--input", path, "--backend", backend, "--json"])
            assert result.exit_code == 0, result.output
            payloads.append(np.array(json.loads(result.output)[key]))
        assert np.max(np.abs(payloads[0] - payloads[1])) < 1e-6

    def test_sv_refuses_a_wide_repeat_past_the_expansion_cap(self, runner, tmp_path):
        body = [{"name": "h", "targets": [q]} for q in range(7)]
        doc = {"format_version": 1, "qubits": 7, "gates": [{"repeat": REPEAT_CAP, "gates": body}]}
        result = runner.invoke(main, ["simulate", "--input", write_doc(tmp_path, doc), "--backend", "sv"])
        assert result.exit_code == 5
        assert "entry 0 repeats 7 op(s) on 7 qubits 10000000 times" in result.output

    @pytest.mark.parametrize("gate", [{"name": "z"}, {"name": "s"}, {"name": "rz", "params": [0.7]}])
    @pytest.mark.parametrize("initial", ["0", "1"])
    def test_one_qubit_register_ff_matches_sv(self, runner, tmp_path, gate, initial):
        doc = {"format_version": 1, "qubits": 1, "gates": [{**gate, "targets": [0]}]}
        path = write_doc(tmp_path, doc)
        out = {}
        for backend in ("sv", "ff"):
            result = runner.invoke(
                main,
                ["simulate", "--input", path, "--backend", backend, "--initial", initial, "--json"],
            )
            assert result.exit_code == 0, result.output
            out[backend] = json.loads(result.output)
        amp0, amp1 = (complex(*entry) for entry in out["sv"]["state"])
        assert out["ff"]["z_expectations"] == pytest.approx([abs(amp0) ** 2 - abs(amp1) ** 2])

    def test_one_qubit_register_ff_refuses_x(self, runner, tmp_path):
        doc = {"format_version": 1, "qubits": 1, "gates": [{"name": "x", "targets": [0]}]}
        result = runner.invoke(
            main, ["simulate", "--input", write_doc(tmp_path, doc), "--backend", "ff"]
        )
        assert result.exit_code == 6
        assert "op 0 (x on (0,)) is not a matchgate" in result.output

    def test_ff_qubit_cap(self, runner, tmp_path):
        doc = {"format_version": 1, "qubits": 2000, "gates": []}
        result = runner.invoke(
            main, ["simulate", "--input", write_doc(tmp_path, doc), "--backend", "ff"]
        )
        assert result.exit_code == 5
        assert "outside supported range" in result.output

    def test_sv_bell_histogram(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        result = runner.invoke(
            main,
            ["simulate", "--input", bell, "--backend", "sv", "--shots", "10000", "--seed", "4", "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        counts = payload["counts"]
        assert set(counts) == {"00", "11"}
        assert abs(counts["00"] - 5000) < 3 * np.sqrt(2500)

    def test_strict_requires_seed(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        result = runner.invoke(
            main, ["simulate", "--input", bell, "--shots", "10", "--strict"]
        )
        assert result.exit_code == 2

    def test_ff_refusal_names_op(self, runner, tmp_path):
        doc = {
            "format_version": 1,
            "qubits": 3,
            "gates": [
                {"name": "fswap", "targets": [0, 1]},
                {"name": "swap", "targets": [1, 2]},
            ],
            "metadata": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--input", str(path), "--backend", "ff"])
        assert result.exit_code == 6
        assert "op 1" in result.output

    def test_ff_matches_sv_marginals(self, runner, tmp_path):
        rng = np.random.default_rng(82)
        circ = random_matchgate_circuit(rng, 5, 20)
        path = tmp_path / "mg.json"
        path.write_text(dumps_document(emit_circuit_document(circ)))
        ff = runner.invoke(main, ["simulate", "--input", str(path), "--backend", "ff", "--json"])
        sv = runner.invoke(main, ["simulate", "--input", str(path), "--backend", "sv", "--json"])
        assert ff.exit_code == 0 and sv.exit_code == 0
        z = json.loads(ff.output)["z_expectations"]
        amps = np.array([complex(re, im) for re, im in json.loads(sv.output)["state"]])
        probs = np.abs(amps) ** 2
        for k in range(5):
            p1 = probs.reshape([2] * 5).take(1, axis=k).sum()
            assert z[k] == pytest.approx(1 - 2 * p1, abs=1e-9)

    def test_sv_text_lists_no_amplitude_that_rounds_to_zero(self, runner, tmp_path):
        # 10**7 repeats of G(H, H) leave |11> at about -1.1e-10: its 9
        # decimals are zero, so it has no row; --json keeps every amplitude.
        h = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
        ghh = {"name": "g", "targets": [0, 1], "blocks": {"a": h, "b": h}}
        doc = {"format_version": 1, "qubits": 2, "gates": [{"repeat": REPEAT_CAP, "gates": [ghh]}]}
        path = write_doc(tmp_path, doc)
        result = runner.invoke(main, ["simulate", "--input", path, "--backend", "sv"])
        assert result.exit_code == 0, result.output
        (line,) = result.output.splitlines()
        assert line.startswith("|00>  +")
        result = runner.invoke(main, ["simulate", "--input", path, "--backend", "sv", "--json"])
        state = json.loads(result.output)["state"]
        assert len(state) == 4 and 0 < abs(state[3][0]) < 5e-10

    def test_ff_refuses_a_non_matchgate_in_a_later_chunk_by_its_op(self, runner, tmp_path):
        # Op 300 is in the parser's second chunk and the backend's second.
        rng = np.random.default_rng(133)
        gates = [g_entry([q % 3, q % 3 + 1], *_matchgate_blocks(rng)) for q in range(400)]
        gates[300] = g_entry([1, 2], ((1, 0), (0, -1)))
        doc = {"format_version": 1, "qubits": 4, "gates": gates}
        result = runner.invoke(main, ["simulate", "--input", write_doc(tmp_path, doc), "--backend", "ff"])
        assert result.exit_code == 6
        assert result.output.startswith("error: op 300 (g on (1, 2)) is not a matchgate: det(A)/det(B) = -1.000000")

    def test_deterministic_output(self, runner, tmp_path):
        bell = write_bell(tmp_path)
        args = ["simulate", "--input", bell, "--shots", "100", "--seed", "5", "--json"]
        r1 = runner.invoke(main, args)
        r2 = runner.invoke(main, args)
        assert r1.output == r2.output


@pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
def test_compile_and_verify_refuse_an_epsilon_that_is_not_finite_and_positive(runner, tmp_path, epsilon):
    logical = write_logical_cz(tmp_path)
    out = str(tmp_path / "compiled.json")
    result = runner.invoke(main, ["compile", "--input", logical, "--target", "SWAP", "--out", out])
    assert result.exit_code == 0, result.output
    for args in (
        ["compile", "--input", logical, "--target", "SWAP"],
        ["verify", "--logical", logical, "--physical", out],
    ):
        result = runner.invoke(main, args + ["--epsilon", epsilon, "--json"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and "--epsilon" in result.output
    cz = parse_circuit_document(json.loads(Path(logical).read_text()))
    with pytest.raises(ParseError, match="--epsilon"):
        compile_circuit(cz, gate_library("SWAP"), float(epsilon))


class TestVerifyCommand:
    def test_fig_1b_circuit(self, runner, tmp_path):
        # Hand-written physical document for the exact CZ construction.
        physical = {
            "format_version": 1,
            "qubits": 4,
            "gates": [
                {"name": "g", "targets": [1, 2],
                 "blocks": {"a": [[[x.real, 0], [y.real, 0]] for x, y in zip(H[0], H[1])] and
                            [[[H[i, j].real, 0] for j in range(2)] for i in range(2)],
                            "b": [[[H[i, j].real, 0] for j in range(2)] for i in range(2)]}},
                {"name": "swap", "targets": [1, 2]},
                {"name": "g", "targets": [1, 2],
                 "blocks": {"a": [[[X[i, j].real, 0] for j in range(2)] for i in range(2)],
                            "b": [[[X[i, j].real, 0] for j in range(2)] for i in range(2)]}},
                {"name": "g", "targets": [1, 2],
                 "blocks": {"a": [[[H[i, j].real, 0] for j in range(2)] for i in range(2)],
                            "b": [[[H[i, j].real, 0] for j in range(2)] for i in range(2)]}},
            ],
            "metadata": {},
        }
        phys_path = tmp_path / "fig1b.json"
        phys_path.write_text(json.dumps(physical))
        logical = write_logical_cz(tmp_path)
        result = runner.invoke(
            main,
            ["verify", "--logical", logical, "--physical", str(phys_path), "--epsilon", "1e-9", "--json"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["passed"] is True

    def test_corrupted_circuit_detected(self, runner, tmp_path):
        logical_path = write_logical_cz(tmp_path)
        logical = parse_circuit_document(json.loads(Path(logical_path).read_text()))
        comp = compile_circuit(logical, gate_library("NL", (0.2, 0.1, 0.3)), 1e-6)
        doc = emit_circuit_document(comp.physical)
        good = tmp_path / "good.json"
        good.write_text(dumps_document(doc))
        # Corrupt: perturb one rz-correction block by 0.1.
        bad_doc = json.loads(dumps_document(doc))
        bad_circ = parse_circuit_document(bad_doc)
        bad_circ.append(build_pp(np.diag([np.exp(0.1j), np.exp(-0.1j)]),
                                 np.diag([np.exp(0.1j), np.exp(-0.1j)])), (1, 2))
        bad = tmp_path / "bad.json"
        bad.write_text(dumps_document(emit_circuit_document(bad_circ)))
        ok = runner.invoke(main, ["verify", "--logical", logical_path, "--physical", str(good), "--epsilon", "1e-6", "--json"])
        corrupted = runner.invoke(main, ["verify", "--logical", logical_path, "--physical", str(bad), "--epsilon", "1e-6", "--json"])
        assert ok.exit_code == 0
        f_good = json.loads(ok.output)["fidelity"]
        f_bad = json.loads(corrupted.output)["fidelity"]
        assert f_good - f_bad > 1e-3
        assert corrupted.exit_code == 8  # failed verification

    def test_help_lists_no_sampling_options(self, runner):
        result = runner.invoke(main, ["verify", "--help"])
        assert result.exit_code == 0
        assert "--samples" not in result.output and "--seed" not in result.output

    @pytest.mark.parametrize("side", ["physical", "logical"])
    def test_non_unitary_op_is_a_usage_error_naming_the_op(self, runner, tmp_path, side):
        # Unchecked, 1.001 I passes with fidelity 1.002; it is refused at load.
        h = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
        docs = {
            "logical": {"format_version": 1, "qubits": 2, "gates": [{"name": "h", "targets": [0]}]},
            "physical": {
                "format_version": 1,
                "qubits": 4,
                "gates": [{"name": "g", "targets": [0, 1], "blocks": {"a": h, "b": h}}],
            },
        }
        targets = [2, 3] if side == "physical" else [1]
        scaled = [[[1.001 * (i == j), 0.0] for j in range(2 ** len(targets))] for i in range(2 ** len(targets))]
        docs[side]["gates"].append({"name": "matrix", "targets": targets, "matrix": scaled})
        args = ["verify", "--json"]
        for name, doc in docs.items():
            args += [f"--{name}", write_doc(tmp_path, doc, f"{name}.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {side} circuit: gates[1]: matrix is not unitary within 1e-09\n"

    @pytest.mark.parametrize("side", ["logical", "physical"])
    def test_load_refusal_names_the_document(self, runner, tmp_path, side):
        docs = {
            "logical": {"format_version": 1, "qubits": 1, "gates": []},
            "physical": {"format_version": 1, "qubits": 2, "gates": []},
        }
        docs[side]["gates"].append({"name": "g", "targets": [0]})
        args = ["verify"]
        for name, doc in docs.items():
            args += [f"--{name}", write_doc(tmp_path, doc, f"{name}.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {side} circuit: gates[0]: gate 'g' needs blocks {{a, b}}\n"

    def test_size_mismatch(self, runner, tmp_path):
        logical = write_logical_cz(tmp_path)
        result = runner.invoke(
            main, ["verify", "--logical", logical, "--physical", logical]
        )
        assert result.exit_code == 2
        assert result.output == "error: physical circuit has 2 qubits; expected 4 for 2 logical qubits\n"

    @pytest.mark.parametrize("logical_qubits", [13, 8000])
    def test_past_twelve_logical_qubits_is_too_large_in_a_short_message(self, runner, tmp_path, logical_qubits):
        args = ["verify"]
        for side, n in (("logical", logical_qubits), ("physical", 2 * logical_qubits)):
            doc = {"format_version": 1, "qubits": n, "gates": []}
            args += [f"--{side}", write_doc(tmp_path, doc, f"{side}.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 5, result.output
        assert len(result.output) < 300
        assert f"composes a 2^{logical_qubits} x 2^{logical_qubits} logical block" in result.output
        # Skipping verification is advice for compile, not for verify.
        assert "--skip-verify" not in result.output


class TestRepeatCap:
    """A 'repeat' count past REPEAT_CAP is refused at parse, with one text
    for every command and exit 5; at the cap a group still folds exactly."""

    H_ROWS = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
    REFUSAL = f"gates[1]: 'repeat' count {REPEAT_CAP + 1} is past the cap of {REPEAT_CAP}"

    def test_every_command_refuses_one_past_the_cap(self, runner, tmp_path):
        gates = [{"name": "h", "targets": [0]}, {"repeat": REPEAT_CAP + 1, "gates": [{"name": "cz", "targets": [0, 1]}]}]
        logical = write_doc(tmp_path, {"format_version": 1, "qubits": 2, "gates": gates}, "logical.json")
        physical = write_doc(tmp_path, {"format_version": 1, "qubits": 4, "gates": []}, "physical.json")
        commands = {
            "sv": ["simulate", "--input", logical, "--backend", "sv"],
            "ff": ["simulate", "--input", logical, "--backend", "ff"],
            "compile": ["compile", "--input", logical, "--target", "SWAP"],
            "verify": ["verify", "--logical", logical, "--physical", physical],
        }
        for name, args in commands.items():
            result = runner.invoke(main, args)
            assert result.exit_code == 5, (name, result.output)
            side = "logical circuit: " if name == "verify" else ""
            assert result.output == f"error: {side}{self.REFUSAL}\n", name

    def test_an_earlier_fault_in_a_queued_entry_is_refused_first(self):
        bad = {"name": "matrix", "targets": [0], "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}
        doc = {"format_version": 1, "qubits": 1, "gates": [bad, {"repeat": REPEAT_CAP + 1, "gates": []}]}
        with pytest.raises(ParseError, match=r"^gates\[0\]: matrix is not unitary"):
            parse_circuit_document(doc)
        doc["gates"][0] = {"name": "h", "targets": [0]}
        with pytest.raises(TooLarge, match=r"^gates\[1\]: 'repeat' count 10000001 is past the cap of 10000000$"):
            parse_circuit_document(doc)

    def test_repeated_segment_refuses_one_past_the_cap(self):
        op = CircuitOp(H, (0,))
        assert RepeatedSegment((op,), REPEAT_CAP).count == REPEAT_CAP
        with pytest.raises(TooLarge, match="'repeat' count 10000001 is past the cap of 10000000"):
            RepeatedSegment((op,), REPEAT_CAP + 1)

    def test_r_max_past_the_cap_is_a_usage_error(self, runner, tmp_path):
        args = ["compile", "--input", write_logical_cz(tmp_path), "--target", "SWAP", "--r-max"]
        assert runner.invoke(main, args + [str(REPEAT_CAP)]).exit_code == 0
        result = runner.invoke(main, args + [str(REPEAT_CAP + 1)])
        assert result.exit_code == 2, result.output
        assert "--r-max" in result.output

    @pytest.mark.parametrize("count", [REPEAT_CAP, REPEAT_CAP - 1])
    @pytest.mark.parametrize("backend,gate,key", [
        ("sv", {"name": "h", "targets": [0]}, "state"),
        ("ff", {"name": "g", "targets": [0, 1], "blocks": {"a": H_ROWS, "b": H_ROWS}}, "z_expectations"),
    ])
    def test_a_group_at_the_cap_matches_its_parity(self, runner, tmp_path, count, backend, gate, key):
        # H and G(H, H) are involutions: the group is one gate or none.
        payloads = []
        for name, gates in (("plain", [gate] * (count % 2)), ("group", [{"repeat": count, "gates": [gate]}])):
            doc = {"format_version": 1, "qubits": 2, "gates": gates}
            path = write_doc(tmp_path, doc, f"{name}.json")
            result = runner.invoke(main, ["simulate", "--input", path, "--backend", backend, "--json"])
            assert result.exit_code == 0, result.output
            payloads.append(np.array(json.loads(result.output)[key]))
        assert np.max(np.abs(payloads[0] - payloads[1])) < 1e-8


def test_the_pipeline_reads_rows_not_op_views(runner, tmp_path, monkeypatch):
    # Both simulators, the compiler and its verify read a circuit's rows
    # from its columns over its entry spans; none makes a CircuitOp view.
    g = {"name": "g", "targets": [0, 1], "blocks": {"a": TestRepeatCap.H_ROWS, "b": TestRepeatCap.H_ROWS}}
    body = [{"name": "rz", "targets": [2], "params": [0.4]}, {**g, "targets": [2, 1]}]
    circuit = write_doc(tmp_path, {"format_version": 1, "qubits": 3, "gates": [g, {"repeat": 3, "gates": body}]})
    gates = [{"name": "h", "targets": [0]},
             {"repeat": 2, "gates": [{"name": "cnot", "targets": [0, 2]}, {"name": "swap", "targets": [1, 2]}]}]
    logical = write_doc(tmp_path, {"format_version": 1, "qubits": 3, "gates": gates}, "logical.json")
    commands = [["simulate", "--input", circuit, "--backend", backend, "--json"] for backend in ("sv", "ff")]
    commands.append(["compile", "--input", logical, "--target", "NL(0.2,0.1,0.35)", "--json"])
    expected = [runner.invoke(main, args).output for args in commands]

    def no_views(*args):
        raise AssertionError("an op view was made")

    monkeypatch.setattr(Columns, "ops", no_views)
    for args, output in zip(commands, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == output
    assert json.loads(expected[2])["verification"]["passed"] is True


class TestLoadCircuitPausesTheCollector:
    """``load_circuit`` decodes and parses with the cyclic collector paused,
    and the caller finds the collector as it left it on every exit."""

    H_ROWS = TestRepeatCap.H_ROWS

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def document(tmp_path, case):
        gates = [{"name": "h", "targets": [0]}]
        if case == "malformed entry":
            gates = [{"name": "h", "targets": []}]
        if case == "repeat past the cap":
            gates = [{"repeat": REPEAT_CAP + 1, "gates": gates}]
        path = write_doc(tmp_path, {"format_version": 1, "qubits": 1, "gates": gates})
        if case == "unreadable path":
            return str(tmp_path / "missing.json")
        if case == "invalid JSON":
            Path(path).write_text('{"format_version": 1, "qubits":')
        return path

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case,refusal", [
        ("loads", None),
        ("malformed entry", r"^gates\[0\]: missing or empty 'targets'$"),
        ("repeat past the cap", r"^gates\[0\]: 'repeat' count 10000001 is past the cap"),
        ("unreadable path", r"^cannot read circuit .*missing\.json"),
        ("invalid JSON", r"^cannot read circuit .*doc\.json"),
    ])
    def test_the_callers_collector_state_is_restored(self, tmp_path, collector, enabled, case, refusal):
        path = self.document(tmp_path, case)
        (gc.enable if enabled else gc.disable)()
        if refusal is None:
            assert load_circuit(path).rows == 1
        else:
            error = TooLarge if case == "repeat past the cap" else ParseError
            with pytest.raises(error, match=refusal):
                load_circuit(path)
        assert gc.isenabled() is enabled

    def test_a_2000_entry_document_loads_without_a_collection(self, tmp_path, collector):
        gates = [
            {"name": "g", "targets": [k % 59, k % 59 + 1], "blocks": {"a": self.H_ROWS, "b": self.H_ROWS}}
            for k in range(2000)
        ]
        path = write_doc(tmp_path, {"format_version": 1, "qubits": 60, "gates": gates})
        del gates
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.enable()
        gc.callbacks.append(record)
        try:
            circuit = load_circuit(path)
        finally:
            gc.callbacks.remove(record)
        assert circuit.rows == 2000
        assert started == []


def _matchgate_blocks(rng):
    """The blocks (A, B) of a random matchgate."""
    g = random_matchgate(rng)
    return g[np.ix_([0, 3], [0, 3])], g[np.ix_([1, 2], [1, 2])]


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def one_gate_doc(**entry):
    return {
        "format_version": 1,
        "qubits": 2,
        "gates": [{"name": "rz", "targets": [0], "params": [0.3], **entry}],
    }


class TestMalformedInputExitCodes:
    @pytest.mark.parametrize(
        "doc,match",
        [
            (one_gate_doc(targets=["a"]), "targets"),
            (one_gate_doc(targets=[0.5]), "targets"),
            (one_gate_doc(targets=[0, 1, 2]), "1 or 2 qubits"),
            (one_gate_doc(targets=[5]), r"gates\[0\].*out of range"),
            (one_gate_doc(params="pi"), "params"),
            (one_gate_doc(params=[]), r"gates\[0\].*parameter"),
            (one_gate_doc(params=["pi/0"]), "angle"),
            (one_gate_doc(params=[float("nan")]), "angle"),
            (one_gate_doc(tag=[1]), "tag"),
            ({**one_gate_doc(), "metadata": [1]}, "metadata"),
            ({**one_gate_doc(), "gates": 5}, "list"),
            ({**one_gate_doc(), "qubits": True}, "qubits"),
        ],
    )
    def test_parse_error(self, runner, tmp_path, doc, match):
        with pytest.raises(ParseError, match=match):
            parse_circuit_document(doc)
        result = runner.invoke(main, ["simulate", "--input", write_doc(tmp_path, doc)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:")

    @pytest.mark.parametrize("shots", ["-3", str(2**70)])
    @pytest.mark.parametrize("backend", ["sv", "ff"])
    def test_bad_shot_count_is_a_usage_error(self, runner, tmp_path, backend, shots):
        path = write_doc(tmp_path, one_gate_doc())
        result = runner.invoke(
            main, ["simulate", "--input", path, "--backend", backend, "--shots", shots]
        )
        assert result.exit_code == 2
        assert "shots must be an integer in [1, 2**63)" in result.output

    @pytest.mark.parametrize("backend", ["sv", "ff"])
    def test_non_unitary_op_is_a_usage_error_naming_the_op(self, runner, tmp_path, backend):
        doc = one_gate_doc()
        doubled = [[[2.0 * (i == j), 0.0] for j in range(4)] for i in range(4)]
        doc["gates"].append({"name": "matrix", "targets": [0, 1], "matrix": doubled})
        result = runner.invoke(
            main, ["simulate", "--input", write_doc(tmp_path, doc), "--backend", backend]
        )
        assert result.exit_code == 2
        assert result.output == "error: gates[1]: matrix is not unitary within 1e-09\n"

    @pytest.mark.parametrize("targets", [[0], [0, 1]])
    @pytest.mark.parametrize("command", ["simulate sv", "simulate ff", "compile", "verify logical", "verify physical"])
    def test_non_unitary_matrix_entry_gets_one_refusal_from_every_command(self, runner, tmp_path, command, targets):
        # 1.001 I: refused where the document is parsed, so every command
        # that reads it says the same.
        dim = 2 ** len(targets)
        scaled = [[[1.001 * (i == j), 0.0] for j in range(dim)] for i in range(dim)]
        bad = write_doc(tmp_path, {"format_version": 1, "qubits": 2, "gates": [
            {"name": "matrix", "targets": targets, "matrix": scaled}, {"name": "h", "targets": [1]}]}, "bad.json")
        prefix = ""
        if command.startswith("simulate"):
            args = ["simulate", "--input", bad, "--backend", command.split()[1]]
        elif command == "compile":
            args = ["compile", "--input", bad, "--target", "SWAP"]
        else:
            side = command.split()[1]
            other = write_doc(tmp_path, {"format_version": 1, "qubits": 4 if side == "logical" else 1, "gates": []})
            logical, physical = (bad, other) if side == "logical" else (other, bad)
            args = ["verify", "--logical", logical, "--physical", physical]
            prefix = f"{side} circuit: "
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {prefix}gates[0]: matrix is not unitary within 1e-09\n"

    @pytest.mark.parametrize("command", ["analyze", "compile"])
    def test_non_unitary_matrix_gate_file_is_refused_at_load(self, runner, tmp_path, command):
        # The identity with one entry at 1 + 1e-7: refused as the gate file
        # is read, naming its key, by both commands that read one.
        rows = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        rows[2][2][0] += 1e-7
        gate = write_doc(tmp_path, {"matrix": rows}, "gate.json")
        with pytest.raises(ParseError, match=r"^matrix is not unitary within 1e-09$"):
            parse_gate_spec(gate)
        if command == "analyze":
            args = ["analyze", "--gate", gate]
        else:
            args = ["compile", "--input", write_logical_cz(tmp_path), "--target", gate]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output == "error: matrix is not unitary within 1e-09\n"

    def test_bad_initial_label(self, runner, tmp_path):
        path = write_doc(tmp_path, one_gate_doc())
        for label in ("012", "0"):
            result = runner.invoke(main, ["simulate", "--input", path, "--initial", label])
            assert result.exit_code == 2

    def test_negative_seed(self, runner, tmp_path):
        path = write_doc(tmp_path, one_gate_doc())
        result = runner.invoke(main, ["simulate", "--input", path, "--shots", "3", "--seed", "-1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("form", ["analyze blocks", "analyze matrix", "logical g", "logical matrix"])
    def test_slightly_non_unitary_input_is_a_usage_error(self, runner, tmp_path, form):
        # One entry is 1.0000001 instead of 1: 1e-7 past unitarity, over the fixed 1e-9.
        one, zero, bad = [1.0, 0.0], [0.0, 0.0], [1.0000001, 0.0]
        a, eye = [[bad, zero], [zero, one]], [[one, zero], [zero, one]]
        command, entry = form.split()
        if command == "analyze":
            wide = [[one if i == j else zero for j in range(4)] for i in range(4)]
            wide[0][0] = bad
            doc = {"blocks": {"a": a, "b": eye}} if entry == "blocks" else {"matrix": wide}
            args = ["analyze", "--gate", write_doc(tmp_path, doc)]
        else:
            gate = {"name": "g", "targets": [0, 1], "blocks": {"a": a, "b": eye}}
            if entry == "matrix":
                gate = {"name": "matrix", "targets": [1], "matrix": a}
            doc = {"format_version": 1, "qubits": 2, "gates": [{"name": "cz", "targets": [0, 1]}, gate]}
            args = ["compile", "--input", write_doc(tmp_path, doc), "--target", "SWAP"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error:") and "Traceback" not in result.output
        assert "unitary" in result.output

    @pytest.mark.parametrize("command", ["analyze", "compile"])
    def test_tolerance_flags_are_unknown_options(self, runner, tmp_path, command):
        args = ["analyze", "--gate", "CNOT"]
        if command == "compile":
            args = ["compile", "--input", write_logical_cz(tmp_path), "--target", "SWAP"]
        for flag in ("--tol-unitary", "--tol-classify"):
            result = runner.invoke(main, args + [flag, "1e-6"])
            assert result.exit_code == 2
            assert f"No such option '{flag}'" in result.output

    def test_spec_with_wrong_arity(self, runner):
        with pytest.raises(ParseError):
            parse_gate_spec("RZ")
        result = runner.invoke(main, ["analyze", "--gate", "NL(1)"])
        assert result.exit_code == 2


def valid_document() -> dict:
    """A small document that exercises every gate-entry form."""
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return {
        "format_version": 1,
        "qubits": 3,
        "gates": [
            {"name": "rz", "targets": [0], "params": ["pi/4"]},
            {"name": "fswap", "targets": [0, 1]},
            {"name": "g", "targets": [1, 2], "blocks": {"a": eye, "b": eye}, "tag": "t"},
            {"name": "matrix", "targets": [2], "matrix": eye},
            {"repeat": 2, "gates": [{"name": "iswap", "targets": [1, 2]}]},
        ],
        "metadata": {},
    }


# JSON values; integers stay small so that a mutated document that happens
# to be valid stays cheap to simulate (qubits 21 still reaches the sv cap).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 21)
    | st.floats()
    | st.sampled_from(["pi", "pi/0", "-pi/2", "x", "", "1e999", "rz", "h", "swap", "g", "matrix"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "name", "targets", "x"]), inner, max_size=3),
    max_leaves=10,
)
DOC_FIELDS = ("format_version", "qubits", "gates", "metadata")
GATE_FIELDS = ("name", "targets", "params", "blocks", "matrix", "repeat", "gates", "tag")


@st.composite
def mutated_documents(draw, base=valid_document, values=JSON_VALUES):
    """``base()`` with one to three fields replaced by ``values`` or deleted,
    at the top level, in a gate entry or in a repeat body."""
    doc = base()
    for _ in range(draw(st.integers(1, 3))):
        container, fields = doc, DOC_FIELDS
        where = draw(st.sampled_from(["doc", "gate", "body"]))
        if where != "doc":
            gates = doc.get("gates")
            if not isinstance(gates, list) or not gates:
                continue
            container = draw(st.sampled_from(gates))
            if where == "body" and isinstance(container, dict):
                body = container.get("gates")
                if not isinstance(body, list) or not body:
                    continue
                container = draw(st.sampled_from(body))
            if not isinstance(container, dict):
                continue
            fields = GATE_FIELDS
        key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(values)
    return doc


FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(doc=mutated_documents() | JSON_VALUES)
def test_parse_circuit_document_only_raises_parse_errors(doc):
    try:
        circuit = parse_circuit_document(doc)
    except ParseError:
        return
    assert circuit.n >= 1


@FUZZ
@given(
    doc=mutated_documents(),
    backend=st.sampled_from(["sv", "ff"]),
    shots=st.integers(-2, 20),
)
def test_simulate_maps_malformed_input_to_documented_exit_codes(
    tmp_path_factory, doc, backend, shots
):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    args = ["simulate", "--input", str(path), "--backend", backend]
    args += ["--shots", str(shots), "--seed", "1", "--json"]
    result = CliRunner().invoke(main, args)
    # 2 parse/usage, 5 too large for sv, 6 ff refusal; never 1 or a traceback.
    assert result.exit_code in (0, 2, 5, 6), (result.exit_code, result.output)
    if result.exception is not None:
        assert isinstance(result.exception, SystemExit), result.exception
    if result.exit_code:
        assert result.output.startswith("error:"), result.output
    else:
        payload = json.loads(result.output)
        if shots > 0:
            assert sum(payload["counts"].values()) == shots


def valid_logical_document() -> dict:
    """Three logical qubits: one-qubit gates, CZ, CNOT in a repeat group and
    a routed non-adjacent SWAP."""
    return {
        "format_version": 1,
        "qubits": 3,
        "gates": [
            {"name": "h", "targets": [0]},
            {"name": "cz", "targets": [0, 1]},
            {"name": "rz", "targets": [2], "params": ["pi/8"]},
            {"repeat": 2, "gates": [{"name": "cnot", "targets": [2, 1]}]},
            {"name": "swap", "targets": [0, 2]},
        ],
        "metadata": {},
    }


# As JSON_VALUES, but a logical qubit count stays at most 6 (verify in
# milliseconds) or reaches the refusals past 12 and past 16; 7 to 12 logical
# qubits cost seconds to gigabytes to verify.
LOGICAL_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.sampled_from([13, 17])
    | st.floats()
    | st.sampled_from(["pi", "pi/0", "x", "", "h", "cz", "cnot", "swap", "iswap", "g", "matrix"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "name", "targets", "x"]), inner, max_size=3),
    max_leaves=10,
)
# Exit codes a well-formed failure of compile or verify maps to; 1 is an
# internal error and never the answer to a bad document.
COMPILE_EXIT_CODES = (0, 2, 3, 4, 5, 7, 8)
CLI_FUZZ = settings(FUZZ, max_examples=30)


def compiled_logical_document() -> dict:
    """``valid_logical_document`` compiled with the SWAP target."""
    logical = parse_circuit_document(valid_logical_document())
    return emit_circuit_document(compile_circuit(logical, gate_library("SWAP"), 1e-6).physical)


def assert_documented_exit(result, codes):
    assert result.exit_code in codes, (result.exit_code, result.output)
    if result.exception is not None:
        assert isinstance(result.exception, SystemExit), result.exception
    if result.exit_code not in (0, 8):
        assert result.output.startswith("error:"), result.output


@CLI_FUZZ
@example(
    doc={**valid_logical_document(), "gates": [{"name": "iswap", "targets": [0, 1]}]}, target="SWAP"
)
@given(
    doc=mutated_documents(valid_logical_document, LOGICAL_VALUES),
    target=st.sampled_from(["SWAP", "NL(0.2,0.1,0.35)", "NL(0.3,0.1,0.1)", "ISWAP", "CNOT"]),
)
def test_compile_maps_malformed_logical_documents_to_documented_exit_codes(
    tmp_path_factory, doc, target
):
    path = tmp_path_factory.getbasetemp() / "fuzz_logical.json"
    path.write_text(json.dumps(doc))
    args = ["compile", "--input", str(path), "--target", target, "--r-max", "64", "--json"]
    assert_documented_exit(CliRunner().invoke(main, args), COMPILE_EXIT_CODES)


@CLI_FUZZ
@given(
    side_doc=st.tuples(st.just("logical"), mutated_documents(valid_logical_document, LOGICAL_VALUES))
    | st.tuples(st.just("physical"), mutated_documents(compiled_logical_document, LOGICAL_VALUES)),
)
def test_verify_maps_malformed_documents_to_documented_exit_codes(tmp_path_factory, side_doc):
    side, doc = side_doc
    docs = {"logical": valid_logical_document(), "physical": compiled_logical_document(), side: doc}
    args = ["verify", "--json"]
    for name, content in docs.items():
        path = tmp_path_factory.getbasetemp() / f"fuzz_{name}.json"
        path.write_text(json.dumps(content))
        args += [f"--{name}", str(path)]
    assert_documented_exit(CliRunner().invoke(main, args), COMPILE_EXIT_CODES)


def valid_gate_documents() -> list[dict]:
    """One gate document of each form ``gate_from_document`` reads."""
    h = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]
    angles = {"theta": 0.1, "alpha": "pi/4", "gamma": 0, "phi": 0.3, "mu": 0, "nu": 0, "beta": "pi/8"}
    return [
        {"matrix": matrix_out(gate_library("ISWAP"))},
        {"matrix": h},
        {"blocks": {"a": h, "b": h}},
        {"pp_params": angles},
        {"name": "NL", "params": [0.1, "pi/8", 0.3]},
    ]


GATE_DOC_FIELDS = ("matrix", "blocks", "pp_params", "name", "params", "a", "b", "theta", "beta")


@st.composite
def mutated_gate_documents(draw):
    """A valid gate document with one to three fields, nested fields, list
    entries or matrix rows replaced or deleted."""
    doc = valid_gate_documents()[draw(st.integers(0, len(valid_gate_documents()) - 1))]
    for _ in range(draw(st.integers(1, 3))):
        containers = [doc] + [v for v in doc.values() if isinstance(v, (dict, list))]
        container = draw(st.sampled_from(containers))
        if isinstance(container, list):
            if not container:
                continue
            index = draw(st.integers(0, len(container) - 1))
            row = container[index]
            if isinstance(row, list) and row and draw(st.booleans()):
                container, index = row, draw(st.integers(0, len(row) - 1))
            if draw(st.booleans()):
                container.pop(index)
            else:
                container[index] = draw(JSON_VALUES)
            continue
        key = draw(st.sampled_from(GATE_DOC_FIELDS))
        if draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(JSON_VALUES)
    return doc


@FUZZ
@given(doc=mutated_gate_documents() | JSON_VALUES)
def test_gate_documents_only_raise_parse_or_unitarity_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_gate.json"
    path.write_text(json.dumps(doc))
    for read in (lambda: gate_from_document(doc), lambda: parse_gate_spec(str(path))):
        try:
            gate = read()
        except (ParseError, NonUnitaryInput):
            continue
        assert gate.shape in ((2, 2), (4, 4))


@FUZZ
@given(doc=mutated_gate_documents())
def test_analyze_maps_malformed_gate_files_to_exit_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_gate.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["analyze", "--gate", str(path), "--json"])
    assert result.exit_code in (0, 2), (result.exit_code, result.output)
    if result.exception is not None:
        assert isinstance(result.exception, SystemExit), result.exception
    if result.exit_code:
        assert result.output.startswith("error:"), result.output
    else:
        assert json.loads(result.output)["gate"] == str(path)


def test_cli_import_loads_no_scipy():
    # The package's runtime dependencies are numpy and click only.
    src = os.path.dirname(os.path.dirname(matchgates.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, matchgates.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
