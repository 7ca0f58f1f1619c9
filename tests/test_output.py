"""Command output: the stacked emitter against the per-op oracle in util.py,
and the JSON writer every command goes through.

The emitter must give the same document as the oracle, float for float;
the writer must give text that ``json.loads`` reads back as the payload
and as ``json.dumps(payload, indent=2, sort_keys=True)`` is read.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import matchgates.cli
from matchgates.circuits import Circuit, CircuitOp, RepeatedSegment
from matchgates.cli import main
from matchgates.gates import gate_library, rz
from matchgates.io import dumps_document, emit_circuit_document
from util import haar_unitary, per_op_emit, random_matchgate, random_nonmatchgate_pp, random_pp

# (name, arity) of library gates by qubit count.
LIBRARY = {
    1: (("h", 0), ("X", 0), ("s", 0), ("t", 0), ("i", 0), ("rx", 1), ("ry", 1), ("RZ", 1)),
    2: (("swap", 0), ("iswap", 0), ("fswap", 0), ("cz", 0), ("CNOT", 0), ("cx", 0), ("nl", 3)),
}
ANGLES = (0.0, -0.0, 0.3, -np.pi / 4, 2, 5e-324, 1e300)


def random_op(rng: np.random.Generator, n: int) -> CircuitOp:
    """An op of any form the emitter tells apart: library ops with and
    without params (int, float, signed zero and subnormal angles); library
    names on another matrix, of the same size or not, or with params that
    do not fit; other names and no name on P.P. and non-P.P. 4x4 gates, 2x2 gates,
    near-P.P. gates either side of the 1e-12 cut, real and NaN matrices;
    pairs in either order; and tags."""
    k = 1 + int(rng.random() < 0.5)
    q = int(rng.integers(n - 1))
    targets = (q,) if k == 1 else ((q, q + 1) if rng.random() < 0.7 else (q + 1, q))
    tag = (None, None, "", "target", "x")[rng.integers(5)]
    kind = rng.integers(8)
    if kind <= 2:
        name, arity = LIBRARY[k][rng.integers(len(LIBRARY[k]))]
        params = tuple(ANGLES[i] for i in rng.integers(len(ANGLES), size=arity))
        gate = gate_library(name, params)
        if kind == 1:  # the library's name on another matrix, of either size
            gate = (gate * np.exp(1e-15j), haar_unitary(rng, 2**k), haar_unitary(rng, 6 - 2**k))[rng.integers(3)]
        elif kind == 2 and rng.random() < 0.5:  # params that do not fit the name
            params = params + (0.1,)
        return CircuitOp(gate, targets, name=name, params=params, tag=tag)
    names = (None, "matrix", "g", "g_aa", "g_rz", "target", "nl", "bogus")
    name = names[rng.integers(len(names))]
    if k == 1:
        gate = haar_unitary(rng, 2) if rng.random() < 0.8 else np.array([[1.0, 0.0], [0.0, -1.0]])
    elif kind == 3:
        gate = random_matchgate(rng)
    elif kind == 4:
        gate = random_nonmatchgate_pp(rng)
    elif kind == 5:
        gate = haar_unitary(rng, 4)
    elif kind == 6:
        gate = random_pp(rng)
        gate[0, 1] = (1e-13, 2e-12)[rng.integers(2)]
    else:
        gate = (np.eye(4), 2.0 * np.eye(4) - 0.0j, np.full((4, 4), np.nan))[rng.integers(3)]
    return CircuitOp(gate, targets, name=name, tag=tag)


def random_circuit(seed: int, size: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(4, metadata={"seed": seed})
    for _ in range(size):
        if rng.random() < 0.2:
            body = [random_op(rng, 4) for _ in range(rng.integers(4))]
            circuit.ops.append(RepeatedSegment(tuple(body), int(rng.integers(1, 5))))
        else:
            circuit.ops.append(random_op(rng, 4))
    return circuit


def exact(doc) -> str:
    """Text that tells every float apart, signed zeros included."""
    return json.dumps(doc, sort_keys=True)


PROPERTY = settings(
    max_examples=80,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40))
@example(seed=0, size=0)
def test_stacked_emitter_gives_the_per_op_document(seed, size):
    circuit = random_circuit(seed, size)
    meta = {"extra": [1, 2.5]} if seed % 2 else None
    got, want = emit_circuit_document(circuit, meta), per_op_emit(circuit, meta)
    assert exact(got) == exact(want)


def test_emitter_covers_every_form():
    """The random circuits reach every form of entry the emitter writes."""
    names = set()
    for seed in range(20):
        for entry in per_op_emit(random_circuit(seed, 40))["gates"]:
            for e in entry.get("gates", [entry]):
                names.add((e["name"] if e["name"] in ("g", "matrix") else "library", "params" in e, "tag" in e))
    assert names >= {(kind, False, tag) for kind in ("g", "matrix", "library") for tag in (False, True)}
    assert ("library", True, False) in names


# JSON-able payloads: what json.loads can give back, so keys are strings.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
PAYLOADS = st.dictionaries(
    st.text(),
    VALUES | st.lists(st.dictionaries(st.text(), VALUES, max_size=3), max_size=4),
    max_size=6,
)


@PROPERTY
@given(PAYLOADS)
@example({})
@example({"gates": [], "x": [{}], "y": [{"a": 1}, 2], "z": {"w": [{"v": -0.0}]}})
@example({"zero": -0.0, "tiny": 5e-324, "big": 2**64 + 1, "neg": -(2**70), "ключ": [{"é": "☃"}]})
def test_writer_reads_back_as_the_payload_and_as_indented_json(payload):
    text = dumps_document(payload)
    indented = json.dumps(payload, indent=2, sort_keys=True)
    assert json.loads(text) == json.loads(indented) == payload
    # Key order, float text and signed zeros too.
    assert json.dumps(json.loads(text)) == json.dumps(json.loads(indented))
    assert text.endswith("}\n")


def test_compiled_document_has_one_line_per_top_level_gate_entry(tmp_path):
    logical = {
        "format_version": 1,
        "qubits": 3,
        "gates": [
            {"name": "h", "targets": [0]},
            {"name": "cnot", "targets": [0, 2]},
            {"name": "rz", "targets": [1], "params": [0.4]},
            {"name": "cz", "targets": [1, 2]},
        ],
    }
    (tmp_path / "logical.json").write_text(json.dumps(logical))
    out = tmp_path / "physical.json"
    result = CliRunner().invoke(
        main,
        ["compile", "--input", str(tmp_path / "logical.json"), "--target", "NL(0.2, 0.1, 0.35)",
         "--skip-verify", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    doc = json.loads(text)
    lines = text.splitlines()
    start = lines.index('  "gates": [') + 1
    entry_lines = lines[start : start + len(doc["gates"])]
    assert any("repeat" in entry for entry in doc["gates"])
    assert [json.loads(line.strip().rstrip(",")) for line in entry_lines] == doc["gates"]
    assert lines[start + len(doc["gates"])] == "  ],"
    # Each other top-level key takes one line, between the braces.
    assert len(lines) == len(doc["gates"]) + len(doc) + 3


@pytest.mark.parametrize("out", [False, True])
def test_compile_encodes_each_output_once(tmp_path, monkeypatch, out):
    """The summary and, with --out, the document are each encoded once."""
    encoded = []

    def counting(doc):
        encoded.append(sorted(doc))
        return dumps_document(doc)

    monkeypatch.setattr(matchgates.cli, "dumps_document", counting)
    circuit = Circuit(2)
    circuit.append(rz(0.2), (0,), name="rz")
    circuit.append(gate_library("CZ"), (0, 1), name="cz")
    (tmp_path / "logical.json").write_text(dumps_document(emit_circuit_document(circuit)))
    args = ["compile", "--input", str(tmp_path / "logical.json"), "--target", "SWAP", "--json"]
    if out:
        args += ["--out", str(tmp_path / "physical.json")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert ("circuit" in summary) is not out
    document = ["format_version", "gates", "metadata", "qubits"]
    assert encoded == ([document] if out else []) + [sorted(summary)]


@pytest.mark.parametrize(
    "flags,built", [((), 0), (("--json",), 1), (("--out",), 1), (("--json", "--out"), 1)]
)
def test_compile_builds_the_document_only_when_it_is_written(tmp_path, monkeypatch, flags, built):
    """Without --out or --json nothing prints the compiled document, so it is
    not built."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return emit_circuit_document(*args, **kwargs)

    monkeypatch.setattr(matchgates.cli, "emit_circuit_document", counting)
    circuit = Circuit(2)
    circuit.append(gate_library("H"), (0,), name="h")
    circuit.append(gate_library("CZ"), (0, 1), name="cz")
    (tmp_path / "logical.json").write_text(dumps_document(emit_circuit_document(circuit)))
    args = ["compile", "--input", str(tmp_path / "logical.json"), "--target", "SWAP"]
    for flag in flags:
        args += ["--out", str(tmp_path / "physical.json")] if flag == "--out" else [flag]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == built
    assert (tmp_path / "physical.json").exists() is ("--out" in flags)
    if flags == ("--json",):
        assert json.loads(result.output)["circuit"]["qubits"] == 4
