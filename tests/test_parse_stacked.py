"""The stacked document parser against the per-entry oracle in util.py.

On valid documents both give the same ops with bit-identical gates; on
malformed ones both raise the same exception with the same text.  Long
documents cross the parser's chunk boundaries, so faults before, inside
and after a chunk's stacked conversion are ordered as the oracle orders
them.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from matchgates.circuits import RepeatedSegment
from matchgates.gates import assemble_pp
from matchgates.io import PARSE_CHUNK, parse_circuit_document
from test_io_cli import mutated_documents
from util import haar_unitary, per_entry_parse, random_matchgate

LIBRARY_1Q = (("h", []), ("x", []), ("T", []), ("rz", ["pi/4"]), ("rx", [0.3]), ("ry", [-2]))
LIBRARY_2Q = (("cz", []), ("swap", []), ("FSWAP", []), ("iswap", []), ("nl", [0.1, "pi/8", 2]))


def complex_rows(m: np.ndarray, ints: bool = False) -> list:
    """[re, im] rows; with ``ints``, integral parts are written as ints."""

    def part(x):
        x = float(x)
        return int(x) if ints and x.is_integer() else x

    return [[[part(z.real), part(z.imag)] for z in row] for row in m]


def g_entry_of(gate: np.ndarray, targets: list, ints: bool = False) -> dict:
    """The 'g' entry of a parity-preserving gate."""
    a, b = gate[np.ix_([0, 3], [0, 3])], gate[np.ix_([1, 2], [1, 2])]
    return {"name": "g", "targets": targets,
            "blocks": {"a": complex_rows(a, ints), "b": complex_rows(b, ints)}}


def random_entry(rng: np.random.Generator, n: int) -> dict:
    """One gate entry of any form on ``n`` >= 3 qubits: library gates,
    'g' entries with unitary blocks, unitary 'matrix' entries of either
    size, pairs in either order or not adjacent, and tags."""
    kind = rng.integers(6)
    q = int(rng.integers(n - 1))
    pair = [q, q + 1]
    if rng.random() < 0.25:
        pair.reverse()
    elif rng.random() < 0.1:
        pair = [int(t) for t in rng.choice(n, size=2, replace=False)]
    if kind == 0:
        name, params = LIBRARY_1Q[rng.integers(len(LIBRARY_1Q))]
        entry = {"name": name, "targets": [q], **({"params": params} if params else {})}
    elif kind == 1:
        name, params = LIBRARY_2Q[rng.integers(len(LIBRARY_2Q))]
        entry = {"name": name, "targets": pair, **({"params": params} if params else {})}
    elif kind in (2, 3):
        entry = g_entry_of(random_matchgate(rng) if kind == 2 else np.eye(4), pair, kind == 3)
        if rng.random() < 0.1:
            entry["name"] = "G"
    else:
        dim = 2 if kind == 4 else 4
        # A Haar unitary with a row phase that makes m[0, 0] imaginary, its
        # real part written as -0.0.
        m = haar_unitary(rng, dim)
        m[0] *= 1j * abs(m[0, 0]) / m[0, 0]
        m[0, 0] = complex(-0.0, abs(m[0, 0]))
        entry = {"name": "matrix", "targets": [q] if dim == 2 else pair,
                 "matrix": complex_rows(m)}
    if rng.random() < 0.1:
        entry["tag"] = "target"
    return entry


def random_document(seed: int, size: int) -> dict:
    """``size`` top-level entries, about one in twelve a repeat group of one
    to three entries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    gates = []
    for _ in range(size):
        if rng.random() < 1 / 12:
            body = [random_entry(rng, n) for _ in range(rng.integers(1, 4))]
            gates.append({"repeat": int(rng.integers(1, 5)), "gates": body})
        else:
            gates.append(random_entry(rng, n))
    return {"format_version": 1, "qubits": n, "gates": gates, "metadata": {"seed": seed}}


def assert_same_circuit(got, want) -> None:
    assert got.n == want.n and got.metadata == want.metadata
    assert len(got.ops) == len(want.ops)
    for g_entry, w_entry in zip(got.ops, want.ops):
        assert type(g_entry) is type(w_entry)
        if isinstance(w_entry, RepeatedSegment):
            assert g_entry.count == w_entry.count
            g_ops, w_ops = g_entry.body, w_entry.body
        else:
            g_ops, w_ops = (g_entry,), (w_entry,)
        assert len(g_ops) == len(w_ops)
        for g, w in zip(g_ops, w_ops):
            assert (g.targets, g.name, g.params, g.tag) == (w.targets, w.name, w.params, w.tag)
            assert g.gate.dtype == w.gate.dtype and g.gate.shape == w.gate.shape
            assert g.gate.tobytes() == w.gate.tobytes()


def outcome(parse, doc):
    """The circuit ``parse`` gives, or the (type, text) of its refusal."""
    try:
        return parse(doc)
    except Exception as exc:  # noqa: BLE001 - any type must match the oracle's
        return type(exc), str(exc)


def assert_same_outcome(doc) -> None:
    want = outcome(per_entry_parse, copy.deepcopy(doc))
    got = outcome(parse_circuit_document, doc)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_circuit(got, want)


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 3 * PARSE_CHUNK))
@example(seed=1, size=PARSE_CHUNK)
@example(seed=2, size=PARSE_CHUNK + 1)
def test_valid_documents_parse_as_the_per_entry_oracle(seed, size):
    doc = random_document(seed, size)
    want = per_entry_parse(copy.deepcopy(doc))
    assert_same_circuit(parse_circuit_document(doc), want)


# Values put in place of a number of a 'g' block or 'matrix' entry.
BAD_NUMBERS = (True, False, "1", None, float("nan"), float("inf"), -float("inf"), 10**400, [1], {}, 2.0)
# Values put in place of an [re, im] pair or a row of one.
BAD_PAIRS = ([1], [1, 0, 0], (1, 0), "ab", None, [[1, 0]], [])


def intact_rows(entry: dict, draw):
    """The rows of one of the entry's matrices, if an earlier fault left
    them as rows of [re, im] pairs; else None."""
    rows = entry.get("matrix")
    blocks = entry.get("blocks")
    if isinstance(blocks, dict) and set(blocks) == {"a", "b"}:
        rows = blocks[draw(st.sampled_from(["a", "b"]))]
    if isinstance(rows, list) and rows and all(
        isinstance(row, list) and row and all(isinstance(p, list) and len(p) == 2 for p in row)
        for row in rows
    ):
        return rows
    return None


@st.composite
def corrupted_documents(draw):
    """A valid document with one to four faults at positions that cluster
    around the parser's chunk boundaries: bad numbers, ragged rows,
    non-unitary 'g' blocks and 'matrix' entries, and structural faults of
    every kind."""
    size = draw(st.integers(1, 2 * PARSE_CHUNK + 20))
    doc = random_document(draw(st.integers(0, 2**32 - 1)), size)
    gates = doc["gates"]
    for _ in range(draw(st.integers(1, 4))):
        near = draw(st.sampled_from([0, PARSE_CHUNK - 2, PARSE_CHUNK, 2 * PARSE_CHUNK - 1, size // 2]))
        index = min(max(near + draw(st.integers(-3, 3)), 0), len(gates) - 1)
        entry = gates[index]
        if "repeat" in entry:
            entry = draw(st.sampled_from(entry["gates"]))
        fault = draw(st.sampled_from(["number", "pair", "row", "rows", "unitary", "structure"]))
        rows = intact_rows(entry, draw)
        if fault == "structure" or rows is None:
            key = draw(st.sampled_from(["name", "targets", "tag", "blocks", "params", "matrix"]))
            value = draw(st.sampled_from([
                "frobnicate", [0, 0], [doc["qubits"]], [-1], ["a"], [], [0, 1, 2], 5,
                {"a": []}, "pi/0", None, [[1, 0]], 10**30,
            ]))
            entry[key] = value
            continue
        row = draw(st.sampled_from(rows))
        if fault == "number":
            pair = draw(st.sampled_from(row))
            pair[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == "pair":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_PAIRS))
        elif fault == "row":
            if draw(st.booleans()):
                row.pop()
            else:
                row.append([0, 0])
        elif fault == "rows":
            rows.pop()
        else:
            # A scaled row makes a 'g' block or a 'matrix' entry non-unitary.
            for pair in row:
                pair[0] *= 2.0
                pair[1] *= 2.0
    return doc


@PROPERTY
@given(doc=corrupted_documents())
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_corrupted_documents_are_refused_as_the_per_entry_oracle_refuses_them(doc):
    assert_same_outcome(doc)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(doc=mutated_documents())
def test_mutated_small_documents_are_refused_as_the_per_entry_oracle_refuses_them(doc):
    assert_same_outcome(doc)


def identity_g_entries(count: int) -> list:
    return [g_entry_of(np.eye(4), [0, 1]) for _ in range(count)]


def doc_of(gates, n=2):
    return {"format_version": 1, "qubits": n, "gates": gates}


@pytest.mark.parametrize(
    "faults,message",
    [
        # A NaN after a non-unitary block in the same chunk: the block first.
        ({250: ("unitary", "a"), 252: ("nan", "b")},
         "gates[250]: even block A is not unitary within 1e-09"),
        # ... and before it: the NaN first.
        ({250: ("nan", "b"), 252: ("unitary", "a")},
         "complex entries must be [re, im] pairs, got [nan, 0.0]"),
        # Across the chunk boundary, either way round.
        ({PARSE_CHUNK - 1: ("unitary", "b"), PARSE_CHUNK: ("nan", "a")},
         f"gates[{PARSE_CHUNK - 1}]: odd block B is not unitary within 1e-09"),
        ({PARSE_CHUNK - 1: ("nan", "a"), PARSE_CHUNK: ("unitary", "b")},
         "complex entries must be [re, im] pairs, got [nan, 0.0]"),
        # A structural fault after a non-unitary block in the same chunk.
        ({PARSE_CHUNK + 3: ("unitary", "a"), PARSE_CHUNK + 9: ("name", None)},
         f"gates[{PARSE_CHUNK + 3}]: even block A is not unitary within 1e-09"),
        # A target out of range before a non-unitary block: the block first.
        ({5: ("range", None), PARSE_CHUNK + 9: ("unitary", "a")},
         f"gates[{PARSE_CHUNK + 9}]: even block A is not unitary within 1e-09"),
        ({5: ("range", None), 7: ("repeated", None)},
         "gates[5]: targets (0, 2) out of range for n=2"),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_refusal_order_around_a_chunk_boundary(faults, message):
    gates = identity_g_entries(2 * PARSE_CHUNK)
    for index, (fault, block) in faults.items():
        entry = gates[index] = copy.deepcopy(gates[index])
        if fault == "unitary":
            entry["blocks"][block][0][0] = [2.0, 0.0]
        elif fault == "nan":
            entry["blocks"][block][1][1] = [float("nan"), 0.0]
        elif fault == "name":
            entry["name"] = "frobnicate"
        elif fault == "range":
            entry["targets"] = [0, 2]
        elif fault == "repeated":
            entry["targets"] = [1, 1]
    doc = doc_of(gates)
    want = outcome(per_entry_parse, copy.deepcopy(doc))
    assert want[1] == message
    assert outcome(parse_circuit_document, doc) == want


def mixed_identity_entries(count: int) -> list:
    """Identity entries whose kind follows the index mod 3: a 'g' entry, a
    one-qubit 'matrix' entry, a two-qubit 'matrix' entry."""
    forms = (g_entry_of(np.eye(4), [0, 1]),
             {"name": "matrix", "targets": [0], "matrix": complex_rows(np.eye(2))},
             {"name": "matrix", "targets": [0, 1], "matrix": complex_rows(np.eye(4))})
    return [copy.deepcopy(forms[i % 3]) for i in range(count)]


@pytest.mark.parametrize(
    "faults,message",
    [
        # The first non-unitary entry in document order, whatever its form
        # or size, and whichever stack it was checked in.
        ({3: "unitary", 4: "unitary"}, "gates[3]: even block A is not unitary within 1e-09"),
        ({4: "unitary", 6: "unitary"}, "gates[4]: matrix is not unitary within 1e-09"),
        ({5: "unitary", 7: "unitary"}, "gates[5]: matrix is not unitary within 1e-09"),
        ({PARSE_CHUNK - 2: "unitary", PARSE_CHUNK: "unitary"},
         f"gates[{PARSE_CHUNK - 2}]: matrix is not unitary within 1e-09"),
        ({PARSE_CHUNK: "unitary"}, f"gates[{PARSE_CHUNK}]: matrix is not unitary within 1e-09"),
        # Overflow makes the defect NaN, which still fails the check.
        ({10: "overflow"}, "gates[10]: matrix is not unitary within 1e-09"),
        # A malformed entry after a non-unitary one, and before it.
        ({4: "unitary", 7: "nan"}, "gates[4]: matrix is not unitary within 1e-09"),
        ({4: "nan", 7: "unitary"}, "complex entries must be [re, im] pairs, got [nan, 0.0]"),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_unitary_matrix_entries_are_refused_in_document_order(faults, message):
    gates = mixed_identity_entries(2 * PARSE_CHUNK)
    for index, fault in faults.items():
        entry = gates[index]
        rows = entry["blocks"]["a"] if entry["name"] == "g" else entry["matrix"]
        rows[0][0] = {"unitary": [2.0, 0.0], "overflow": [1e200, 1e200], "nan": [float("nan"), 0.0]}[fault]
    doc = doc_of(gates)
    want = outcome(per_entry_parse, copy.deepcopy(doc))
    assert want[1] == message
    assert outcome(parse_circuit_document, doc) == want


def test_gates_are_read_only_views_into_one_stack():
    rng = np.random.default_rng(3)
    gates = [random_matchgate(rng) for _ in range(PARSE_CHUNK + 5)]
    circuit = parse_circuit_document(doc_of([g_entry_of(g, [0, 1]) for g in gates]))
    for op, g in zip(circuit.ops, gates):
        assert not op.gate.flags.writeable
        a, b = g[np.ix_([0, 3], [0, 3])], g[np.ix_([1, 2], [1, 2])]
        assert np.array_equal(op.gate, assemble_pp(a, b))
    # Every chunk is written into the circuit's one 4 x 4 stack.
    stack = circuit.columns.stacks[4]
    assert stack.shape == (PARSE_CHUNK + 5, 4, 4)
    assert np.shares_memory(circuit.ops[0].gate, stack)
    assert np.shares_memory(circuit.ops[PARSE_CHUNK].gate, stack)


@pytest.mark.parametrize(
    "n,targets",
    [(10**30, [10**29, 2**63 - 1]), (2**63 - 1, [2**63 - 2, 0]), (3, [0, 10**30]), (5, [-(2**70), 1]), (5, [4, 4])],
)
def test_targets_past_int64_are_checked_as_the_oracle_checks_them(n, targets):
    doc = doc_of([{"name": "h", "targets": targets[:1]}, {"name": "cz", "targets": targets}], n)
    assert_same_outcome(doc)


class Rows(list):
    """A list subclass: not JSON, but matrix_in accepts it as rows, and so
    must the stacked conversion."""


def test_list_subclass_rows_parse_as_the_oracle():
    doc = random_document(5, 40)
    for entry in doc["gates"]:
        if entry.get("name") == "matrix":
            entry["matrix"] = Rows(entry["matrix"])
        elif entry.get("name") in ("g", "G"):
            entry["blocks"]["b"] = Rows(entry["blocks"]["b"])
    assert_same_outcome(doc)


def test_parse_peak_memory_over_the_decoded_document_is_bounded():
    """2000 'g' entries from a 64-gate palette on 60 qubits: the parse's
    tracemalloc peak above the decoded document stays within 1.25 MB, the
    per-entry parser's level; the chunks keep the stacked temporaries
    small."""
    rng = np.random.default_rng(4)
    palette = [random_matchgate(rng) for _ in range(64)]
    entries = [
        g_entry_of(palette[pick], [int(site), int(site) + 1])
        for site, pick in zip(rng.integers(0, 59, size=2000), rng.integers(0, 64, size=2000))
    ]
    doc = json.loads(json.dumps(doc_of(entries, 60)))
    parse_circuit_document(doc)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        circuit = parse_circuit_document(doc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(circuit.ops) == 2000
    assert peak <= 1.25 * 2**20, peak / 2**20


def test_a_parsed_circuit_holds_only_its_columns():
    """An ff_deep-sized document, 2000 'g' entries on 60 qubits: once the
    decoded document is dropped, the circuit holds its 2000 x 4 x 4 gate
    stack (0.49 MB) and its small columns, within 0.75 MB.  One CircuitOp
    per entry held about 1.13 MB."""
    rng = np.random.default_rng(4)
    palette = [random_matchgate(rng) for _ in range(64)]
    entries = [
        g_entry_of(palette[pick], [int(site), int(site) + 1])
        for site, pick in zip(rng.integers(0, 59, size=2000), rng.integers(0, 64, size=2000))
    ]
    text = json.dumps(doc_of(entries, 60))
    parse_circuit_document(json.loads(text))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = json.loads(text)
        circuit = parse_circuit_document(doc)
        del doc
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert circuit.rows == 2000
    assert held <= 0.75 * 2**20, held / 2**20
