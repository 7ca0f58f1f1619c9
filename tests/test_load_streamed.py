"""``load_circuit``, which decodes a document's 'gates' entries one at a
time into the parser, against ``parse_circuit_document`` on the document
decoded whole.

On valid text both give bit-identical circuits, whatever the key order,
indentation or escaping of the text.  On malformed text both refuse with
the same exception and text: the decoder's refusal, wrapped as the load
wraps it, or the parse's.  The one refusal only the load makes is a
repeated top-level key.
"""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from matchgates.cli import main
from matchgates.errors import ParseError
from matchgates.io import PARSE_CHUNK, load_circuit, parse_circuit_document
from test_parse_stacked import complex_rows, g_entry_of, outcome, random_document
from util import random_matchgate

INDENTS = (None, 0, 2, 4, "\t")


def layout(doc, rng: np.random.Generator, indent=None) -> str:
    """JSON text of ``doc``: an object's top-level keys in a random order,
    the top-level 'gates' key escaped half of the time, and whitespace
    around the whole."""
    if isinstance(doc, dict):
        keys = list(doc)
        rng.shuffle(keys)
        doc = {key: doc[key] for key in keys}
    text = json.dumps(doc, indent=indent)
    # The top-level key comes before any key inside its entries.
    if rng.random() < 0.5:
        text = text.replace('"gates"', '"g\\u0061tes"', 1)
    return " \n"[: rng.integers(3)] + text + "\r\n\t"[: rng.integers(4)]


def whole_outcome(path) -> object:
    """What decoding the file at ``path`` whole and parsing the dict gives:
    the circuit, or the (type, text) of the refusal."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return ParseError, f"cannot read circuit {str(path)!r}: {exc}"
    return outcome(parse_circuit_document, doc)


def assert_bit_identical(got, want) -> None:
    assert (got.n, got.groups, got.metadata) == (want.n, want.groups, want.metadata)
    g, w = got.columns, want.columns
    assert g.stacks.keys() == w.stacks.keys()
    for size, stack in w.stacks.items():
        assert g.stacks[size].dtype == stack.dtype and g.stacks[size].shape == stack.shape
        assert g.stacks[size].tobytes() == stack.tobytes()
    for a, b in ((g.sizes, w.sizes), (g.slots, w.slots), (g.targets, w.targets)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (g.names, g.params, g.tags) == (w.names, w.params, w.tags)


def assert_same_load(text: str, path) -> object:
    """Write ``text`` to ``path`` and check the load against the whole
    decode; the outcome."""
    path.write_text(text, encoding="utf-8")
    want = whole_outcome(path)
    got = outcome(load_circuit, str(path))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_bit_identical(got, want)
    return want


def kind_counts(entries: list) -> dict:
    counts: dict = {}
    for entry in entries:
        for e in entry["gates"] if "repeat" in entry else [entry]:
            kind = (e["name"].lower(), len(e["targets"]))
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def test_a_long_document_loads_bit_identically_in_every_layout(tmp_path):
    """Every entry kind, each past one chunk, with repeat groups, in every
    indentation."""
    doc = random_document(7, 1900)
    counts = kind_counts(doc["gates"])
    for kind in (("g", 2), ("matrix", 1), ("matrix", 2)):
        assert counts[kind] > PARSE_CHUNK, counts
    assert any("repeat" in entry for entry in doc["gates"])
    rng = np.random.default_rng(7)
    for indent in INDENTS:
        text = layout(doc, rng, indent)
        assert not isinstance(assert_same_load(text, tmp_path / "doc.json"), tuple)


@pytest.mark.parametrize("seed", range(16))
def test_valid_documents_load_bit_identically(tmp_path, seed):
    rng = np.random.default_rng(seed)
    size = (0, 1, 2, 30, PARSE_CHUNK - 1, PARSE_CHUNK, PARSE_CHUNK + 1, 2 * PARSE_CHUNK + 3)[seed % 8]
    doc = random_document(seed, size)
    if seed % 4 == 1:
        del doc["metadata"]
    if seed % 5 == 2:
        doc["metadata"] = {"note": "café \"q\" \\ ☃", "gates": [1, 2], "nested": {"a": [None, True]}}
    text = layout(doc, rng, INDENTS[seed % len(INDENTS)])
    assert not isinstance(assert_same_load(text, tmp_path / "doc.json"), tuple)


def boundary_document(rng: np.random.Generator) -> dict:
    """2 * PARSE_CHUNK + 8 'g' entries on 4 qubits with one or two faults
    next to the first chunk boundary, on either side of it: a non-unitary
    block, a target out of range or a repeated target."""
    palette = [random_matchgate(rng) for _ in range(4)]
    gates = [g_entry_of(palette[k % 4], [k % 3, k % 3 + 1]) for k in range(2 * PARSE_CHUNK + 8)]
    for _ in range(rng.integers(1, 3)):
        entry = gates[PARSE_CHUNK + int(rng.integers(-3, 3))]
        fault = rng.integers(3)
        if fault == 0:
            entry["blocks"]["ab"[rng.integers(2)]][int(rng.integers(2))][0] = [2.0, 0.0]
        elif fault == 1:
            entry["targets"] = [3, 4]
        else:
            entry["targets"] = [1, 1]
    return {"format_version": 1, "qubits": 4, "gates": gates}


BAD_TOP_LEVEL = {
    "format_version": (2, "1", None, 1.0, True, [1]),
    "qubits": (0, -1, "3", True, 2.5, None, [3], 10**400),
    "metadata": ([], "m", 1, None),
    "gates": ({}, 5, "h", None, [1], [[]], [None]),
}
BAD_ENTRY_VALUES = (
    "frobnicate", [0, 0], [99], [-1], ["a"], [], [0, 1, 2], 5, {"a": []}, "pi/0", None, [[1, 0]], 10**30,
)


def malformed_text(seed: int) -> str:
    """The text of a seeded malformed document; ``seed`` picks the fault."""
    rng = np.random.default_rng(seed)
    fault = seed % 10

    def pick(options):
        return options[int(rng.integers(len(options)))]

    if fault == 0:
        doc = boundary_document(rng)
    else:
        doc = random_document(seed, int(rng.integers(1, 40)))
    gates = doc["gates"]
    text = None
    if fault == 1:
        text = layout(doc, rng)
        text = text[: rng.integers(len(text))]
    elif fault == 2:
        text = "\ufeff" + layout(doc, rng)
    elif fault == 3:
        text = layout(doc, rng) + pick(("x", "{}", ",", "]", "0", '"a"', "nan", " {"))
    elif fault == 4:
        top = pick((gates, 1, None, "doc", [doc], True, 2.5, []))
        text = layout(top, rng)
    elif fault in (5, 6):
        key = pick(list(BAD_TOP_LEVEL))
        doc[key] = pick(BAD_TOP_LEVEL[key])
        if fault == 6:
            # A bad 'qubits' written after the gates, with an entry fault
            # in the gates before it.
            doc["qubits"] = pick(BAD_TOP_LEVEL["qubits"])
            gates[0]["targets"] = []
            text = layout({"format_version": 1, "gates": gates, "qubits": doc["qubits"]}, rng)
    elif fault == 7:
        entry = gates[int(rng.integers(len(gates)))]
        if "repeat" in entry:
            entry = entry["gates"][0] if rng.random() < 0.7 else entry
            if "repeat" in entry:
                entry["repeat"] = pick((0, "2", 10**7 + 1, [{"repeat": 2}]))
        key = pick(("name", "targets", "tag", "blocks", "params", "matrix"))
        entry[key] = pick(BAD_ENTRY_VALUES)
    elif fault == 8:
        # A matrix entry made non-unitary, or one of its numbers bad.
        how = pick(("scaled", "nan", "bool"))
        m = np.eye(2) * (2.0 if how == "scaled" else 1.0)
        entry = {"name": "matrix", "targets": [0], "matrix": complex_rows(m)}
        if how == "nan":
            entry["matrix"][1][1] = [float("nan"), 0]
        elif how == "bool":
            entry["matrix"][0][1] = [True, 0]
        gates.insert(int(rng.integers(len(gates) + 1)), entry)
    elif fault == 9:
        # JSON syntax faults inside and around the gate list.
        text = layout(doc, rng)
        i = text.rindex("]")
        text = pick((
            text[:i] + ",]" + text[i + 1 :],
            text.replace("}, {", "} {", 1),
            text.replace(": ", " ", 1),
            text.replace('"qubits"', "'qubits'"),
            text.replace("1.0", "1.0.0", 1) if "1.0" in text else text[:-1],
            text.replace("{", "{1: 2, ", 1),
            text[: text.rindex("}")] + ", }",
            text.replace('"h"', '"\x01"', 1) if '"h"' in text else text + "[",
        ))
    return layout(doc, rng, pick(INDENTS)) if text is None else text


def test_malformed_documents_are_refused_as_the_whole_decode_refuses_them(tmp_path):
    path = tmp_path / "doc.json"
    outcomes = [assert_same_load(malformed_text(seed), path) for seed in range(330)]
    refusals = [o for o in outcomes if isinstance(o, tuple)]
    assert len(refusals) >= 300
    # The corpus reaches the decoder's, the top level's and the entries'
    # refusals, with and without a chunk boundary before them.
    texts = {text for _, text in refusals}
    for part in ("cannot read circuit", "Unexpected UTF-8 BOM", "Extra data", "must be a JSON object",
                 "'qubits' must be", "format_version", "is not unitary", "out of range", "repeated",
                 "missing or empty 'targets'"):
        assert any(part in text for text in texts), part


def test_a_load_peaks_below_3_5_times_the_file_size(tmp_path):
    """2000 'g' entries from a 64-gate palette on 60 qubits: the decoded
    entries of one chunk are held at a time, not the whole tree (6.4 times
    the file when decoded whole)."""
    rng = np.random.default_rng(4)
    palette = [random_matchgate(rng) for _ in range(64)]
    entries = [
        g_entry_of(palette[pick], [int(site), int(site) + 1])
        for site, pick in zip(rng.integers(0, 59, size=2000), rng.integers(0, 64, size=2000))
    ]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": 1, "qubits": 60, "gates": entries}))
    del entries
    load_circuit(str(path))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        circuit = load_circuit(str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert circuit.rows == 2000
    assert peak < 3.5 * path.stat().st_size, peak / path.stat().st_size


H_ENTRY = '{"name": "h", "targets": [0]}'


@pytest.mark.parametrize(
    "text,refusal",
    [
        ('{"format_version": 1, "qubits": 1, "gates": [' + H_ENTRY + '], "gates": []}',
         "circuit document repeats the top-level key 'gates'"),
        ('{"format_version": 1, "qubits": 1, "gates": [], "g\\u0061tes": [' + H_ENTRY + "]}",
         "circuit document repeats the top-level key 'gates'"),
        ('{"qubits": 2, "format_version": 1, "qubits": 1, "gates": [' + H_ENTRY + "]}",
         "circuit document repeats the top-level key 'qubits'"),
        # Before the parse's refusals, whatever they are and wherever.
        ('{"format_version": 1, "qubits": 1, "gates": [{"name": "h", "targets": []}], '
         '"format_version": 2, "metadata": 5, "metadata": {}}',
         "circuit document repeats the top-level key 'format_version'"),
        # After the decoder's.
        ('{"format_version": 1, "qubits": 1, "gates": [], "gates": [] x', None),
    ],
)
def test_a_repeated_top_level_key_is_refused(tmp_path, text, refusal):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_circuit(str(path))
    if refusal is None:
        refusal = whole_outcome(path)[1]
        assert refusal.startswith("cannot read circuit")
    assert str(info.value) == refusal
    result = CliRunner().invoke(main, ["simulate", "--input", str(path), "--json"])
    assert result.exit_code == 2
    assert result.output == f"error: {info.value}\n"


def test_keys_repeated_inside_an_entry_keep_the_last_value(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"format_version": 1, "qubits": 2, "gates": [{"name": "x", "name": "h", "targets": [1], "targets": [0]},'
        ' {"repeat": 5, "repeat": 2, "gates": [{"name": "cz", "targets": [0, 1]}]}], "metadata": {"a": 1, "a": 2}}'
    )
    circuit = load_circuit(str(path))
    assert circuit.columns.names == ["h", "cz"]
    assert circuit.columns.targets.tolist() == [[0, 0], [0, 1]]
    assert circuit.groups == [(1, 2, 2)]
    assert circuit.metadata == {"a": 2}
