"""Circuit admission: ``Circuit.add``, and so the constructor, ``append``
and ``append_segment``, refuses an op with bad targets, a gate of the wrong
shape or a gate that is not unitary, names it, and leaves the circuit as
it was.  Also the basis-state and shot-count rules that both simulators
share."""

import numpy as np
import pytest

from matchgates.circuits import Circuit, CircuitOp, RepeatedSegment, basis_index, check_shots
from matchgates.errors import BadSampleCount, BadTargets, NonUnitaryInput, ParseError
from matchgates.fermion import init_covariance, sample_covariance
from matchgates.statevector import StateVector, sample
from matchgates.gates import H, I2, gate_library

CZ = gate_library("CZ")
# max |U^dag U - I| is NaN once the product overflows; it must still fail.
OVERFLOWING = np.full((4, 4), 1e200 + 1e200j)


@pytest.mark.parametrize(
    "gate,targets,message",
    [
        (2 * I2, (2,), r"^op 1 \(gate on \(2,\)\) is not unitary within 1e-09$"),
        ((1 + 1e-9) * CZ, (1, 0), r"^op 1 \(gate on \(1, 0\)\) is not unitary within 1e-09$"),
        (OVERFLOWING, (0, 2), r"^op 1 \(gate on \(0, 2\)\) is not unitary within 1e-09$"),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_append_refuses_a_non_unitary_gate_by_its_op(gate, targets, message):
    circuit = Circuit(3)
    circuit.append(H, (0,))
    with pytest.raises(NonUnitaryInput, match=message):
        circuit.append(gate, targets)
    assert len(circuit.ops) == 1


@pytest.mark.parametrize(
    "bad,message",
    [
        (CircuitOp(2 * I2, (1,), name="matrix"), r"^op 1\.1 \(matrix on \(1,\)\) is not unitary within 1e-09$"),
        (CircuitOp(OVERFLOWING, (1, 2)), r"^op 1\.1 \(gate on \(1, 2\)\) is not unitary within 1e-09$"),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_append_segment_refuses_a_non_unitary_body_op_by_its_position(bad, message):
    circuit = Circuit(3)
    circuit.append(H, (0,))
    with pytest.raises(NonUnitaryInput, match=message):
        circuit.append_segment([CircuitOp(H, (2,)), bad, CircuitOp(CZ, (0, 1))], 4)
    assert len(circuit.ops) == 1


def test_targets_and_shape_are_refused_before_unitarity():
    circuit = Circuit(2)
    for targets, message in (((0, 0), "repeated target"), ((0, 2), "out of range"), ((0,), "does not match")):
        with pytest.raises(BadTargets, match=message):
            circuit.append(2 * CZ, targets)
    with pytest.raises(BadTargets, match="out of range"):
        circuit.append_segment([CircuitOp(H, (0,)), CircuitOp(2 * CZ, (0, 5))], 2)
    assert circuit.ops == ()


FIRST = CircuitOp(H, (0,))
BEFORE = CircuitOp(H, (2,))


# Each writer is given FIRST, then ``op`` on its own or, with ``grouped``,
# as op 1 of a group after BEFORE.
def construct(op, grouped):
    return Circuit(3, [FIRST, RepeatedSegment((BEFORE, op), 2) if grouped else op])


def add(op, grouped):
    circuit = Circuit(3)
    circuit.add(FIRST)
    circuit.add(RepeatedSegment((BEFORE, op), 2) if grouped else op)
    return circuit


def append(op, grouped):
    circuit = Circuit(3)
    circuit.append(FIRST.gate, FIRST.targets)
    if grouped:
        circuit.append_segment([BEFORE, op], 2)
    else:
        circuit.append(op.gate, op.targets)
    return circuit


WRITERS = pytest.mark.parametrize("writer", [construct, add, append], ids=["constructor", "add", "append"])


@WRITERS
@pytest.mark.parametrize("grouped", [False, True], ids=["single", "grouped"])
@pytest.mark.parametrize(
    "bad,error,message",
    [
        (CircuitOp(2 * CZ, (0, 1)), NonUnitaryInput, r"^op 1{where} \(gate on \(0, 1\)\) is not unitary within 1e-09$"),
        (CircuitOp(CZ, (0, 5)), BadTargets, r"^targets \(0, 5\) out of range for n=3$"),
        (CircuitOp(CZ, (1,)), BadTargets, r"^gate shape \(4, 4\) does not match 1 target qubit\(s\)$"),
        (CircuitOp(H, (0.5,)), BadTargets, r"^targets must be qubit indices, got \(0\.5,\)$"),
        (CircuitOp(H, (True,)), BadTargets, r"^targets must be qubit indices, got \(True,\)$"),
        (CircuitOp(CZ, (np.float64(1.0), 2)), BadTargets, r"^targets must be qubit indices, got "),
    ],
    ids=["non-unitary", "out-of-range", "wrong-shape", "float", "bool", "numpy-float"],
)
def test_every_writer_refuses_the_same_op_in_the_same_text(writer, grouped, bad, error, message):
    with pytest.raises(error, match=message.format(where=".1" if grouped else "")):
        writer(bad, grouped)


@WRITERS
def test_numpy_integer_targets_are_admitted(writer):
    circuit = writer(CircuitOp(CZ, (np.int64(2), np.int32(1))), False)
    assert circuit.columns.targets.tolist() == [[0, 0], [2, 1]]
    assert circuit.ops[1].targets == (2, 1)


def test_a_nested_repetition_group_is_refused_as_the_parser_refuses_it():
    inner = RepeatedSegment((CircuitOp(H, (0,)),), 2)
    with pytest.raises(ParseError, match=r"^nested 'repeat' groups are not supported$"):
        Circuit(2).append_segment([inner], 2)
    with pytest.raises(ParseError, match=r"^nested 'repeat' groups are not supported$"):
        Circuit(2, [RepeatedSegment((inner,), 2)])


def test_the_threshold_is_on_max_abs_of_u_dag_u_minus_i():
    # (1 + d)^2 - 1 is about 2 d: 2e-10 is admitted, 2e-9 is not.
    circuit = Circuit(1)
    circuit.append((1 + 1e-10) * I2, (0,))
    with pytest.raises(NonUnitaryInput):
        circuit.append((1 + 1e-9) * I2, (0,))
    assert len(circuit.ops) == 1


@pytest.mark.parametrize("label,index", [("0", 0), ("1", 1), (1, 1), ("011", 3), (5, 5), ("1" * 70, 2**70 - 1)])
def test_basis_index(label, index):
    n = len(label) if isinstance(label, str) else 3
    assert basis_index(n, label) == index


@pytest.mark.parametrize(
    "label,message",
    [("01", "bad basis label '01' for n=3"), ("0a1", "bad basis label '0a1' for n=3"),
     (8, "basis index 8 out of range for n=3"), (-1, "basis index -1 out of range for n=3")],
)
def test_both_backends_refuse_a_bad_basis_label_in_one_text(label, message):
    for start in (basis_index, StateVector.basis, init_covariance):
        with pytest.raises(BadTargets) as info:
            start(3, label)
        assert str(info.value) == message


@pytest.mark.parametrize("shots", [0, -1, 2**63, 2.0, "3", True, False, np.bool_(True)])
def test_both_samplers_refuse_a_bad_shot_count_in_one_text(shots):
    message = f"shots must be an integer in [1, 2**63), got {shots!r}"
    for check in (check_shots, lambda s: sample(StateVector.basis(2), s, 0),
                  lambda s: sample_covariance(init_covariance(2), s, 0)):
        with pytest.raises(BadSampleCount) as info:
            check(shots)
        assert str(info.value) == message
