"""Compilation of logical circuits into nearest-neighbor matchgate circuits
augmented by one user-supplied nonmatchgate parity-preserving gate.

Logical qubit i lives in the even-parity subspace of physical qubits
(2i, 2i+1), with |0>_L = |00> and |1>_L = |11>.  Single-qubit logical gates
A become the matchgates G(A, A) on the pair.  A logical CZ between adjacent
logical qubits is built on the middle physical pair (2i+1, 2i+2) from the
paper's entangler block

    B = G(H,H) . G(X,X) . sl . T . sr . G(H,H)        (matrix order)

where T is the target and the Z-rotation matchgates sl, sr strip it to its
nonlocal core (a, b, c).  On the encoded subspace B is the diagonal
diag(e^{i(a-b+c)}, e^{i(a+b-c)}, -e^{i(-a-b-c)}, -e^{i(-a+b+c)}), which up to
logical Z rotations is exp(i c ZZ); r blocks, with r chosen so that
r*c mod pi/2 lands within the angle budget of pi/4, and the logical
corrections Rz(chi1), Rz(chi2) yield a logical CZ with a small ZZ-angle
residual.  Matchgate targets have c = 0 and are refused: with them the
construction cannot create any logical entanglement.

Only the uses of T need the target; since G(A,B) . G(A',B') = G(AA',BB') and
G(H,H)^2 = I, whatever sits between two uses is one matchgate:

    B^r = L . T . (W . T)^(r-1) . R,   R = sr . G(H,H),
    W = sr . G(X,X) . sl,              L = G(H,H) . G(X,X) . sl.

The corrections are diagonal, so on the code they equal
C = Rz(chi1) (x) Rz(chi2) on the middle pair and fold into L' = C . L.  Each
logical CZ is emitted as R, T, a repeat group (W, T) of count r - 1 and L':
2r + 1 ops, r of them target uses.

A logical SWAP of adjacent logical qubits is four FSWAP = G(Z, X)
matchgates on the physical pairs (1,2), (0,1), (2,3), (1,2) counted from
the lower qubit's first physical qubit.  It maps |aabb> to |bbaa> with the
sign (-1)^(4ab) = 1, so it is exactly SWAP on the code and uses no target.
A CZ, CNOT or SWAP between non-adjacent logical qubits moves the higher
qubit next to the lower one by such SWAPs, acts, and moves it back; every
logical CZ or CNOT therefore costs one entangler schedule whatever its
distance, and every SWAP costs none.

The physical circuit is written as columns (see ``matchgates.circuits``):
one 4 x 4 gate stack holds the target, the FSWAP, R, W, L' and each
lowered G(A, A) once, and every row is a slot in it and a first qubit.
Each body op of a logical repeat group is lowered once, to spans (kind,
logical qubits, rows), and its rows are written once per repetition, with
one provenance entry per span; repetitions reuse the same slots.

Error budget: each logical CZ or CNOT contributes a residual
exp(i delta ZZ) with |delta| <= eps_angle, and the FSWAP routing adds none.
The generators are traceless, so residuals enter the process fidelity only
at second order; eps_angle = sqrt(epsilon)/(2 k) over k logical CZs and
CNOTs keeps the total infidelity below epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NonlocalTriple, classify, nonlocal_from_pp, pp_params
from .circuits import REPEAT_CAP, Circuit, CircuitOp, Columns, entry_spans
from .errors import (
    DecompositionFailure,
    NonUnitaryInput,
    ParseError,
    SynthesisError,
    TargetIsMatchgate,
    TargetNotPP,
    TooLarge,
    UnsupportedLogicalGate,
)
from .gates import (
    H,
    Mat2,
    Mat4,
    TOL_CLASSIFY,
    X,
    Z,
    assemble_pp,
    gate_library,
    is_unitary,
    nl,
    phase_rz,
)
from .statevector import UNITARY_QUBIT_CAP, circuit_unitary, propagate

# Largest repetition count searched per logical CZ; near-rational ZZ
# strengths can need millions.  A schedule's repeat group holds r - 1 uses,
# so compile_circuit refuses an r_max past the repeat cap.
DEFAULT_R_MAX = REPEAT_CAP
LOGICAL_QUBIT_CAP = 16
# Logical ops, with repeat groups expanded, that one compile writes out; the
# lowered body of a group is appended once per repetition.
LOGICAL_FLAT_OP_CAP = 100_000
# Logical qubits that verify takes without provenance, where it pushes 2^L
# encoded columns of 4^L amplitudes (8^L within 4^UNITARY_QUBIT_CAP), and
# with provenance, where it composes 2^L x 2^L logical blocks.
EXACT_QUBIT_CAP = 2 * UNITARY_QUBIT_CAP // 3
DECODED_QUBIT_CAP = 10
_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


def _wrap(x: float, period: float) -> float:
    """Reduce into (-period/2, period/2]."""
    y = math.fmod(x, period)
    if y > period / 2:
        y -= period
    elif y <= -period / 2:
        y += period
    return y


@dataclass(frozen=True)
class Encoding:
    """Even-parity pair encoding: logical i on physical (2i, 2i+1)."""

    logical_count: int

    @property
    def physical_count(self) -> int:
        return 2 * self.logical_count

    def encode_index(self, x: int) -> int:
        """Physical basis index of the encoded logical basis state x."""
        idx = 0
        for i in range(self.logical_count):
            bit = (x >> (self.logical_count - 1 - i)) & 1
            idx |= (bit * 0b11) << (self.physical_count - 2 - 2 * i)
        return idx


@dataclass(frozen=True)
class StripResult:
    """G = e^{i phase} G(Rz(t1),Rz(t2)) . NL(core) . G(Rz(t3),Rz(t4)), with
    Rz(t) = diag(e^{it}, e^{-it}); both outer factors are matchgates."""

    core: NonlocalTriple
    left: tuple[float, float]
    right: tuple[float, float]
    global_phase: float

    def reconstruct(self) -> Mat4:
        t1, t2 = self.left
        t3, t4 = self.right
        return (
            np.exp(1j * self.global_phase)
            * assemble_pp(phase_rz(t1), phase_rz(t2))
            @ self.core.matrix()
            @ assemble_pp(phase_rz(t3), phase_rz(t4))
        )


def strip_z_rotations(g: Mat4) -> StripResult:
    """Peel the outer Z-rotation matchgates off a P.P. gate, leaving the
    bare nonlocal core."""
    p = pp_params(g)
    core = nonlocal_from_pp(p)
    result = StripResult(
        core=core,
        left=((p.alpha + p.mu) / 2.0, (p.gamma + p.nu) / 2.0),
        right=((p.alpha - p.mu) / 2.0, (p.gamma - p.nu) / 2.0),
        global_phase=p.global_phase,
    )
    residual = float(np.max(np.abs(result.reconstruct() - np.asarray(g, dtype=complex))))
    if residual > 1e-9:
        raise DecompositionFailure(f"strip reconstruction residual {residual:.3e}")
    return result


def effective_diagonal_phases(core: NonlocalTriple, extra_phase: float = 0.0) -> np.ndarray:
    """Phases of the logical diagonal produced by one entangler block."""
    a, b, c = core.as_tuple()
    return extra_phase + np.array(
        [a - b + c, a + b - c, math.pi - a - b - c, math.pi - a + b + c]
    )


def effective_diagonal(core: NonlocalTriple, extra_phase: float = 0.0) -> Mat4:
    return np.diag(np.exp(1j * effective_diagonal_phases(core, extra_phase)))


def logical_single_qubit(a: Mat2, logical: int) -> list[CircuitOp]:
    """G(A, A) on the logical qubit's physical pair acts as A on the code."""
    if not is_unitary(np.asarray(a, dtype=complex)):
        raise NonUnitaryInput("logical single-qubit gate must be unitary")
    pair = (2 * logical, 2 * logical + 1)
    return [CircuitOp(assemble_pp(a, a), pair, name="g_aa")]


def build_entangler_block(core: NonlocalTriple) -> tuple[list[CircuitOp], Mat4]:
    """The paper's reference entangler block on the middle pair (1, 2) of two
    logical qubits, with the nonlocal core tagged as the target, and its
    effective logical diagonal.

    The compiler does not emit it: it fuses the matchgates between target
    uses of r such blocks (see the module docstring).
    """
    pair = (1, 2)
    ghh = CircuitOp(assemble_pp(H, H), pair, name="g_hh")
    gxx = CircuitOp(assemble_pp(X, X), pair, name="g_xx")
    core_op = CircuitOp(nl(*core.as_tuple()), pair, name="nl", tag="target")
    return [ghh, core_op, gxx, ghh], effective_diagonal(core)


@dataclass(frozen=True)
class EntanglerPlan:
    """Repetition schedule turning the block diagonal into a logical CZ."""

    c_eff: float
    repetitions: int
    residual_error: float
    local_corrections: tuple[float, float]
    global_phase: float


def plan_entangler(
    core: NonlocalTriple,
    epsilon: float,
    r_max: int = DEFAULT_R_MAX,
) -> EntanglerPlan:
    """Choose the minimal r with r*c_eff mod pi/2 within ``epsilon`` of pi/4.

    ``epsilon`` bounds the ZZ-angle residual of the synthesized logical CZ.
    Raises TargetIsMatchgate when the diagonal cannot entangle (c_eff ~ 0)
    and SynthesisError when no r <= r_max meets the budget.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    phases = effective_diagonal_phases(core)
    c_eff = _wrap((phases[0] - phases[1] - phases[2] + phases[3]) / 4.0, _HALF_PI)
    if abs(c_eff) <= TOL_CLASSIFY:
        raise TargetIsMatchgate(
            "effective ZZ strength is 0: the gate is a matchgate (det A = det B) "
            "and its entangler block creates no logical entanglement"
        )
    r = None
    best_dist, best_r = np.inf, 0
    # Chunks double from 2**10 to 2**20 values: cost follows r, not r_max.
    lo, chunk = 1, 2**10
    while lo <= r_max:
        hi = min(lo + chunk - 1, r_max)
        # One array worked in place: a chunk's temporaries set a compile's
        # memory peak at a few thousand repetitions.
        dist = np.arange(lo, hi + 1, dtype=np.float64)
        dist *= c_eff
        np.mod(dist, _HALF_PI, out=dist)
        dist -= _QUARTER_PI
        np.abs(dist, out=dist)
        hits = np.flatnonzero(dist <= epsilon)
        if hits.size:
            r = lo + int(hits[0])
            break
        arg = int(np.argmin(dist))
        if dist[arg] < best_dist:
            best_dist, best_r = float(dist[arg]), lo + arg
        lo, chunk = hi + 1, min(2 * chunk, 2**20)
    if r is None:
        raise SynthesisError(
            f"no repetition count <= {r_max} reaches angle tolerance {epsilon:.3e}; "
            f"best residual {best_dist:.3e} at r={best_r}"
        )
    # Reduced first: at r near 10**7 the raw products carry about 1e-9 of
    # rounding into every sum below, past the consistency check.
    q = np.mod(r * phases, 2 * math.pi)
    w_q = (q[0] - q[1] - q[2] + q[3]) / 4.0
    delta = _wrap(w_q - _QUARTER_PI, _HALF_PI)
    t_vec = np.array([delta, -delta, -delta, math.pi + delta])
    s = t_vec - q
    chi1 = (s[0] - s[2]) / 2.0
    chi2 = (s[0] - s[1]) / 2.0
    gamma = (s[1] + s[2]) / 2.0
    # Internal consistency: corrections must reproduce CZ . exp(i delta ZZ).
    lhs = np.exp(1j * gamma) * np.exp(
        1j * np.array([chi1 + chi2, chi1 - chi2, -chi1 + chi2, -chi1 - chi2])
    ) * np.exp(1j * q)
    rhs = np.array([1, 1, 1, -1]) * np.exp(1j * delta * np.array([1, -1, -1, 1]))
    if np.max(np.abs(lhs - rhs)) > 1e-9:
        raise DecompositionFailure("entangler correction phases are inconsistent")
    return EntanglerPlan(
        c_eff=c_eff,
        repetitions=r,
        residual_error=float(abs(delta)),
        local_corrections=(float(chi1), float(chi2)),
        global_phase=float(gamma),
    )


# ---------------------------------------------------------------------------
# Logical-circuit lowering
# ---------------------------------------------------------------------------

_TWO_QUBIT_NAMES = {"cz": "cz", "cnot": "cnot", "cx": "cnot", "swap": "swap"}


def _two_qubit_kind(logical: Circuit, row: int) -> str:
    col = logical.columns
    name = col.names[row]
    # The parser names 'matrix' and 'g' entries by their form, not their gate.
    if name not in (None, "matrix", "g"):
        kind = _TWO_QUBIT_NAMES.get(name.lower())
        if kind is None:
            raise UnsupportedLogicalGate(f"logical circuit: {logical.describe(row)} is not in {{CZ, CNOT, SWAP}}")
        return kind
    gate = col.stacks[4][col.slots[row]]
    for kind, name in (("cz", "CZ"), ("cnot", "CNOT"), ("swap", "SWAP")):
        if np.max(np.abs(gate - gate_library(name))) <= 1e-9:
            return kind
    raise UnsupportedLogicalGate(
        f"logical circuit: {logical.describe(row)} does not match CZ, CNOT, or SWAP; "
        "decomposing arbitrary two-qubit unitaries is out of scope"
    )


def _check_logical(logical: Circuit) -> list[str]:
    """The kind ("1q", "cz", "cnot" or "swap") of each row of ``logical``.
    A two-qubit op other than CZ, CNOT or SWAP is refused, named by
    :meth:`Circuit.describe`."""
    targets = logical.columns.targets.tolist()
    return ["1q" if a == b else _two_qubit_kind(logical, row) for row, (a, b) in enumerate(targets)]


_FSWAP = assemble_pp(Z, X)
# Slots in the compiler's gate stack; the last three are filled when the
# logical circuit has a CZ or CNOT.
_TARGET_SLOT, _FSWAP_SLOT, _ENTER_SLOT, _LINK_SLOT, _LEAVE_SLOT = range(5)


def _swap_rows(lo: int) -> list[tuple]:
    """Rows (slot, first qubit, name, tag) of the FSWAPs that exchange
    logical qubits lo and lo + 1 exactly on the code."""
    base = 2 * lo
    return [(_FSWAP_SLOT, base + k, "g_fswap", None) for k in (1, 0, 2, 1)]


def _cz_rows(q: int, repetitions: int) -> tuple[list[tuple], tuple | None]:
    """Rows (slot, first qubit, name, tag) and repeat group of a logical CZ
    on physical qubits (q, q + 1): R, T, (W, T) repeated r - 1 times, L'
    (module docstring)."""
    enter, leave = (_ENTER_SLOT, q, "g_enter", None), (_LEAVE_SLOT, q, "g_leave", None)
    use = (_TARGET_SLOT, q, "target", "target")
    if repetitions == 1:
        return [enter, use, leave], None
    return [enter, use, (_LINK_SLOT, q, "g_link", None), use, leave], (2, 4, repetitions - 1)


def _lower(kind: str, columns: Columns, row: int, plan: EntanglerPlan | None, gates: list) -> list[tuple]:
    """Spans (kind, logical qubits, rows, group) of the checked logical op at
    ``row``.  Each row is (slot, first qubit, name, tag) of a
    nearest-neighbour gate in the stack ``gates``; ``group`` is None or a
    (start, stop, count) repetition span over the rows.  A one-qubit gate A
    is G(A, A), added to ``gates``.  A CZ, CNOT or SWAP is the FSWAP chain
    that moves the higher qubit next to the lower one, the act, and the
    chain back; the act of a CZ or CNOT is :func:`_cz_rows` with ``plan``'s
    repetitions, and a CNOT is wrapped in H on its second qubit."""
    first, last = columns.targets[row].tolist()

    def one_qubit(a: Mat2, q: int) -> tuple:
        gates.append(assemble_pp(a, a))
        return "1q", (q,), [(len(gates) - 1, 2 * q, "g_aa", None)], None

    if kind == "1q":
        return [one_qubit(columns.stacks[2][columns.slots[row]], first)]
    lo, hi = sorted((first, last))
    chain = [("swap", (k, k + 1), _swap_rows(k), None) for k in range(hi - 1, lo, -1)]
    act = ("swap", (lo, lo + 1), _swap_rows(lo), None) if kind == "swap" else ("cz", (lo, lo + 1), *_cz_rows(2 * lo + 1, plan.repetitions))
    spans = [*chain, act, *reversed(chain)]
    if kind == "cnot":
        h = one_qubit(H, last)
        spans = [h, *spans, h]
    return spans


def count_target_uses(circuit: Circuit) -> int:
    """Ops tagged "target", with repeat groups expanded."""
    tags = circuit.columns.tags
    return tags.count("target") + sum(
        (count - 1) * tags[start:stop].count("target") for start, stop, count in circuit.groups
    )


@dataclass
class CompiledCircuit:
    physical: Circuit
    plan: EntanglerPlan | None
    provenance: list[dict] = field(default_factory=list)

    @property
    def target_uses(self) -> int:
        return count_target_uses(self.physical)


def _check_flat_count(logical: Circuit) -> None:
    """Refuse a logical circuit whose expanded op count passes
    LOGICAL_FLAT_OP_CAP, naming its largest repeat group."""
    total = logical.flat_count()
    if total <= LOGICAL_FLAT_OP_CAP:
        return
    spans = list(entry_spans(logical.groups, logical.rows))
    sizes = [count * (stop - start) if count > 1 else 0 for start, stop, count, _ in spans]
    what = f"the logical circuit expands to {total} ops"
    if any(sizes):
        i = int(np.argmax(sizes))
        start, stop, count, _ = spans[i]
        what += f" (entry {i} repeats {stop - start} op(s) {count} times)"
    raise TooLarge(
        f"{what}, past the cap of {LOGICAL_FLAT_OP_CAP}: the compiler expands repeat "
        "groups op by op, and folding them waits for ROADMAP item 1"
    )


def check_epsilon(epsilon: float) -> None:
    """Refuse an infidelity budget that is not a finite number > 0."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ParseError(f"--epsilon must be finite and > 0, got {epsilon!r}")


def compile_circuit(
    logical: Circuit,
    target: Mat4,
    epsilon: float = 1e-6,
    r_max: int = DEFAULT_R_MAX,
) -> CompiledCircuit:
    """Compile a logical circuit onto the pair encoding.

    ``target`` must be a nonmatchgate parity-preserving unitary; every other
    emitted op is a matchgate and every two-qubit op is nearest-neighbor.
    Each logical CZ becomes R, T, a repeat group (W, T) of count r - 1 (left
    out when r = 1) and L', with the logical Z corrections folded into L'
    (module docstring); logical SWAPs and routing are FSWAPs.
    Each body op of a repeat group is classified and lowered once, and its
    spans are appended ``count`` times; a span's ``logical_op`` is the op's
    index in the expanded logical circuit.
    Raises ParseError when ``epsilon`` is not finite and > 0 or ``r_max``
    is not an integer in [1, REPEAT_CAP], TooLarge past
    LOGICAL_QUBIT_CAP qubits or LOGICAL_FLAT_OP_CAP expanded logical ops,
    UnsupportedLogicalGate naming a refused logical op, all before planning,
    and SynthesisError when no repetition count <= ``r_max`` meets the
    angle budget.
    """
    check_epsilon(epsilon)
    if not isinstance(r_max, (int, np.integer)) or isinstance(r_max, bool) or not 1 <= r_max <= REPEAT_CAP:
        raise ParseError(f"r_max must be an integer in [1, {REPEAT_CAP}], got {r_max!r}")
    if logical.n > LOGICAL_QUBIT_CAP:
        raise TooLarge(f"logical qubit count capped at {LOGICAL_QUBIT_CAP}")
    _check_flat_count(logical)
    target = np.asarray(target, dtype=complex)
    cls = classify(target)
    if not cls.is_pp:
        raise TargetNotPP("target gate is not parity-preserving")
    if cls.is_matchgate:
        raise TargetIsMatchgate(
            f"target has det(A) = det(B) (ratio {cls.det_ratio:.6f}): a matchgate "
            "cannot extend matchgate circuits to universality"
        )

    strip = strip_z_rotations(target)
    kinds = _check_logical(logical)
    n_cz = sum(count * sum(k in ("cz", "cnot") for k in kinds[start:stop])
               for start, stop, count, _ in entry_spans(logical.groups, logical.rows))

    # Every distinct gate once; rows name theirs by slot.
    gates = [target, _FSWAP]
    plan = None
    if n_cz:
        eps_angle = min(math.sqrt(epsilon) / (2.0 * n_cz), _QUARTER_PI / 2)
        plan = plan_entangler(strip.core, eps_angle, r_max=r_max)
        (t1, t2), (t3, t4) = strip.left, strip.right
        sl = assemble_pp(phase_rz(-t1), phase_rz(-t2))
        sr = assemble_pp(phase_rz(-t3), phase_rz(-t4))
        ghh, gxx = assemble_pp(H, H), assemble_pp(X, X)
        corrections = np.kron(*(phase_rz(chi) for chi in plan.local_corrections))
        gates += [sr @ ghh, sr @ gxx @ sl, corrections @ ghh @ gxx @ sl]

    rows: list[tuple] = []
    groups: list[tuple[int, int, int]] = []
    provenance: list[dict] = []
    flat = entries = 0
    for start, stop, count, _ in entry_spans(logical.groups, logical.rows):
        spans = [(r - start, span) for r in range(start, stop)
                 for span in _lower(kinds[r], logical.columns, r, plan, gates)]
        for _ in range(count):
            for j, (kind, qubits, span_rows, group) in spans:
                span_entries = len(span_rows)
                if group is not None:
                    first, last, reps = group
                    groups.append((len(rows) + first, len(rows) + last, reps))
                    span_entries -= last - first - 1
                provenance.append({"logical_op": flat + j, "kind": kind, "qubits": list(qubits),
                                   "physical_ops": [entries, entries + span_entries]})
                rows += span_rows
                entries += span_entries
            flat += stop - start

    # Every row is a nearest-neighbour pair (first, first + 1).
    slots, firsts, names, tags = map(list, zip(*rows)) if rows else ([], [], [], [])
    columns = Columns(
        {2: np.empty((0, 2, 2), dtype=complex), 4: np.array(gates, dtype=complex)},
        np.full(len(rows), 4, dtype=np.uint8),
        np.array(slots, dtype=np.int64),
        np.array(firsts, dtype=np.int64)[:, None] + np.arange(2),
        names,
        [()] * len(rows),
        tags,
    )
    metadata = {"encoding": "pair-even-parity", "logical_qubits": logical.n, "epsilon": epsilon}
    phys = Circuit.from_columns(2 * logical.n, columns, groups, metadata)
    return CompiledCircuit(physical=phys, plan=plan, provenance=provenance)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    fidelity: float
    leakage: float
    epsilon: float | None
    passed: bool | None
    target_uses: int
    flat_op_count: int


# Rounding of verify, in units of 2**-52 per flat op of the physical
# circuit.  Its computed 1 - F of exact compiles stays below 1.5e-16 per op
# (4.4e-16 at 3 flat ops, 1.0e-13 at 3,200), and a folded power drifts
# about 0.3 units per op it stands for.
ROUNDING_UNITS_PER_OP = 4


def check_resolution(epsilon: float, physical: Circuit) -> None:
    """Refuse an infidelity budget below the verifier's rounding resolution
    on ``physical``, ROUNDING_UNITS_PER_OP times 2**-52 per flat op: no
    computed fidelity could be trusted to meet it."""
    flat = physical.flat_count()
    rho = ROUNDING_UNITS_PER_OP * 2.0**-52 * flat
    if epsilon < rho:
        raise ParseError(
            f"--epsilon {epsilon:g} is below the verifier's rounding resolution {rho:.3g} for {flat} flat ops"
        )


def spectral_norm(block: np.ndarray) -> np.ndarray:
    """Largest singular value of an (m, k) block, or of each block of a
    stack of them: the square root of the largest eigenvalue of its k x k
    Gram matrix, which costs less than an SVD of the block."""
    gram = np.swapaxes(block.conj(), -1, -2) @ block
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


# The kinds of provenance span the compiler writes, and the logical qubits
# each acts on.
SPAN_WIDTHS = {"1q": 1, "cz": 2, "swap": 2}
# Per span width k: the code's indices among the 4^k basis states of the
# span's 2k physical qubits, and the other indices.
_CODE = {k: np.array([Encoding(k).encode_index(x) for x in range(2**k)]) for k in (1, 2)}
_OUTSIDE = {k: np.array([i for i in range(4**k) if i not in code.tolist()]) for k, code in _CODE.items()}
# The code's basis states on those qubits, as the columns a span is run on.
_CODE_COLUMNS = {k: np.eye(4**k, dtype=complex)[:, code] for k, code in _CODE.items()}


def _is_index_list(value, length: int) -> bool:
    return type(value) is list and list(map(type, value)) == [int] * length


def _first_slots(stack: np.ndarray) -> list[int]:
    """For each slot of a gate stack, the first slot holding the same
    matrix."""
    seen: dict = {}
    return [seen.setdefault(gate.tobytes(), slot) for slot, gate in enumerate(stack)]


def check_provenance(provenance, physical: Circuit, logical_qubits: int) -> list[tuple]:
    """The spans of ``provenance``, a compile's span records, over the
    top-level entries of ``physical``: each (first logical qubit, width k,
    start row, stop row, groups, rows).  ``groups`` holds the span's repeat
    groups relative to its start row, and ``rows`` each row's (matrix size,
    slot, first target, last target), the slot the first that holds the
    row's matrix and the targets relative to the span's first physical
    qubit.  So two spans with equal matrices on equal relative targets hold
    equal rows, whether the circuit was compiled, where rows share slots, or
    loaded, where each row has its own.

    Provenance read from a document is untrusted, so every span is checked
    before it is used, and ParseError names the first that fails: a record
    that is not an object; a ``kind`` the compiler does not write;
    ``qubits`` that are not the kind's k adjacent logical qubits in range;
    ``physical_ops`` that is not a nonempty [start, stop) range of entries
    that begins where the span before it ends; or a row that acts outside
    the 2k physical qubits of the span's logical qubits.  The spans must
    end at the last entry.
    """
    if not isinstance(provenance, list):
        raise ParseError(f"provenance must be a list of spans, got {type(provenance).__name__}")
    entries = list(entry_spans(physical.groups, physical.rows))
    col = physical.columns
    first = {size: _first_slots(stack) for size, stack in col.stacks.items()}
    sizes, targets = col.sizes.tolist(), col.targets.tolist()
    slots = [first[size][slot] for size, slot in zip(sizes, col.slots.tolist())]
    lows, highs = col.targets.min(axis=1).tolist(), col.targets.max(axis=1).tolist()
    spans = []
    end = 0
    for i, span in enumerate(provenance):
        where = f"provenance[{i}]"
        if type(span) is not dict:
            raise ParseError(f"{where}: a span must be an object")
        kind, qubits, ops = span.get("kind"), span.get("qubits"), span.get("physical_ops")
        if not isinstance(kind, str) or kind not in SPAN_WIDTHS:
            raise ParseError(f"{where}: 'kind' must be one of {', '.join(SPAN_WIDTHS)}, got {kind!r}")
        k = SPAN_WIDTHS[kind]
        if not (_is_index_list(qubits, k) and 0 <= qubits[0] and qubits[-1] == qubits[0] + k - 1 < logical_qubits):
            raise ParseError(
                f"{where}: a {kind!r} span acts on {k} adjacent logical qubit(s) of {logical_qubits}, "
                f"got 'qubits' {qubits!r}"
            )
        if not _is_index_list(ops, 2):
            raise ParseError(f"{where}: 'physical_ops' must be [start, stop], got {ops!r}")
        start, stop = ops
        if start > end:
            raise ParseError(f"{where}: 'physical_ops' {ops} leaves entries {end}..{start - 1} in no span")
        if start < end:
            raise ParseError(f"{where}: 'physical_ops' {ops} overlaps the span before it, which ends at entry {end}")
        if not start < stop <= len(entries):
            raise ParseError(
                f"{where}: 'physical_ops' {ops} is not a nonempty range of the {len(entries)} top-level entries"
            )
        row0, row1 = entries[start][0], entries[stop - 1][1]
        low, width = 2 * qubits[0], 2 * k
        if min(lows[row0:row1]) < low or max(highs[row0:row1]) >= low + width:
            stray = next(r for r in range(row0, row1) if not low <= lows[r] <= highs[r] < low + width)
            raise ParseError(
                f"{where}: {physical.describe(stray)} acts outside physical qubits {low}..{low + width - 1}"
            )
        rows = tuple((size, slot, a - low, b - low)
                     for size, slot, (a, b) in zip(sizes[row0:row1], slots[row0:row1], targets[row0:row1]))
        groups = tuple((a - row0, b - row0, count) for a, b, count, grouped in entries[start:stop] if grouped)
        spans.append((qubits[0], k, row0, row1, groups, rows))
        end = stop
    if end != len(entries):
        raise ParseError(f"provenance: the spans end at entry {end} of the {len(entries)} top-level entries")
    return spans


def _apply_adjacent(block: np.ndarray, gate: np.ndarray, first: int) -> np.ndarray:
    """Left-multiply a (2^n, m) array by ``gate`` on the adjacent qubits
    from ``first``: a product on the middle axis of a (2^first, d, rest)
    view, with no transpose."""
    return (gate @ block.reshape(2**first, len(gate), -1)).reshape(block.shape)


def _apply_row(block: np.ndarray, stacks: dict, row: tuple, low: int) -> np.ndarray:
    """:func:`_apply_adjacent` of a :func:`check_provenance` row whose
    targets count from ``low``.  A two-qubit row whose targets are not
    ascending neighbours is first widened to the unitary of the qubits
    between them; the compiler writes none."""
    size, slot, a, b = row
    gate, a, b = stacks[size][slot], a - low, b - low
    if a != b and b != a + 1:
        first = min(a, b)
        wide = Circuit(abs(b - a) + 1)
        wide.append(gate, (a - first, b - first))
        gate, a = circuit_unitary(wide), first
    return _apply_adjacent(block, gate, a)


def _run_span(columns: np.ndarray, stacks: dict, rows: tuple, groups: tuple) -> np.ndarray:
    """Left-multiply a (4^k, m) array on a span's 2k physical qubits by the
    span's ``rows`` (:func:`check_provenance`).  Each repeat group becomes
    one matrix on the qubits its rows span, the body's product raised to
    the group's count, as :func:`propagate` folds it."""
    for start, stop, count, _ in entry_spans(list(groups), len(rows)):
        body = rows[start:stop]
        if count > 1:
            low = min(min(row[2:]) for row in body)
            power = np.eye(2 ** (max(max(row[2:]) for row in body) - low + 1), dtype=complex)
            for row in body:
                power = _apply_row(power, stacks, row, low)
            columns = _apply_adjacent(columns, np.linalg.matrix_power(power, count), low)
            continue
        for row in body:
            columns = _apply_row(columns, stacks, row, 0)
    return columns


def _decode(physical: Circuit, spans: list) -> tuple[list, float]:
    """The code block D = U[code, code] of each of ``spans``
    (:func:`check_provenance`), with its first logical qubit, and the sum
    over the spans of their leakage, the spectral norm of U[outside, code];
    U is a span's rows run on its 2k physical qubits.

    Each distinct span (its width, groups and rows) is decoded once: a lone
    4 x 4 row on one logical qubit's pair is read off its gate, any other
    span is run from its code columns with its groups folded.  The
    leakages of the distinct spans of one width come from one stacked Gram
    eigvalsh, skipped when no column leaves the code, and each counts once
    per use.
    """
    stacks = physical.columns.stacks
    templates: dict = {}
    found: dict = {1: [], 2: []}
    picks = []
    for _, k, _, _, groups, rows in spans:
        pick = templates.get((k, groups, rows))
        if pick is None:
            pick = templates[k, groups, rows] = (k, len(found[k]))
            found[k].append((groups, rows))
        picks.append(pick)
    blocks, leaks = {}, {}
    for k, distinct in found.items():
        if not distinct:
            continue
        u = np.empty((len(distinct), 4**k, 2**k), dtype=complex)
        direct = {i: rows[0][1] for i, (groups, rows) in enumerate(distinct)
                  if k == 1 and not groups and len(rows) == 1 and rows[0][0] == 4 and rows[0][2:] == (0, 1)}
        if direct:
            u[list(direct)] = stacks[4][list(direct.values())][:, :, _CODE[1]]
        for i, (groups, rows) in enumerate(distinct):
            if i not in direct:
                u[i] = _run_span(_CODE_COLUMNS[k], stacks, rows, groups)
        blocks[k] = u[:, _CODE[k]]
        outside = u[:, _OUTSIDE[k]]
        leaks[k] = spectral_norm(outside).tolist() if outside.any() else [0.0] * len(distinct)
    gates = [(blocks[k][i], q) for (q, *_), (k, i) in zip(spans, picks)]
    return gates, sum((leaks[k][i] for k, i in picks), 0.0)


def _encoded_columns(code_rows: list) -> np.ndarray:
    """The logical basis states on the encoded rows: a (4^L, 2^L) block."""
    cols = np.zeros((len(code_rows) ** 2, len(code_rows)), dtype=complex)
    cols[code_rows, np.arange(len(code_rows))] = 1.0
    return cols


def verify(
    physical: Circuit, logical: Circuit, epsilon: float | None = None, provenance: list | None = None
) -> VerificationReport:
    """Compare the physical circuit, restricted to the encoded subspace,
    against the logical circuit (up to global phase).

    With ``provenance``, the compile's span records, the mode is
    "decoded".  The spans are checked (:func:`check_provenance`); each
    distinct span is run once on the code columns of its 2k <= 4 physical
    qubits and read off as its code block D and its leakage
    (:func:`_decode`).  The blocks are composed on a 2^L x 2^L logical
    block, which is compared with the logical circuit's.  ``leakage`` is the
    sum s of the spans' leakages, which bounds the true leakage, and the
    computed fidelity is within 2s + s^2 of the true one (insert the code
    projector between spans and telescope), so ``passed`` needs
    |1 - fidelity| + 2s + s^2 <= epsilon: the result is a certificate.  Up
    to DECODED_QUBIT_CAP logical qubits.

    Without it, the mode is "exact": the 2^L logical basis states are
    encoded and pushed through the physical circuit.  Rows inside the code
    are compared with the logical circuit; rows outside are the leakage
    (spectral norm), and ``passed`` needs |1 - fidelity| <= epsilon.  Up to
    EXACT_QUBIT_CAP logical qubits, where the 4^L x 2^L block fits in
    4^UNITARY_QUBIT_CAP amplitudes.

    ParseError is raised unless the physical circuit has 2L qubits,
    TooLarge past the mode's cap, then ParseError for an ``epsilon`` below
    the rounding resolution (:func:`check_resolution`, over every physical
    flat op in both modes), then ParseError naming a span that fails its
    check.  No op is checked: both circuits hold only admitted ops (see
    ``matchgates.circuits``).  ``passed`` is None without ``epsilon``; a
    fidelity above 1 is the drift of a folded power, not a better circuit.
    """
    # Qubit counts are compared before any 2**n: at thousands of qubits the
    # amplitude count alone has thousands of digits.
    if physical.n != 2 * logical.n:
        raise ParseError(
            f"physical circuit has {physical.n} qubits; expected {2 * logical.n} "
            f"for {logical.n} logical qubits"
        )
    n = logical.n
    if provenance is None and n > EXACT_QUBIT_CAP:
        raise TooLarge(
            f"verifying {n} logical qubits without provenance needs 4^{n} amplitudes for each of "
            f"2^{n} encoded states, over the cap of 4^{UNITARY_QUBIT_CAP} in all ({EXACT_QUBIT_CAP} logical qubits)"
        )
    if provenance is not None and n > DECODED_QUBIT_CAP:
        raise TooLarge(
            f"verifying {n} logical qubits composes a 2^{n} x 2^{n} logical block, "
            f"over the cap of {DECODED_QUBIT_CAP} logical qubits"
        )
    if epsilon is not None:
        check_resolution(epsilon, physical)
    if provenance is None:
        mode = "exact"
        enc = Encoding(n)
        code_rows = [enc.encode_index(x) for x in range(2**n)]
        # No local keeps the encoded block, so propagate can free it.
        out = propagate(physical, _encoded_columns(code_rows))
        in_code = out[code_rows]
        out[code_rows] = 0.0
        leakage, bound = float(spectral_norm(out)), 0.0
        del out
    else:
        mode = "decoded"
        gates, leakage = _decode(physical, check_provenance(provenance, physical, n))
        in_code = np.eye(2**n, dtype=complex)
        for gate, q in gates:
            in_code = _apply_adjacent(in_code, gate, q)
        bound = 2 * leakage + leakage**2
    ideal = propagate(logical, np.eye(2**n, dtype=complex))
    fidelity = float(abs(np.vdot(ideal, in_code) / 2**n) ** 2)
    return VerificationReport(
        mode=mode,
        fidelity=fidelity,
        leakage=leakage,
        epsilon=epsilon,
        passed=None if epsilon is None else abs(1.0 - fidelity) + bound <= epsilon,
        target_uses=count_target_uses(physical),
        flat_op_count=physical.flat_count(),
    )
