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
one provenance entry per span; repetitions reuse the same slots.  The
provenance is a record for readers of the document: nothing here reads it.

Error budget: each logical CZ or CNOT contributes a residual
exp(i delta ZZ) with |delta| <= eps_angle, and the FSWAP routing adds none.
The generators are traceless, so residuals enter the process fidelity only
at second order; eps_angle = sqrt(epsilon)/(2 k) over k logical CZs and
CNOTs keeps the total infidelity below epsilon.

Verification (:func:`verify`) trusts nothing from a document but its rows.
It splits the physical circuit into windows of adjacent logical qubits read
off the rows' targets, decodes each distinct window once on the code, and
composes the decoded blocks on 2^L; the windows' leakage bounds the error
of that composition, so the result is a certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NonlocalTriple, classify, nonlocal_from_pp, pp_params
from .circuits import REPEAT_CAP, Circuit, CircuitOp, Columns, _read_only, entry_spans
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
from .statevector import UNITARY_QUBIT_CAP, propagate

# Largest repetition count searched per logical CZ; near-rational ZZ
# strengths can need millions.  A schedule's repeat group holds r - 1 uses,
# so compile_circuit refuses an r_max past the repeat cap.
DEFAULT_R_MAX = REPEAT_CAP
LOGICAL_QUBIT_CAP = 16
# Logical ops, with repeat groups expanded, that one compile writes out; the
# lowered body of a group is appended once per repetition.
LOGICAL_FLAT_OP_CAP = 100_000
# Logical qubits that one verify window may span, where it pushes 2^k
# encoded columns of 4^k amplitudes (8^k within 4^UNITARY_QUBIT_CAP), and
# logical qubits that verify takes, where it composes 2^L x 2^L blocks.
WINDOW_QUBIT_CAP = 2 * UNITARY_QUBIT_CAP // 3
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


def _rounding_resolution(physical: Circuit) -> float:
    """The verifier's rounding resolution on ``physical``,
    ROUNDING_UNITS_PER_OP times 2**-52 per flat op."""
    return ROUNDING_UNITS_PER_OP * 2.0**-52 * physical.flat_count()


def check_resolution(epsilon: float, physical: Circuit) -> None:
    """Refuse an infidelity budget below the verifier's rounding resolution
    on ``physical``: no computed fidelity could be trusted to meet it."""
    rho = _rounding_resolution(physical)
    if epsilon < rho:
        raise ParseError(
            f"--epsilon {epsilon:g} is below the verifier's rounding resolution {rho:.3g} "
            f"for {physical.flat_count()} flat ops"
        )


def spectral_norm(block: np.ndarray) -> np.ndarray:
    """Largest singular value of an (m, k) block, or of each block of a
    stack of them: the square root of the largest eigenvalue of its k x k
    Gram matrix, which costs less than an SVD of the block."""
    gram = np.swapaxes(block.conj(), -1, -2) @ block
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


# Cached for every window width up to WINDOW_QUBIT_CAP, and read-only
# because every caller shares it.
@functools.cache
def _code(k: int) -> np.ndarray:
    """The code's indices among the 4^k basis states of 2k physical qubits,
    logical basis state x at position x."""
    enc = Encoding(k)
    return _read_only(np.array([enc.encode_index(x) for x in range(2**k)]))


def _code_columns(k: int) -> np.ndarray:
    """The encoded logical basis states of k logical qubits, as the columns
    of a (4^k, 2^k) block on their 2k physical qubits."""
    columns = np.zeros((4**k, 2**k), dtype=complex)
    columns[_code(k), np.arange(2**k)] = 1.0
    return columns


def _first_slots(stack: np.ndarray) -> list[int]:
    """For each slot of a gate stack, the first slot holding the same
    matrix."""
    seen: dict = {}
    return [seen.setdefault(gate.tobytes(), slot) for slot, gate in enumerate(stack)]


def _window(table: list, lo: int, k: int, entries: list) -> tuple:
    """The window (lo, k, groups, rows) of top-level ``entries`` on logical
    qubits lo..lo+k-1: ``rows`` holds each row of ``table`` with its targets
    relative to physical qubit 2 lo, and ``groups`` the entries' repeat
    groups over those rows."""
    rows, groups = [], []
    for start, stop, count, grouped in entries:
        if grouped:
            groups.append((len(rows), len(rows) + stop - start, count))
        rows += [(size, slot, a - 2 * lo, b - 2 * lo) for size, slot, a, b in table[start:stop]]
    return lo, k, tuple(groups), tuple(rows)


def _windows(physical: Circuit, whole: bool = False) -> list[tuple]:
    """The decode windows of ``physical``'s top-level entries, in an order
    of application, each as :func:`_window` gives it; with ``whole``, one
    window over every entry and logical qubit.

    An entry's support is the logical qubits from its lowest target's to its
    highest target's.  It joins every open window it overlaps when their
    hull spans at most max(2, its support) logical qubits; otherwise those
    windows close and it opens a window of its own.  Open windows are
    disjoint, so they commute and stay open side by side; after the last
    entry they close in the order they last took one.  An entry wider than
    WINDOW_QUBIT_CAP logical qubits is refused with TooLarge, named by
    :meth:`Circuit.describe`, before any block is decoded.

    A row names the first slot that holds its matrix, so equal rows on equal
    relative targets make equal windows, whether the circuit was compiled,
    where rows share slots, or loaded, where each row has its own.
    """
    col = physical.columns
    first = {size: _first_slots(stack) for size, stack in col.stacks.items()}
    table = [(size, first[size][slot], a, b)
             for size, slot, (a, b) in zip(col.sizes.tolist(), col.slots.tolist(), col.targets.tolist())]
    entries = list(entry_spans(physical.groups, physical.rows))
    if whole:
        return [_window(table, 0, physical.n // 2, entries)]
    lows = (col.targets.min(axis=1) // 2).tolist()
    highs = (col.targets.max(axis=1) // 2).tolist()
    # Windows as [lo, hi, entries]; the newest open window is last.
    closed, opened = [], []
    for entry in entries:
        start, stop = entry[:2]
        if start == stop:
            continue  # an empty repeat group is the identity
        lo, hi = min(lows[start:stop]), max(highs[start:stop])
        if hi - lo >= WINDOW_QUBIT_CAP:
            row = start + highs[start:stop].index(hi)
            raise TooLarge(
                f"{physical.describe(row)} spans logical qubits {lo}..{hi}, past the "
                f"{WINDOW_QUBIT_CAP} that one decode window may hold"
            )
        hit = [w for w in opened if w[0] <= hi and lo <= w[1]]
        a, b = lo, hi
        for w in hit:
            a, b = min(a, w[0]), max(b, w[1])
        joins = b - a < max(2, hi - lo + 1)
        if joins and len(hit) == 1:
            # The common case: it joins one open window, in place.
            window = hit[0]
            opened.remove(window)
            window[:2] = a, b
        else:
            opened = [w for w in opened if w[1] < lo or hi < w[0]]
            if joins:
                window = [a, b, [e for w in hit for e in w[2]]]
            else:
                closed += hit
                window = [lo, hi, []]
        window[2].append(entry)
        opened.append(window)
    return [_window(table, lo, hi - lo + 1, group) for lo, hi, group in closed + opened]


def _apply_adjacent(block: np.ndarray, gate: np.ndarray, first: int) -> np.ndarray:
    """Left-multiply a (2^n, m) array by ``gate`` on the adjacent qubits
    from ``first``: a product on the middle axis of a (2^first, d, rest)
    view, with no transpose.  It composes the decoded code blocks of
    :func:`_decode` on 2^L; they are contractions, not admitted ops, so no
    :class:`Circuit` may hold them."""
    return (gate @ block.reshape(2**first, len(gate), -1)).reshape(block.shape)


def _window_circuit(stacks: dict, k: int, groups: tuple, rows: tuple) -> Circuit:
    """The ``rows`` and ``groups`` of a window as a circuit on its 2k
    physical qubits.  Its rows name slots of the physical circuit's gate
    ``stacks``, so it holds only admitted ops."""
    table, m = np.array(rows, dtype=np.int64), len(rows)
    columns = Columns(stacks, table[:, 0], table[:, 1], table[:, 2:], [None] * m, [()] * m, [None] * m)
    return Circuit.from_columns(2 * k, columns, groups)


def _decode(physical: Circuit, windows: list) -> tuple[list, list]:
    """The code block D = U[code, code] of each of ``windows``
    (:func:`_windows`), with its first logical qubit, and each window's
    leakage, the spectral norm of U[outside, code]; U is a window's rows run
    on its 2k physical qubits.

    Each distinct window (its width, groups and rows) is decoded once: a
    lone 4 x 4 row on one logical qubit's pair is read off its gate, any
    other window is run from its code columns through :func:`propagate`,
    which folds its repeat groups.
    """
    stacks = physical.columns.stacks
    decoded: dict = {}
    for _, k, groups, rows in windows:
        if (k, groups, rows) in decoded:
            continue
        if k == 1 and not groups and len(rows) == 1 and rows[0][0] == 4 and rows[0][2:] == (0, 1):
            u = stacks[4][rows[0][1]][:, _code(1)]
        else:
            u = propagate(_window_circuit(stacks, k, groups, rows), _code_columns(k))
        block = u[_code(k)]
        # What is left is U[outside, code], with no copy of it.
        u[_code(k)] = 0.0
        decoded[k, groups, rows] = block, float(spectral_norm(u)) if u.any() else 0.0
    picks = [(decoded[k, groups, rows], q) for q, k, groups, rows in windows]
    return [(block, q) for (block, _), q in picks], [leak for (_, leak), _ in picks]


def verify(physical: Circuit, logical: Circuit, epsilon: float | None = None) -> VerificationReport:
    """Compare the physical circuit, restricted to the encoded subspace,
    against the logical circuit (up to global phase).

    Nothing is read from the document but its rows.  The top-level entries
    are split into windows of adjacent logical qubits (:func:`_windows`);
    each distinct window is run once through :func:`propagate` on the code
    columns of its 2k physical qubits and read off as its code block D and
    its leakage (:func:`_decode`).  The blocks are composed on a 2^L x 2^L
    logical block, which is compared with the logical circuit's.

    Any split into windows applied in an order the circuit allows is sound.
    With U = U_m ... U_1 the windows in that order and P the code projector,
    the composed block is P U_m P ... P U_1 P.  Inserting P after U_j, for
    j < m, moves the product by at most |(1 - P) U_j P|, window j's
    leakage, and nothing is inserted after the last window.  So the
    composed block is within s' (the sum of the leakages of every window
    but the last) of P U P, and the computed fidelity within 2s' + s'^2 of
    the true one.  ``passed`` needs |1 - fidelity| + 2s' + s'^2 <= epsilon:
    the result is a certificate.  ``leakage`` is the sum s over every
    window, which bounds the true leakage.

    A circuit can leave the code between windows and come back.  When
    2s' + s'^2 is past the rounding resolution
    (:func:`_rounding_resolution`) and L <= WINDOW_QUBIT_CAP, one window
    over the whole circuit decides instead: its leakage is the true one and
    its s' is 0.  Past that cap the windows' bound stands, so such a
    circuit fails any epsilon below it.

    ParseError is raised unless the physical circuit has 2L qubits,
    TooLarge past DECODED_QUBIT_CAP logical qubits, then ParseError for an
    ``epsilon`` below the rounding resolution (:func:`check_resolution`),
    then TooLarge for an entry wider than a window may be.  No op is
    checked: both circuits hold only admitted ops (see
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
    if n > DECODED_QUBIT_CAP:
        raise TooLarge(
            f"verifying {n} logical qubits composes a 2^{n} x 2^{n} logical block, "
            f"over the cap of {DECODED_QUBIT_CAP} logical qubits"
        )
    if epsilon is not None:
        check_resolution(epsilon, physical)
    gates, leaks = _decode(physical, _windows(physical))
    s = sum(leaks[:-1], 0.0)
    bound = 2 * s + s * s
    if bound > _rounding_resolution(physical) and n <= WINDOW_QUBIT_CAP:
        (gates, leaks), bound = _decode(physical, _windows(physical, whole=True)), 0.0
    in_code = np.eye(2**n, dtype=complex)
    for gate, q in gates:
        in_code = _apply_adjacent(in_code, gate, q)
    ideal = propagate(logical, np.eye(2**n, dtype=complex))
    fidelity = float(abs(np.vdot(ideal, in_code) / 2**n) ** 2)
    return VerificationReport(
        mode="decoded",
        fidelity=fidelity,
        leakage=sum(leaks, 0.0),
        epsilon=epsilon,
        passed=None if epsilon is None else abs(1.0 - fidelity) + bound <= epsilon,
        target_uses=count_target_uses(physical),
        flat_op_count=physical.flat_count(),
    )
