"""Shared test helpers: random gate generators and independent oracles."""

import numpy as np
from scipy.linalg import expm, schur

from matchgates import fermion
from matchgates.circuits import Circuit, CircuitOp, RepeatedSegment
from matchgates.analysis import makhlin_invariants
from matchgates.compiler import Encoding
from matchgates.errors import (
    BadArity,
    BadSampleCount,
    BadTargets,
    MatchgatesError,
    NotParityPreserving,
    ParseError,
    UnknownGate,
)
from matchgates.fermion import (
    PROB_FLOOR,
    CovarianceState,
    MajoranaRotation,
    _condition,
    matchgate_generator_coefficients,
)
from matchgates.gates import (
    I2,
    Mat4,
    X,
    Y,
    Z,
    TOL_CLASSIFY,
    TOL_UNITARY,
    _require_unitary,
    build_pp,
    det2,
    gate_library,
    kron,
    off_block_weight,
    unitarity_defect,
)
from matchgates.io import FORMAT_VERSION, _angle_list, _library_gate, matrix_in


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pp(rng: np.random.Generator) -> np.ndarray:
    return build_pp(haar_unitary(rng, 2), haar_unitary(rng, 2))


def random_matchgate(rng: np.random.Generator) -> np.ndarray:
    """Random G(A, B) conditioned on det A = det B (phase-adjust B)."""
    a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
    phase = (np.angle(det2(a)) - np.angle(det2(b))) / 2.0
    return build_pp(a, b * np.exp(1j * phase))


def random_nonmatchgate_pp(rng: np.random.Generator) -> np.ndarray:
    """Random P.P. gate with det ratio bounded away from 1."""
    while True:
        g = random_pp(rng)
        a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
        g = build_pp(a, b)
        if abs(det2(a) - det2(b)) > 0.1:
            return g


def flat(circuit: Circuit):
    """Every op of ``circuit`` with repetition groups expanded."""
    for ops, count in circuit.walk():
        for _ in range(count):
            yield from ops


def random_matchgate_circuit(
    rng: np.random.Generator, n: int, depth: int
) -> Circuit:
    circuit = Circuit(n)
    for _ in range(depth):
        site = int(rng.integers(0, n - 1))
        circuit.append(random_matchgate(rng), (site, site + 1))
    return circuit


def majorana_operators(n: int) -> list[np.ndarray]:
    """Dense Jordan-Wigner Majoranas: c_{2k} = Z..Z X_k, c_{2k+1} = Z..Z Y_k."""
    ops = []
    for k in range(n):
        for pauli in (X, Y):
            m = np.eye(1, dtype=complex)
            for j in range(n):
                if j < k:
                    m = np.kron(m, Z)
                elif j == k:
                    m = np.kron(m, pauli)
                else:
                    m = np.kron(m, I2)
            ops.append(m)
    return ops


def embed(gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2^n matrix of ``gate`` on the ordered ``targets``: gate (x) I on
    the qubit order targets + the rest, with its basis permuted back to
    qubit 0 as the most-significant bit."""
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(gate, np.eye(2 ** len(rest)))
    index = np.arange(2**n)
    canonical = sum(
        ((index >> (n - 1 - a)) & 1) << (n - 1 - q)
        for a, q in enumerate(list(targets) + rest)
    )
    perm = np.zeros((2**n, 2**n))
    perm[canonical, index] = 1.0
    return perm @ full @ perm.T


def rotation_matrix(rot: MajoranaRotation) -> np.ndarray:
    """Dense SO(2n) matrix of a Majorana rotation: the identity with the
    block at Majorana indices 2*site onwards."""
    r = np.eye(2 * rot.n)
    s = 2 * rot.site
    r[s : s + len(rot.block), s : s + len(rot.block)] = rot.block
    return r


def batched_conjugation_block(g: np.ndarray, majoranas: np.ndarray) -> np.ndarray:
    """R_uv = Re tr(g^dag c_u g c_v) / d for each g of an (N, d, d) stack,
    as one batched product g^dag c_u g per gate and Majorana: the oracle of
    the single-product kernel ``fermion._conjugation_block``."""
    heis = np.conj(np.swapaxes(g, -1, -2))[:, None] @ majoranas @ g[:, None]
    return np.einsum("kuij,vji->kuv", heis, majoranas).real / g.shape[-1]


def generator_rotation_block(g: np.ndarray) -> np.ndarray:
    """SO(4) block of a matchgate from its quadratic generator: with
    G = e^{i delta} exp(i H),  H = sum_{u<v} alpha_uv (-i c_u c_v),  the block
    is exp(2 alpha).  Independent of the conjugation kernel."""
    coeff = matchgate_generator_coefficients(g)
    alpha = np.zeros((4, 4))
    alpha[0, 1] = coeff["ZI"]
    alpha[2, 3] = coeff["IZ"]
    alpha[1, 2] = coeff["XX"]
    alpha[0, 3] = -coeff["YY"]
    alpha[1, 3] = coeff["XY"]
    alpha[0, 2] = -coeff["YX"]
    return expm(2.0 * (alpha - alpha.T))


def principal_log_pauli_coefficients(g: np.ndarray) -> dict[str, float]:
    """Projection of the principal log of a P.P. gate onto its Pauli support
    {II, XX, YY, XY, YX, ZI, IZ, ZZ}.

    Cross-check for the matchgate test: the gate is a matchgate iff the ZZ
    coefficient is 0 mod pi/2 (the principal branch can land on +-pi/2 for
    legitimate matchgates, which is why the library's rotation extraction
    works blockwise instead).
    """
    g = np.asarray(g, dtype=complex)
    t, z = schur(g, output="complex")
    h = z @ np.diag(np.angle(np.diag(t))) @ z.conj().T
    labels = {
        "II": kron(I2, I2),
        "XX": kron(X, X),
        "YY": kron(Y, Y),
        "XY": kron(X, Y),
        "YX": kron(Y, X),
        "ZI": kron(Z, I2),
        "IZ": kron(I2, Z),
        "ZZ": kron(Z, Z),
    }
    coeffs = {k: float((np.trace(p @ h) / 4.0).real) for k, p in labels.items()}
    recon = sum(c * labels[k] for k, c in coeffs.items())
    coeffs["residual"] = float(np.max(np.abs(h - recon)))
    return coeffs


def isometry(enc: Encoding) -> np.ndarray:
    """The encoding's 2^(2L) x 2^L isometry from logical to physical states."""
    v = np.zeros((2**enc.physical_count, 2**enc.logical_count), dtype=complex)
    for x in range(2**enc.logical_count):
        v[enc.encode_index(x), x] = 1.0
    return v


def antisymmetry_defect(state: CovarianceState) -> float:
    return float(np.max(np.abs(state.m + state.m.T)))


def purity_defect(state: CovarianceState) -> float:
    return float(np.max(np.abs(state.m @ state.m.T - np.eye(2 * state.n))))


def measurement_probability(state: CovarianceState, k: int, outcome: int) -> float:
    """Probability of ``outcome`` for qubit k, read off the covariance."""
    mz = state.m[2 * k, 2 * k + 1]
    return float((1.0 + (1.0 - 2.0 * outcome) * mz) / 2.0)


# The per-entry document parser: each gate entry converted and checked on
# its own, 'matrix' entries checked for unitarity as they are read and 'g'
# blocks 64 entries at a time.  It is the oracle of the stacked parser in
# matchgates.io, which must give the same ops and the same refusals.
_G_CHECK_CHUNK = 64


def _oracle_gate_entry(entry: dict, where: str, g_blocks: list) -> CircuitOp:
    targets = entry.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ParseError(f"{where}: missing or empty 'targets'")
    if not all(isinstance(t, int) and not isinstance(t, bool) for t in targets):
        raise ParseError(f"{where}: 'targets' must be qubit indices, got {targets!r}")
    if len(targets) > 2:
        raise ParseError(f"{where}: gates act on 1 or 2 qubits, got {len(targets)} targets")
    targets = tuple(targets)
    name = entry.get("name")
    if not isinstance(name, str):
        raise ParseError(f"{where}: missing gate 'name'")
    tag = entry.get("tag")
    if tag is not None and not isinstance(tag, str):
        raise ParseError(f"{where}: 'tag' must be a string")
    key = name.lower()
    dim = 2 ** len(targets)
    if key == "matrix":
        gate = matrix_in(entry.get("matrix"), dim, f"{where}: matrix")
        try:
            _require_unitary(gate, "matrix")
        except MatchgatesError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        return CircuitOp(gate, targets, name="matrix", tag=tag)
    if key == "g":
        blocks = entry.get("blocks")
        if not isinstance(blocks, dict) or set(blocks) != {"a", "b"}:
            raise ParseError(f"{where}: gate 'g' needs blocks {{a, b}}")
        if len(targets) != 2:
            raise ParseError(f"{where}: gate 'g' acts on two qubits")
        a = matrix_in(blocks["a"], 2, f"{where}: block a")
        b = matrix_in(blocks["b"], 2, f"{where}: block b")
        g_blocks.append((where, a, b))
        gate = np.zeros(16, dtype=complex)
        gate[[0, 3, 12, 15]] = np.ravel(a)
        gate[[5, 6, 9, 10]] = np.ravel(b)
        return CircuitOp(gate.reshape(4, 4), targets, name="g", tag=tag)
    params = _angle_list(entry.get("params", []), where)
    gate = _library_gate(key, params, f"{where}: ")
    if gate.shape != (dim, dim):
        raise ParseError(
            f"{where}: gate {name!r} is a {gate.shape[0] // 2}-qubit gate but got "
            f"{len(targets)} target(s)"
        )
    return CircuitOp(gate, targets, name=key, params=params, tag=tag)


def _oracle_check_g_blocks(g_blocks: list) -> None:
    if not g_blocks:
        return
    defects = unitarity_defect(np.array([(a, b) for _, a, b in g_blocks]))
    for k in np.flatnonzero(~np.all(defects <= TOL_UNITARY, axis=1)):
        where, a, b = g_blocks[k]
        try:
            build_pp(a, b)
        except MatchgatesError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    g_blocks.clear()


def _oracle_ops(entries, where: str, g_blocks: list) -> list:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of gate entries")
    ops = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{spot}: gate entries must be objects")
        if "repeat" in entry:
            count = entry["repeat"]
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ParseError(f"{spot}: 'repeat' must be a positive integer")
            body = _oracle_ops(entry.get("gates", []), f"{spot}.gates", g_blocks)
            if any(isinstance(op, RepeatedSegment) for op in body):
                raise ParseError(f"{spot}: nested 'repeat' groups are not supported")
            ops.append(RepeatedSegment(tuple(body), count))
        else:
            ops.append(_oracle_gate_entry(entry, spot, g_blocks))
            if len(g_blocks) == _G_CHECK_CHUNK:
                _oracle_check_g_blocks(g_blocks)
    return ops


def per_entry_parse(doc: dict) -> Circuit:
    """The circuit of ``doc`` by the per-entry parser (see above)."""
    if not isinstance(doc, dict):
        raise ParseError("circuit document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    n = doc.get("qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("'qubits' must be a positive integer")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("'metadata' must be an object")
    circuit = Circuit(n, metadata=dict(metadata))
    g_blocks: list = []
    try:
        entries = _oracle_ops(doc.get("gates", []), "gates", g_blocks)
    except ParseError:
        _oracle_check_g_blocks(g_blocks)
        raise
    _oracle_check_g_blocks(g_blocks)
    for i, entry in enumerate(entries):
        try:
            circuit.add(entry)
        except BadTargets as exc:
            raise ParseError(f"gates[{i}]: {exc}") from exc
    return circuit


# The per-op document emitter: each op looked up in the library and
# converted on its own.  It is the oracle of the stacked emitter in
# matchgates.io, which must give the same documents.


def _oracle_matrix_out(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _oracle_emit_op(op: CircuitOp) -> dict:
    entry = {"targets": list(op.targets)}
    if op.tag:
        entry["tag"] = op.tag
    if op.name not in (None, "matrix", "g"):
        # By name only when the library reproduces the matrix exactly.
        try:
            lib = gate_library(op.name, op.params)
        except (UnknownGate, BadArity):
            lib = None
        if lib is not None and lib.shape == op.gate.shape and np.array_equal(lib, op.gate):
            entry["name"] = op.name
            if op.params:
                entry["params"] = [float(p) for p in op.params]
            return entry
    if op.gate.shape == (4, 4) and off_block_weight(op.gate) < 1e-12:
        g = np.asarray(op.gate, dtype=complex)
        entry["name"] = "g"
        entry["blocks"] = {
            "a": _oracle_matrix_out(g[np.ix_([0, 3], [0, 3])]),
            "b": _oracle_matrix_out(g[np.ix_([1, 2], [1, 2])]),
        }
        return entry
    entry["name"] = "matrix"
    entry["matrix"] = _oracle_matrix_out(op.gate)
    return entry


def per_op_emit(circuit: Circuit, metadata: dict | None = None) -> dict:
    """The document of ``circuit`` by the per-op emitter (see above)."""
    gates = []
    for entry in circuit.ops:
        if isinstance(entry, RepeatedSegment):
            gates.append({"repeat": entry.count, "gates": [_oracle_emit_op(op) for op in entry.body]})
        else:
            gates.append(_oracle_emit_op(entry))
    meta = dict(circuit.metadata)
    if metadata:
        meta.update(metadata)
    return {"format_version": FORMAT_VERSION, "qubits": circuit.n, "gates": gates, "metadata": meta}


class DimensionMismatch(MatchgatesError):
    """A rotation and a state of different qubit counts."""


def evolve(state: CovarianceState, rot: MajoranaRotation) -> CovarianceState:
    """M -> R M R^T; local O(n) update of the block's rows and columns."""
    if rot.n != state.n:
        raise DimensionMismatch(f"rotation is for n={rot.n}, state has n={state.n}")
    m = state.m.copy()
    sl = slice(2 * rot.site, 2 * rot.site + len(rot.block))
    m[sl, :] = rot.block @ m[sl, :]
    m[:, sl] = m[:, sl] @ rot.block.T
    return CovarianceState(state.n, m)


def measure_z(
    state: CovarianceState,
    k: int,
    seed_or_rng: int | np.random.Generator,
    force_outcome: int | None = None,
) -> tuple[int, CovarianceState]:
    """Measure Z_k; returns (outcome bit, post-measurement state).

    ``force_outcome`` post-selects (used by exact-distribution oracles); it
    is an error to force an outcome of probability below PROB_FLOOR.
    """
    if not 0 <= k < state.n:
        raise BadTargets(f"qubit {k} out of range")
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    u, v = 2 * k, 2 * k + 1
    m = state.m
    p0 = min(max((1.0 + m[u, v]) / 2.0, 0.0), 1.0)
    if force_outcome is None:
        if p0 >= 1.0 - PROB_FLOOR:
            outcome = 0
        elif p0 <= PROB_FLOOR:
            outcome = 1
        else:
            outcome = 0 if rng.random() < p0 else 1
    else:
        outcome = int(force_outcome)
    sign = 1.0 - 2.0 * outcome
    if (1.0 + sign * m[u, v]) / 2.0 < PROB_FLOOR:
        raise BadSampleCount(f"outcome {outcome} on qubit {k} has probability ~0")

    # Move the measured pair to the front, condition, and put the rest back.
    rest = np.r_[0:u, v + 1 : 2 * state.n]
    order = np.r_[u, v, rest]
    new = np.zeros_like(m)
    block = np.empty((1, len(rest), len(rest)))
    _condition(m[np.ix_(order, order)][None], np.zeros(1, dtype=np.intp), np.array([sign]), block)
    new[np.ix_(rest, rest)] = block[0]
    new[u, v] = sign
    new[v, u] = -sign
    return outcome, CovarianceState(state.n, new)


def full_matrix_sample(state: CovarianceState, shots: int, seed: int) -> dict[int, int]:
    """``sample_covariance`` without its light cone: every prefix of length k
    keeps the whole conditioned covariance of the 2(n-k) unmeasured modes.
    Same prefix tree, depth-first batches (sized by the whole child block
    under ``fermion.SAMPLER_BUDGET_BYTES``, read at call time), draws and
    clamps, so its histogram is the sampler's wherever their batches agree."""
    n = state.n
    rng = np.random.default_rng(seed)
    level_budget = fermion.SAMPLER_BUDGET_BYTES // n
    hist: dict[int, int] = {}
    words = np.zeros((1, (n + 63) // 64), dtype=np.uint64)
    stack = [(0, state.m[None], np.array([int(shots)]), words)]
    while stack:
        k, m, counts, prefixes = stack.pop()
        if k == n:
            for row, count in zip(prefixes.tolist(), counts.tolist()):
                hist[sum(w << (64 * j) for j, w in enumerate(row))] = count
            continue
        child_dim = 2 * (n - k - 1)
        take = max(1, level_budget // (2 * 8 * max(child_dim, 1) ** 2))
        if len(counts) > take:
            stack.append((k, m[take:], counts[take:], prefixes[take:]))
            m, counts, prefixes = m[:take], counts[:take], prefixes[:take]
        p0 = np.clip((1.0 + m[:, 0, 1]) / 2.0, 0.0, 1.0)
        p0[p0 >= 1.0 - PROB_FLOOR] = 1.0
        p0[p0 <= PROB_FLOOR] = 0.0
        zeros = rng.binomial(counts, p0)
        child_counts = np.stack([zeros, counts - zeros], axis=1).ravel()
        live = np.flatnonzero(child_counts)
        parent, outcome = np.divmod(live, 2)
        child_prefixes = prefixes[parent]
        word, bit = divmod(n - 1 - k, 64)
        child_prefixes[:, word] |= outcome.astype(np.uint64) << np.uint64(bit)
        child = np.empty((len(live), child_dim, child_dim))
        _condition(m, parent, 1.0 - 2.0 * outcome, child)
        stack.append((k + 1, child, child_counts[live], child_prefixes))
    return hist


def pp_product(g1: Mat4, g2: Mat4) -> Mat4:
    """Product of two parity-preserving unitaries; blocks multiply blockwise."""
    for i, g in enumerate((g1, g2)):
        g = _require_unitary(g, f"factor {i + 1}")
        if off_block_weight(g) > TOL_CLASSIFY:
            raise NotParityPreserving(
                f"factor {i + 1} has off-block weight {off_block_weight(g):.3e}"
            )
    return np.asarray(g1, dtype=complex) @ np.asarray(g2, dtype=complex)


def equal_up_to_global_phase(
    m: np.ndarray, n: np.ndarray, tol: float = 1e-9
) -> bool:
    """True iff e^{i phi} m == n entry-wise within ``tol`` for some real phi.

    The phase is anchored on the first entry of ``n`` with modulus >= 0.5
    (every row of a unitary has one; falls back to the largest entry).
    """
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    if m.shape != n.shape:
        return False
    flat_n = n.ravel()
    big = np.flatnonzero(np.abs(flat_n) >= 0.5)
    idx = big[0] if big.size else int(np.argmax(np.abs(flat_n)))
    ref = m.ravel()[idx]
    if abs(ref) < 1e-300:
        return False
    phi = flat_n[idx] / ref
    phi /= abs(phi)
    return bool(np.max(np.abs(phi * m - n)) <= tol)


def locally_equivalent(u: Mat4, v: Mat4, tol: float = 1e-8) -> bool:
    """Local-equivalence oracle via Makhlin-invariant agreement."""
    g1u, g2u = makhlin_invariants(u)
    g1v, g2v = makhlin_invariants(v)
    return abs(g1u - g1v) <= tol and abs(g2u - g2v) <= tol
