"""Independent references and output checks for the benchmark.

Nothing here imports the package: the checks read the JSON that ``mgc``
prints or writes and compare it with this module's own numpy models.

* compile_generic: the emitted physical document is read here (only ``g``
  blocks and ``repeat`` groups may occur), each repeat group is folded as a
  power of its 4x4 body product, and the encoded basis is pushed through.
  Leakage must be <= 1e-9 and infidelity <= epsilon against the logical
  unitary built here.
* ff_*: Majorana covariance propagation with R_uv = tr(G^dag c_u G c_v) / 4
  on the pair's four local Majoranas; reported <Z_k> must match to 1e-9.
* sv_mixed and ff_*: the histogram must sum to the shot count and each
  qubit's frequency of 1 must lie within 5 sigma of the exact marginal.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import I2, X, Y, Z

LEAKAGE_TOL = 1e-9
Z_TOL = 1e-9
SIGMAS = 5.0


class CheckFailed(Exception):
    """An output disagrees with the reference; the message says where."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _complex_matrix(rows, dim: int) -> np.ndarray:
    m = np.array(rows, dtype=float)
    _require(m.shape == (dim, dim, 2), f"expected a {dim}x{dim} matrix of [re, im] pairs")
    return m[..., 0] + 1j * m[..., 1]


# ---------------------------------------------------------------------------
# Dense tensordot simulation
# ---------------------------------------------------------------------------


def apply_gate(state: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Apply a k-qubit gate to axes ``targets`` of a (2,)*n [+ (cols,)] tensor;
    targets[0] is the gate's most-significant index bit."""
    k = len(targets)
    g = gate.reshape((2,) * (2 * k))
    out = np.tensordot(g, state, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(out, list(range(k)), list(targets))


def unitary(n: int, steps) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a list of (gate, targets)."""
    u = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
    for gate, targets in steps:
        u = apply_gate(u, gate, targets)
    return u.reshape(2**n, 2**n)


def statevector(n: int, steps) -> np.ndarray:
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate, targets in steps:
        psi = apply_gate(psi, gate, targets)
    return psi


def one_marginals_sv(psi: np.ndarray) -> np.ndarray:
    """P(qubit k reads 1) for each k."""
    probs = np.abs(psi) ** 2
    n = probs.ndim
    return np.array(
        [probs.sum(axis=tuple(j for j in range(n) if j != k))[1] for k in range(n)]
    )


# ---------------------------------------------------------------------------
# Majorana covariance propagation
# ---------------------------------------------------------------------------

# The four Majoranas local to a nearest-neighbour pair (s, s+1).  The Z
# strings on qubits left of s commute with a gate on the pair, so they drop.
LOCAL_MAJORANAS = (np.kron(X, I2), np.kron(Y, I2), np.kron(Z, X), np.kron(Z, Y))


def majorana_rotation(gate: np.ndarray) -> np.ndarray:
    """R with G^dag c_u G = sum_v R_uv c_v."""
    r = np.empty((4, 4))
    for u, cu in enumerate(LOCAL_MAJORANAS):
        heis = gate.conj().T @ cu @ gate
        for v, cv in enumerate(LOCAL_MAJORANAS):
            r[u, v] = (np.trace(heis @ cv) / 4.0).real
    return r


def z_expectations(n: int, steps) -> np.ndarray:
    """<Z_k> after nearest-neighbour matchgates on |0...0>."""
    m = np.zeros((2 * n, 2 * n))
    for k in range(n):
        m[2 * k, 2 * k + 1], m[2 * k + 1, 2 * k] = 1.0, -1.0
    rotations: dict[int, np.ndarray] = {}
    for gate, targets in steps:
        s = 2 * targets[0]
        _require(targets[1] == targets[0] + 1, f"pair {targets} is not nearest-neighbour")
        r = rotations.get(id(gate))
        if r is None:
            r = rotations[id(gate)] = majorana_rotation(gate)
        m[s : s + 4, :] = r @ m[s : s + 4, :]
        m[:, s : s + 4] = m[:, s : s + 4] @ r.T
    return np.array([m[2 * k, 2 * k + 1] for k in range(n)])


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


def check_histogram(counts, n: int, shots: int, p_one: np.ndarray) -> None:
    _require(isinstance(counts, dict), "counts missing")
    total = 0
    ones = np.zeros(n)
    for bits, c in counts.items():
        _require(len(bits) == n and set(bits) <= {"0", "1"}, f"bad outcome key {bits!r}")
        _require(isinstance(c, int) and c > 0, f"bad count {c!r}")
        total += c
        ones += c * (np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1"))
    _require(total == shots, f"histogram sums to {total}, expected {shots}")
    freq = ones / shots
    sigma = np.sqrt(p_one * (1.0 - p_one) / shots)
    dev = np.abs(freq - p_one) - (SIGMAS * sigma + 1e-9)
    worst = int(np.argmax(dev))
    _require(
        dev[worst] <= 0,
        f"qubit {worst} reads 1 with frequency {freq[worst]:.4f}, expected "
        f"{p_one[worst]:.4f} +- {SIGMAS:g} sigma ({sigma[worst]:.4f})",
    )


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


class Checker:
    """Reference results are computed once per distinct input and reused
    for every request that repeats it."""

    def __init__(self):
        self._cache: dict = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, req, stdouts: list[str], out_text: str | None) -> dict:
        """Raise CheckFailed on a wrong output; return the request's counters."""
        if req.workload == "compile_generic":
            return self._check_compile(req, stdouts, out_text)
        return self._check_simulate(req, stdouts[0])

    def _check_simulate(self, req, stdout: str) -> dict:
        spec = req.spec
        n, shots = spec["qubits"], spec["shots"]
        payload = _json(stdout, "simulate")
        _require(payload.get("qubits") == n, "wrong qubit count")
        key = next(iter(req.files))
        if req.workload == "sv_mixed":
            p_one = self._cached(key, lambda: one_marginals_sv(statevector(n, spec["steps"])))
        else:
            ref_z = self._cached(key, lambda: z_expectations(n, spec["steps"]))
            got = np.array(payload.get("z_expectations", []), dtype=float)
            _require(got.shape == (n,), "z_expectations missing or of wrong length")
            err = np.abs(got - ref_z)
            worst = int(np.argmax(err))
            _require(
                err[worst] <= Z_TOL,
                f"<Z_{worst}> = {got[worst]!r}, reference {ref_z[worst]!r}",
            )
            p_one = np.clip((1.0 - ref_z) / 2.0, 0.0, 1.0)
        check_histogram(payload.get("counts"), n, shots, p_one)
        return {"gates": spec["gates"], "shots": shots}

    def _check_compile(self, req, stdouts, out_text) -> dict:
        spec = req.spec
        n, eps = spec["logical_qubits"], spec["epsilon"]
        target = spec["target"]

        report = _json(stdouts[0], "analyze")
        _require(
            report.get("is_unitary") is True
            and report.get("is_pp") is True
            and report.get("is_matchgate") is False,
            "analyze misclassified the target",
        )
        a = target[np.ix_([0, 3], [0, 3])]
        b = target[np.ix_([1, 2], [1, 2])]
        ratio = np.linalg.det(a) / np.linalg.det(b)
        got = complex(*report.get("det_ratio", [math.nan, math.nan]))
        _require(abs(got - ratio) <= 1e-9, f"det_ratio {got} != reference {ratio}")

        summary = _json(stdouts[1], "compile")
        _require(out_text is not None, "compile wrote no --out file")
        doc = _json(out_text, "compiled document")
        phys = read_physical(doc, 2 * n)
        _require(summary.get("verification", {}).get("passed") is True, "mgc verification did not pass")
        _require(summary.get("target_uses") == phys["target_uses"], "target_uses disagrees with the document")
        _require(summary.get("flat_op_count") == phys["flat_ops"], "flat_op_count disagrees with the document")

        u_log = self._cached(("logical", req.index), lambda: unitary(n, spec["ops"]))
        leakage, infidelity = encoded_error(phys["steps"], n, u_log)
        _require(leakage <= LEAKAGE_TOL, f"leakage {leakage:.3e} > {LEAKAGE_TOL:g}")
        _require(infidelity <= eps, f"infidelity {infidelity:.3e} > epsilon {eps:g}")

        meta = doc.get("metadata", {})
        provenance = meta.get("provenance", [])
        return {
            "two_qubit_gates": spec["two_qubit_gates"],
            "target_uses": phys["target_uses"],
            "flat_ops": phys["flat_ops"],
            "repetitions": meta.get("plan", {}).get("repetitions", 0),
            "routed_cz": sum(1 for p in provenance if p.get("kind") == "cz"),
            "leakage": leakage,
            "infidelity": infidelity,
        }


def _json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{what} output is not JSON: {exc}") from exc
    _require(isinstance(doc, dict), f"{what} output is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Compiled documents
# ---------------------------------------------------------------------------


def _g_gate(entry: dict, n: int) -> tuple[np.ndarray, tuple[int, int]]:
    _require(entry.get("name") == "g", f"unexpected op {entry.get('name')!r} in compiled document")
    targets = tuple(entry.get("targets", ()))
    _require(
        len(targets) == 2 and all(isinstance(t, int) and 0 <= t < n for t in targets),
        f"bad targets {targets}",
    )
    blocks = entry["blocks"]
    g = np.zeros((4, 4), dtype=complex)
    g[np.ix_([0, 3], [0, 3])] = _complex_matrix(blocks["a"], 2)
    g[np.ix_([1, 2], [1, 2])] = _complex_matrix(blocks["b"], 2)
    return g, targets


def read_physical(doc: dict, n: int) -> dict:
    """Steps of a compiled document with every repeat group folded into one
    4x4 matrix power, plus its flat op and target-use counts."""
    _require(doc.get("qubits") == n, f"compiled document has {doc.get('qubits')} qubits, expected {n}")
    steps, flat, uses = [], 0, 0
    for entry in doc.get("gates", []):
        if "repeat" in entry:
            count = entry["repeat"]
            _require(isinstance(count, int) and count >= 1, "bad repeat count")
            body = [_g_gate(e, n) for e in entry.get("gates", [])]
            _require(body, "empty repeat group")
            pair = body[0][1]
            _require(all(t == pair for _, t in body), "repeat body spans more than one pair")
            product = np.eye(4, dtype=complex)
            for g, _ in body:
                product = g @ product
            steps.append((np.linalg.matrix_power(product, count), pair))
            flat += count * len(body)
            uses += count * sum(1 for e in entry["gates"] if e.get("tag") == "target")
        else:
            steps.append(_g_gate(entry, n))
            flat += 1
            uses += entry.get("tag") == "target"
    return {"steps": steps, "flat_ops": flat, "target_uses": uses}


def encode_index(x: int, n: int) -> int:
    """Physical basis index of logical basis state x: |1>_L = |11>."""
    idx = 0
    for i in range(n):
        if (x >> (n - 1 - i)) & 1:
            idx |= 0b11 << (2 * n - 2 - 2 * i)
    return idx


def encoded_error(steps, n: int, u_logical: np.ndarray) -> tuple[float, float]:
    """(leakage, infidelity) of physical ``steps`` on the pair encoding of
    ``n`` logical qubits against ``u_logical``."""
    dim = 2**n
    v = np.zeros((4**n, dim), dtype=complex)
    for x in range(dim):
        v[encode_index(x, n), x] = 1.0
    w = v.reshape((2,) * (2 * n) + (dim,))
    for gate, targets in steps:
        w = apply_gate(w, gate, targets)
    w = w.reshape(4**n, dim)
    u_sub = v.conj().T @ w
    leakage = float(np.linalg.norm(w - v @ u_sub, 2))
    fidelity = abs(np.trace(u_logical.conj().T @ u_sub) / dim) ** 2
    return leakage, float(1.0 - fidelity)
