"""Seeded inputs for the benchmark's four workloads.

Every input is drawn here with this directory's own numpy code and written
out as JSON text by this module; nothing from the package or its tests is
used.  One (workload, seed, index) triple therefore gives byte-identical
documents on every commit of the package.

A request is one or two ``mgc`` command lines plus the files they read.
Command arguments that name files carry the ``{work}`` placeholder for the
work directory, so the input hash does not depend on where a run happens.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Logical two-qubit gates; targets[0] is the most-significant index bit and
# the CNOT control.
LOGICAL_2Q = {
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}

WORK = "{work}"
WORKLOADS = ("compile_generic", "ff_deep", "ff_shots", "sv_mixed")


@dataclass
class Request:
    """One closed-loop request: the files it reads, its ``mgc`` argument
    lists, and the facts about its inputs that the reference checks need."""

    workload: str
    index: int
    files: dict[str, str]
    commands: list[list[str]]
    spec: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def det2(m: np.ndarray) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def pp_gate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G(A, B): A on the even block {|00>, |11>}, B on {|01>, |10>}."""
    g = np.zeros((4, 4), dtype=complex)
    g[np.ix_([0, 3], [0, 3])] = a
    g[np.ix_([1, 2], [1, 2])] = b
    return g


def random_matchgate(rng: np.random.Generator) -> np.ndarray:
    a, b = haar(rng, 2), haar(rng, 2)
    phase = (np.angle(det2(a)) - np.angle(det2(b))) / 2.0
    return pp_gate(a, b * np.exp(1j * phase))


def random_nonmatchgate(rng: np.random.Generator) -> np.ndarray:
    """Parity-preserving G(A, B) with |det A - det B| > 0.1."""
    while True:
        a, b = haar(rng, 2), haar(rng, 2)
        if abs(det2(a) - det2(b)) > 0.1:
            return pp_gate(a, b)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def complex_rows(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def g_blocks(gate: np.ndarray) -> dict:
    return {
        "a": complex_rows(gate[[0, 0, 3, 3], [0, 3, 0, 3]].reshape(2, 2)),
        "b": complex_rows(gate[[1, 1, 2, 2], [1, 2, 1, 2]].reshape(2, 2)),
    }


def g_entry(gate: np.ndarray, targets, blocks: dict | None = None) -> dict:
    return {
        "name": "g",
        "targets": [int(t) for t in targets],
        "blocks": g_blocks(gate) if blocks is None else blocks,
    }


def matrix_entry(gate: np.ndarray, targets) -> dict:
    return {"name": "matrix", "targets": [int(t) for t in targets], "matrix": complex_rows(gate)}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def circuit_text(n: int, entries: list[dict]) -> str:
    return dumps({"format_version": 1, "qubits": n, "gates": entries, "metadata": {}})


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


# ---------------------------------------------------------------------------
# compile_generic
# ---------------------------------------------------------------------------

# One cycle of request shapes: (logical qubits, epsilon, [(kind, distance)]).
# Epsilon alternates.  The cycle length is odd so that a run's median and
# tail ranks fall inside a group of equal-sized requests, not on the edge
# between two (see run.percentile).  The paper's repetition schedule makes a
# request cost about n_cz^2 / sqrt(epsilon) target uses, where n_cz counts
# logical CZs after SWAP routing (6*distance - 5 for CZ/CNOT, 6*distance - 3
# for SWAP).
# Shapes are held to n_cz <= 2 at 1e-8 and n_cz <= 8 at 1e-6 so that one
# cycle takes a few seconds at the seed commit; non-adjacent pairs occur only
# at 1e-6 for the same reason.
COMPILE_SHAPES = (
    (2, 1e-6, (("swap", 1),)),
    (2, 1e-8, (("cz", 1),)),
    (3, 1e-6, (("cz", 2),)),
    (3, 1e-8, (("cnot", 1),)),
    (4, 1e-6, (("cz", 1), ("cnot", 1), ("cz", 1), ("cnot", 1))),
    (4, 1e-8, (("cz", 1),)),
    (2, 1e-6, (("cz", 1), ("cnot", 1), ("cz", 1), ("cnot", 1))),
    (2, 1e-8, (("cnot", 1), ("cz", 1))),
    (3, 1e-6, (("cnot", 2),)),
    (3, 1e-8, (("cz", 1), ("cnot", 1))),
    (4, 1e-6, (("cz", 2), ("cz", 1))),
    (4, 1e-8, (("cnot", 1),)),
    (2, 1e-6, (("cz", 1), ("cz", 1), ("cz", 1))),
    (2, 1e-8, (("cz", 1), ("cnot", 1))),
    (3, 1e-6, (("swap", 1), ("cz", 1), ("cnot", 1))),
    (3, 1e-8, (("cnot", 1),)),
    (4, 1e-6, (("cnot", 2),)),
    (4, 1e-8, (("cz", 1), ("cz", 1))),
    (2, 1e-6, (("cnot", 1), ("swap", 1))),
    (2, 1e-8, (("cnot", 1),)),
    (3, 1e-6, (("cz", 1), ("cz", 2))),
    (3, 1e-8, (("cz", 1),)),
    (4, 1e-6, (("swap", 1), ("cz", 1))),
    (4, 1e-8, (("cnot", 1), ("cz", 1))),
    (3, 1e-6, (("cz", 1), ("swap", 1))),
)

# Each target is drawn so that the paper's repetition schedule needs exactly
# r = round(scale / p) repetitions per CZ, where p = 4 eps_angle / pi is the
# chance that one more repetition lands in the angle window (so 1/p is the
# typical schedule length).  The scale is 0.5, 1, 1.5 and 1 in the four
# quarters of the shape cycle, so each (qubits, epsilon) pair meets each scale.
# det(A)/det(B) of a Haar pair is uniform on the circle, so this conditions a
# Haar target on its schedule length and leaves the rest Haar.  It gives every
# seed the same mix of cheap and dear requests; drawn freely, one request's
# cost spreads over two decades and a run's median depends on the seed.
SCHEDULE_SCALES = (0.5, 1.0, 1.5, 1.0)


def routed_cz_count(kind: str, distance: int) -> int:
    return 6 * distance - (3 if kind == "swap" else 5)


def angle_budget(epsilon: float, n_cz: int) -> float:
    """ZZ-angle tolerance per CZ under the paper's error budget."""
    return max(min(math.sqrt(epsilon) / (2.0 * n_cz), math.pi / 8), 1e-13)


def _window_distance(r: np.ndarray, beta: float) -> np.ndarray:
    return np.abs(np.mod(r * beta, math.pi / 2) - math.pi / 4)


def schedule_repetitions(beta: float, eps_angle: float, r_cap: int) -> int | None:
    """Least r <= r_cap with r*beta mod pi/2 within eps_angle of pi/4."""
    hits = np.flatnonzero(_window_distance(np.arange(1, r_cap + 1, dtype=np.float64), beta) <= eps_angle)
    return int(hits[0]) + 1 if hits.size else None


def _det_phase_for(rng, r: int, eps_angle: float) -> float:
    """beta in (-pi/4, pi/4], |beta| >= 0.03, whose schedule first lands in
    the window at exactly r."""
    k_lo = math.ceil((-math.pi / 4 * r - math.pi / 4) / (math.pi / 2))
    k_hi = math.floor((math.pi / 4 * r - math.pi / 4) / (math.pi / 2))
    earlier = np.arange(1, r, dtype=np.float64)
    while True:
        k = int(rng.integers(k_lo, k_hi + 1))
        delta = rng.uniform(-0.9, 0.9) * eps_angle
        beta = (math.pi / 4 + delta + k * math.pi / 2) / r
        if not 0.03 <= abs(beta) < math.pi / 4 - 1e-3:
            continue
        if not np.any(_window_distance(earlier, beta) <= eps_angle):
            return beta


def _compile_target(rng, epsilon: float, n_cz: int, scale: float) -> tuple[np.ndarray, int]:
    eps_angle = angle_budget(epsilon, n_cz)
    r = max(1, round(scale * math.pi / (4.0 * eps_angle)))
    beta = _det_phase_for(rng, r, eps_angle)
    a, b = haar(rng, 2), haar(rng, 2)
    # Rephase B so that det(A)/det(B) = e^{4 i beta}.
    phi = (np.angle(det2(a)) - np.angle(det2(b)) - 4.0 * beta) / 2.0
    return pp_gate(a, b * np.exp(1j * phi)), r


def compile_request(seed: int, index: int) -> Request:
    rng = _rng("compile_generic", seed, index)
    slot = index % len(COMPILE_SHAPES)
    n, epsilon, shape = COMPILE_SHAPES[slot]
    scale = SCHEDULE_SCALES[slot * len(SCHEDULE_SCALES) // len(COMPILE_SHAPES)]
    entries, ops = [], []

    def one_qubit(q):
        u = haar(rng, 2)
        entries.append(matrix_entry(u, [q]))
        ops.append((u, (q,)))

    for kind, distance in shape:
        lo = int(rng.integers(0, n - distance))
        pair = [lo, lo + distance]
        if rng.random() < 0.5:
            pair.reverse()
        for q in pair:
            one_qubit(q)
        entries.append({"name": kind, "targets": pair})
        ops.append((LOGICAL_2Q[kind], tuple(pair)))
    for q in range(n):
        one_qubit(q)

    n_cz = sum(routed_cz_count(kind, d) for kind, d in shape)
    target, r = _compile_target(rng, epsilon, n_cz, scale)
    tag = f"c{index}"
    files = {
        f"{tag}_logical.json": circuit_text(n, entries),
        f"{tag}_target.json": dumps({"matrix": complex_rows(target)}),
    }
    logical, gate = f"{WORK}/{tag}_logical.json", f"{WORK}/{tag}_target.json"
    commands = [
        ["analyze", "--gate", gate, "--json"],
        ["compile", "--input", logical, "--target", gate, "--epsilon", repr(epsilon),
         "--json", "--out", f"{WORK}/{tag}_physical.json"],
    ]
    spec = {
        "logical_qubits": n,
        "epsilon": epsilon,
        "ops": ops,
        "two_qubit_gates": len(shape),
        "target": target,
        "model_cz": n_cz,
        "model_target_uses": n_cz * r,
        "out": f"{tag}_physical.json",
    }
    return Request("compile_generic", index, files, commands, spec)


# ---------------------------------------------------------------------------
# Free-fermion and statevector simulation
# ---------------------------------------------------------------------------

FF_DEEP_QUBITS = 60
FF_DEEP_GATES = 2000
FF_DEEP_PALETTE = 64
# n = 20 twice: sorted by time, a cycle of these six sizes puts the median
# at the middle of the n = 20 requests and p75 at the middle of the n = 24
# ones, so neither rank sits near the edge of a group of equal sizes.
FF_SHOTS_SIZES = (12, 16, 20, 20, 24, 28)
FF_SHOTS = 1000
# (qubits, ops).  At 16 qubits the 1 MB state still fits one core's L2; at 18
# it spills into the L3 that other tenants of the machine share, and run
# medians moved by +-25% with their load.
SV_SIZES = ((14, 400), (15, 300), (16, 200))
SV_SHOTS = 1000


def _simulate_request(workload, index, n, steps, backend, shots, sim_seed, tag) -> Request:
    """``steps`` is a list of (gate, targets); a gate object used twice is
    serialized once."""
    blocks: dict[int, dict] = {}
    entries = []
    for g, t in steps:
        if len(t) == 1:
            entries.append(matrix_entry(g, t))
            continue
        if id(g) not in blocks:
            blocks[id(g)] = g_blocks(g)
        entries.append(g_entry(g, t, blocks[id(g)]))
    name = f"{tag}.json"
    spec = {"qubits": n, "steps": steps, "shots": shots, "gates": len(steps)}
    commands = [simulate_command(name, backend, shots, sim_seed)]
    return Request(workload, index, {name: circuit_text(n, entries)}, commands, spec)


def simulate_command(name: str, backend: str, shots: int, sim_seed: int) -> list[str]:
    return [
        "simulate", "--input", f"{WORK}/{name}", "--backend", backend,
        "--shots", str(shots), "--seed", str(sim_seed), "--json",
    ]


def ff_deep_request(seed: int, index: int) -> Request:
    """60 qubits, 2000 nearest-neighbour gates drawn from a 64-matchgate
    palette; each request has its own palette, so no gate is shared across
    requests."""
    rng = _rng("ff_deep", seed, index)
    palette = [random_matchgate(rng) for _ in range(FF_DEEP_PALETTE)]
    sites = rng.integers(0, FF_DEEP_QUBITS - 1, size=FF_DEEP_GATES)
    picks = rng.integers(0, FF_DEEP_PALETTE, size=FF_DEEP_GATES)
    steps = [(palette[p], (int(s), int(s) + 1)) for s, p in zip(sites, picks)]
    sim_seed = int(rng.integers(0, 2**31))
    return _simulate_request("ff_deep", index, FF_DEEP_QUBITS, steps, "ff", 1, sim_seed, f"d{index}")


def ff_shots_request(seed: int, index: int) -> Request:
    """A shallow brickwork of 2n distinct matchgates, sampled 1000 times."""
    rng = _rng("ff_shots", seed, index)
    n = FF_SHOTS_SIZES[index % len(FF_SHOTS_SIZES)]
    sites = [s for layer in range(4) for s in range(layer % 2, n - 1, 2)][: 2 * n]
    steps = [(random_matchgate(rng), (s, s + 1)) for s in sites]
    sim_seed = int(rng.integers(0, 2**31))
    return _simulate_request("ff_shots", index, n, steps, "ff", FF_SHOTS, sim_seed, f"s{index}")


def sv_circuit(seed: int, slot: int) -> tuple[int, list]:
    """Half matchgates, a fifth nonmatchgate P.P. gates on random pairs, the
    rest Haar single-qubit gates."""
    rng = _rng("sv_mixed", seed, 1_000_000 + slot)
    n, count = SV_SIZES[slot]
    steps = []
    for _ in range(count):
        u = rng.random()
        if u < 0.3:
            steps.append((haar(rng, 2), (int(rng.integers(0, n)),)))
            continue
        q0, q1 = (int(q) for q in rng.choice(n, size=2, replace=False))
        gate = random_matchgate(rng) if u < 0.8 else random_nonmatchgate(rng)
        steps.append((gate, (q0, q1)))
    return n, steps


def sv_request(seed: int, index: int, circuits: dict) -> Request:
    """The three circuits (one per size) are reused in turn; each request
    samples them with its own seed."""
    slot = index % len(SV_SIZES)
    if slot not in circuits:
        n, steps = sv_circuit(seed, slot)
        circuits[slot] = _simulate_request("sv_mixed", slot, n, steps, "sv", SV_SHOTS, 0, f"v{slot}")
    base = circuits[slot]
    sim_seed = int(_rng("sv_mixed", seed, index).integers(0, 2**31))
    command = simulate_command(next(iter(base.files)), "sv", SV_SHOTS, sim_seed)
    return Request("sv_mixed", index, base.files, [command], base.spec)


# Requests made per run before the stream wraps around to index 0 again.
POOL_SIZES = {"compile_generic": 168, "ff_deep": 36, "ff_shots": 60, "sv_mixed": 96}
# Length of the repeating pattern of request sizes.  Runs stop only at the
# end of a cycle, so every run holds the same mix of sizes and its median
# does not depend on where the time ran out.
CYCLES = {"compile_generic": len(COMPILE_SHAPES), "ff_deep": 1, "ff_shots": len(FF_SHOTS_SIZES), "sv_mixed": len(SV_SIZES)}


def make_requests(workload: str, seed: int, indices=None) -> list[Request]:
    """Requests of a workload's stream for ``seed``; by default the whole
    pool, 0..POOL_SIZES[workload]-1."""
    indices = range(POOL_SIZES[workload]) if indices is None else indices
    if workload == "compile_generic":
        return [compile_request(seed, i) for i in indices]
    if workload == "ff_deep":
        return [ff_deep_request(seed, i) for i in indices]
    if workload == "ff_shots":
        return [ff_shots_request(seed, i) for i in indices]
    if workload == "sv_mixed":
        circuits: dict = {}
        return [sv_request(seed, i, circuits) for i in indices]
    raise ValueError(f"unknown workload {workload!r}")


def inputs_hash(requests: list[Request]) -> str:
    """SHA-256 over every input file and command line, in request order."""
    h = hashlib.sha256()
    for req in requests:
        for name in sorted(req.files):
            h.update(name.encode())
            h.update(req.files[name].encode())
        h.update(json.dumps(req.commands).encode())
    return h.hexdigest()
