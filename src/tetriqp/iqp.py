"""Sparse IQP circuits: sampling, exact output distributions, the Ising
exponential sum, and GHZ-based depth-1 parallel compilation.

Circuits carry a T exponent in {0..7} per qubit and a CS exponent in {0..3}
per present pair. All phases live on the 16-element grid e^{i pi m / 8}; a
T^k on a set bit contributes 2k units and a CS^k on a set pair 4k units, so
amplitudes are read from an exact phase table and only the final
normalization is floating point.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import make_rng

EXACT_DISTRIBUTION_CAP = 24  # qubits for a full statevector
PROB_ZERO_CAP = 30  # qubits for the exponential-sum evaluation
CS_CHUNK = 1 << 16  # Philox words that _sample_cs holds at a time
PHASE_TABLE = np.array([cmath.exp(1j * math.pi * m / 8) for m in range(16)])


class ResourceCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class IqpCircuit:
    n: int
    t_exponents: tuple[int, ...]  # per qubit, in {0..7}
    cs_exponents: tuple[tuple[int, int, int], ...]  # (i, j, k) with i < j, k in {0..3}
    gamma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if len(self.t_exponents) != self.n:
            raise ValueError("t_exponents length != n")
        if any(not 0 <= t <= 7 for t in self.t_exponents):
            raise ValueError("T exponents must be in 0..7")
        seen = set()
        for i, j, k in self.cs_exponents:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad CS pair ({i},{j})")
            if not 0 <= k <= 3:
                raise ValueError("CS exponents must be in 0..3")
            if (i, j) in seen:
                raise ValueError(f"duplicate CS pair ({i},{j})")
            seen.add((i, j))

    def cs_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): k for i, j, k in self.cs_exponents}


@dataclass(frozen=True)
class Distribution:
    n: int
    probs: np.ndarray  # length 2^n, index bit q = qubit q outcome

    def __post_init__(self):
        if self.probs.shape != (1 << self.n,):
            raise ValueError("probability vector has wrong length")
        if np.any(self.probs < -1e-12):
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")


def sample_circuit(n: int, gamma: float, seed: int) -> IqpCircuit:
    """Draw a sparse IQP circuit: uniform T^k per qubit, CS^k per pair with
    probability min(1, gamma * log2(n) / n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    rng = make_rng(seed)
    t = tuple(int(x) for x in rng.integers(0, 8, size=n))
    p = min(1.0, gamma * math.log2(n) / n) if n > 1 else 0.0
    return IqpCircuit(n, t, _sample_cs(rng, n, p), gamma=gamma, seed=seed)


def _sample_cs(rng, n: int, p: float) -> tuple[tuple[int, int, int], ...]:
    """The CS gates of each pair i < j in row-major order, present with
    probability p, drawn from the raw Philox words exactly as the scalar
    loop `if rng.random() < p: rng.integers(0, 4)` draws them.

    A pair reads one 64-bit word w as the double (w >> 11) * 2^-53. A gate
    reads one 32-bit half: the generator's held half if it has one, else
    the low half of the next word, holding its high half. Lemire's method
    with range 4 never rejects, so the exponent is that half >> 30. The
    words are drawn CS_CHUNK at a time, and only the gates are walked in
    Python; the held half and the pair cursor carry from chunk to chunk.
    """
    pairs = n * (n - 1) // 2
    state = rng.bit_generator.state
    held = state["uinteger"] if state["has_uint32"] else None
    cs = []
    i, row_end = 0, n - 1  # the row of the last gate, and the first pair past it
    pair = 0  # the pair that reads the next word
    while pair < pairs:
        left = pairs - pair
        words = rng.bit_generator.random_raw(min(CS_CHUNK, left + (left + 1) // 2))
        doubles = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        pos = 0  # the next unread word
        for at in np.flatnonzero(doubles < p).tolist():
            if at < pos:  # the word a gate's half took
                continue
            pair += at - pos
            if pair >= pairs:
                break
            if held is None:  # the next word; past the chunk's end it is drawn alone
                word = int(words[at + 1] if at + 1 < len(words) else rng.bit_generator.random_raw())
                half, held, pos = word & 0xFFFFFFFF, word >> 32, at + 2
            else:
                half, held, pos = held, None, at + 1
            while pair >= row_end:
                i += 1
                row_end += n - 1 - i
            cs.append((i, pair - row_end + n, half >> 30))
            pair += 1
        pair += max(len(words) - pos, 0)
    return tuple(cs)


# ---------------------------------------------------------------------------
# Depth scheduling (edge coloring) and parallel compilation
# ---------------------------------------------------------------------------


def _misra_gries(n: int, edges) -> dict[tuple[int, int], int]:
    """Misra-Gries proper edge coloring with at most max_degree + 1 colors."""
    adj: dict[int, dict[int, int | None]] = {q: {} for q in range(n)}
    for i, j in edges:
        adj[i][j] = None
        adj[j][i] = None
    if not edges:
        return {}
    delta = max(len(a) for a in adj.values())
    palette = range(1, delta + 2)
    nbrs = {x: sorted(a) for x, a in adj.items()}
    # color -> number of x's edges with it, kept by set_color; the count can
    # reach 2 only halfway through a path inversion
    used: dict[int, dict[int, int]] = {q: {} for q in range(n)}

    def free(x):
        u = used[x]
        return next(c for c in palette if c not in u)

    def is_free(x, c):
        return c not in used[x]

    def set_color(a, b, c):
        for x, y in ((a, b), (b, a)):
            u, old = used[x], adj[x][y]
            if old is not None:
                if u[old] == 1:
                    del u[old]
                else:
                    u[old] -= 1
            u[c] = u.get(c, 0) + 1
            adj[x][y] = c

    def invert_cd_path(u, c, d):
        # c is free on u, so the maximal cd-alternating path has u as an
        # endpoint and leaves along the d edge; swap c and d on it
        x, want, prev = u, d, None
        path = []
        while True:
            nxt = None
            for y in nbrs[x]:
                if adj[x][y] == want and y != prev:
                    nxt = y
                    break
            if nxt is None:
                break
            path.append((x, nxt))
            prev, x = x, nxt
            want = c if want == d else d
        for a, b in path:
            set_color(a, b, c if adj[a][b] == d else d)

    for u, v in sorted(edges):
        # maximal fan of u starting at v
        fan = [v]
        in_fan = {v}
        grown = True
        while grown:
            grown = False
            for w in nbrs[u]:
                col = adj[u][w]
                if w in in_fan or col is None:
                    continue
                if is_free(fan[-1], col):
                    fan.append(w)
                    in_fan.add(w)
                    grown = True
                    break
        c = free(u)
        d = free(fan[-1])
        if c != d:
            invert_cd_path(u, c, d)
        # shortest valid prefix fan ending at a vertex with d free (re-checked
        # against the colors after the inversion)
        w_idx = None
        for i, w in enumerate(fan):
            if not is_free(w, d):
                continue
            ok = True
            for tpos in range(1, i + 1):
                cw = adj[u][fan[tpos]]
                if cw is None or not is_free(fan[tpos - 1], cw):
                    ok = False
                    break
            if ok:
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("edge-coloring invariant violated")
        for i in range(w_idx):
            set_color(u, fan[i], adj[u][fan[i + 1]])
        set_color(u, fan[w_idx], d)

    return {
        (min(a, b), max(a, b)): c
        for a in adj
        for b, c in adj[a].items()
        if a < b
    }


def schedule_depth(c: IqpCircuit) -> tuple[int, dict]:
    """Conflict-free step assignment; depth is at most max CS degree + 2.

    CS gates get steps from a proper edge coloring of the pair graph; a
    nonzero T exponent then takes the earliest free step on its qubit.
    """
    edges = [(i, j) for i, j, _ in c.cs_exponents]
    coloring = _misra_gries(c.n, edges)
    assign: dict = {}
    busy: dict[int, set[int]] = {q: set() for q in range(c.n)}
    for (i, j), step in sorted(coloring.items()):
        assign[("cs", i, j)] = step
        busy[i].add(step)
        busy[j].add(step)
    for q, t in enumerate(c.t_exponents):
        if t == 0:
            continue
        step = next(s for s in range(1, len(busy[q]) + 2) if s not in busy[q])
        assign[("t", q)] = step
        busy[q].add(step)
    k = max(assign.values(), default=1)
    # verify the schedule is conflict-free
    slots = set()
    for key, step in assign.items():
        qubits = key[1:] if key[0] == "cs" else (key[1],)
        for q in qubits:
            if (q, step) in slots:
                raise AssertionError("schedule conflict")
            slots.add((q, step))
    return k, assign


@dataclass(frozen=True)
class ParallelLayout:
    """Depth-1 compilation onto GHZ groups of size k.

    Wire (q, step) has index q * k + (step - 1); every gate acts at its
    scheduled step, so no two gates share a wire.
    """

    n: int
    k: int
    t_gates: tuple[tuple[int, int], ...]  # (wire, exponent)
    cs_gates: tuple[tuple[int, int, int], ...]  # (wire_a, wire_b, exponent)

    @property
    def wires(self) -> int:
        return self.n * self.k


def compile_parallel(c: IqpCircuit) -> ParallelLayout:
    k, assign = schedule_depth(c)
    t_gates = []
    for q, t in enumerate(c.t_exponents):
        if t:
            t_gates.append((q * k + assign[("t", q)] - 1, t))
    cs_gates = []
    for i, j, e in c.cs_exponents:
        s = assign[("cs", i, j)]
        cs_gates.append((i * k + s - 1, j * k + s - 1, e))
    return ParallelLayout(c.n, k, tuple(t_gates), tuple(cs_gates))


# ---------------------------------------------------------------------------
# Exact simulation
# ---------------------------------------------------------------------------


def _phase_units(z: np.ndarray, t_gates, cs_gates) -> np.ndarray:
    """Phase exponent (pi/8 units mod 16) of each basis state in z."""
    u = np.zeros(len(z), dtype=np.int64)
    for q, t in t_gates:
        u += 2 * t * ((z >> q) & 1)
    for a, b, e in cs_gates:
        u += 4 * e * ((z >> a) & 1) * ((z >> b) & 1)
    return u & 15


def _fwht(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack((top, bot), axis=1).reshape(n)
        h *= 2
    return a


def exact_distribution(c: IqpCircuit) -> Distribution:
    """Output distribution of the circuit sandwiched in the Hadamard basis."""
    if c.n > EXACT_DISTRIBUTION_CAP:
        raise ResourceCapExceeded(
            f"exact_distribution capped at {EXACT_DISTRIBUTION_CAP} qubits, got {c.n}"
        )
    z = np.arange(1 << c.n, dtype=np.int64)
    amps = PHASE_TABLE[_phase_units(z, enumerate(c.t_exponents), c.cs_exponents)]
    amps = _fwht(amps)
    probs = np.abs(amps) ** 2 / 4.0**c.n
    probs /= probs.sum()
    return Distribution(c.n, probs)


def prob_zero(c: IqpCircuit) -> float:
    """p(0^n) via the exponential sum 4^-n |sum_z e^{i pi theta(z)/8}|^2."""
    if c.n > PROB_ZERO_CAP:
        raise ResourceCapExceeded(
            f"prob_zero capped at {PROB_ZERO_CAP} qubits, got {c.n}"
        )
    total = 0.0 + 0.0j
    chunk = 1 << min(c.n, 20)
    size = 1 << c.n
    for start in range(0, size, chunk):
        z = np.arange(start, start + chunk, dtype=np.int64)
        u = _phase_units(z, enumerate(c.t_exponents), c.cs_exponents)
        counts = np.bincount(u, minlength=16)
        total += complex(np.dot(counts.astype(np.complex128), PHASE_TABLE))
    return abs(total) ** 2 / 4.0**c.n


def ising_partition(w: dict, v, omega: complex) -> complex:
    """Z(omega) = sum over z in {+-1}^n of omega^(sum w_ij z_i z_j + sum v_k z_k).

    Exact enumeration; the integer energies are bucketed first so the result
    is independent of enumeration order.
    """
    n = len(v)
    if n > EXACT_DISTRIBUTION_CAP:
        raise ResourceCapExceeded(
            f"ising_partition capped at {EXACT_DISTRIBUTION_CAP} spins, got {n}"
        )
    counts: Counter[int] = Counter()
    pairs = sorted((min(i, j), max(i, j), int(x)) for (i, j), x in w.items())
    for bits in range(1 << n):
        s = [1 - 2 * (bits >> q & 1) for q in range(n)]
        e = sum(x * s[i] * s[j] for i, j, x in pairs)
        e += sum(int(vk) * s[q] for q, vk in enumerate(v))
        counts[e] += 1
    return sum(cnt * omega**e for e, cnt in sorted(counts.items()))


def circuit_to_ising(c: IqpCircuit) -> tuple[dict, list[int]]:
    """Integer Ising weights with p(0^n) = 4^-n |Z(e^{i pi/8})|^2.

    Substituting z = (1 - s)/2 into the circuit phase gives edge weights
    w_ij = cs_ij and vertex weights v_k = -(t_k + sum_j cs_kj), up to a
    global phase that drops out of |Z|^2.
    """
    cs = c.cs_map()
    w = {(i, j): k for (i, j), k in cs.items()}
    v = []
    for q in range(c.n):
        tot = c.t_exponents[q]
        for (i, j), k in cs.items():
            if q in (i, j):
                tot += k
        v.append(-tot)
    return w, v


def simulate_parallel_exact(layout: ParallelLayout) -> Distribution:
    """Exact logical-outcome distribution of the depth-1 GHZ compilation.

    Each logical qubit is a GHZ state over its k wires; all gates act in one
    layer; every wire is measured in the Hadamard basis and the k wire
    outcomes of a group are XOR-aggregated into the logical outcome.
    """
    nk = layout.wires
    if nk > EXACT_DISTRIBUTION_CAP:
        raise ResourceCapExceeded(
            f"simulate_parallel_exact capped at {EXACT_DISTRIBUTION_CAP} wires, got {nk}"
        )
    n, k = layout.n, layout.k
    state = np.zeros(1 << nk, dtype=np.complex128)
    group_mask = (1 << k) - 1
    # GHZ-basis support: the wire bits of group q all equal bit q of g
    g = np.arange(1 << n, dtype=np.int64)
    reps = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        reps |= ((g >> q) & 1) * (group_mask << (q * k))
    u = _phase_units(
        g,
        [(w // k, t) for w, t in layout.t_gates],
        [(wa // k, wb // k, e) for wa, wb, e in layout.cs_gates],
    )
    state[reps] = PHASE_TABLE[u] / math.sqrt(1 << n)
    amps = _fwht(state) / math.sqrt(1 << nk)
    probs = np.abs(amps) ** 2
    # aggregate wire outcomes: logical bit q = XOR of its k wire bits
    idx = np.arange(1 << nk, dtype=np.int64)
    logical = np.zeros(1 << nk, dtype=np.int64)
    for q in range(n):
        block = (idx >> (q * k)) & group_mask
        par = block
        shift = 1
        while shift < k:
            par ^= par >> shift
            shift <<= 1
        logical |= (par & 1) << q
    out = np.bincount(logical, weights=probs, minlength=1 << n)
    out /= out.sum()
    return Distribution(n, out)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def tv_distance(p: Distribution, q: Distribution) -> float:
    if p.n != q.n:
        raise ValueError(f"distributions over different qubit counts: {p.n} != {q.n}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def empirical_tv(
    samples, p: Distribution, bootstrap: int = 200, seed: int = 0
) -> tuple[float, float, float]:
    """Plug-in TV estimate of sampled outcomes against p, with bootstrap CI."""
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=1 << p.n)
    m = counts.sum()
    if m == 0:
        raise ValueError("no samples")
    emp = counts / m
    tv = 0.5 * float(np.abs(emp - p.probs).sum())
    rng = make_rng(seed)
    boots = []
    for _ in range(bootstrap):
        re = rng.multinomial(m, emp) / m
        boots.append(0.5 * float(np.abs(re - p.probs).sum()))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return tv, float(lo), float(hi)


# ---------------------------------------------------------------------------
# File interchange
# ---------------------------------------------------------------------------


def circuit_to_dict(c: IqpCircuit) -> dict:
    return {
        "n": c.n,
        "gamma": c.gamma,
        "t": list(c.t_exponents),
        "cs": [{"i": i, "j": j, "k": k} for i, j, k in c.cs_exponents],
        "seed": c.seed,
    }


def _file_int(x, field: str) -> int:
    """An int field of a circuit file, as is: a bool, float or str is refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{field} must be an int, got {x!r}")
    return x


def circuit_from_dict(d: dict) -> IqpCircuit:
    """The circuit of `circuit_to_dict`'s keys. n, every T exponent and the
    i, j and k of every CS gate must be ints and the seed an int or null;
    anything else raises ValueError naming the field."""
    try:
        n = _file_int(d["n"], "n")
        t = tuple(_file_int(x, f"t[{q}]") for q, x in enumerate(d["t"]))
        cs = tuple(
            tuple(_file_int(g[f], f"cs[{c}].{f}") for f in "ijk") for c, g in enumerate(d["cs"])
        )
        seed = d.get("seed")
        return IqpCircuit(
            n, t, cs,
            gamma=float(d.get("gamma", 0.0)),
            seed=None if seed is None else _file_int(seed, "seed"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"circuit file: {e}") from e


def export_circuit(c: IqpCircuit, path) -> None:
    Path(path).write_text(json.dumps(circuit_to_dict(c), indent=1))


def import_circuit(path) -> IqpCircuit:
    return circuit_from_dict(json.loads(Path(path).read_text()))


def export_distribution(d: Distribution, path) -> None:
    """CSV rows `bitstring,probability`; bit q of the string is qubit q."""
    lines = ["bitstring,probability"]
    for idx in range(1 << d.n):
        bits = "".join("1" if idx >> q & 1 else "0" for q in range(d.n))
        lines.append(f"{bits},{d.probs[idx]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
