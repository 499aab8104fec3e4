import itertools
import math
import random
from collections import defaultdict

import numpy as np
import pytest

from tetriqp import iqp
from tetriqp.rng import make_rng


def rand_circuit(rng, n, p_cs=0.4):
    t = tuple(rng.randrange(8) for _ in range(n))
    cs = tuple(
        (i, j, rng.randrange(4))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_cs
    )
    return iqp.IqpCircuit(n, t, cs)


def test_identity_circuit():
    d = iqp.exact_distribution(iqp.IqpCircuit(1, (0,), ()))
    assert d.probs[0] == pytest.approx(1.0)


def test_t4_is_z():
    d = iqp.exact_distribution(iqp.IqpCircuit(1, (4,), ()))
    assert d.probs[1] == pytest.approx(1.0, abs=1e-12)


def test_single_t_gate():
    assert iqp.prob_zero(iqp.IqpCircuit(1, (1,), ())) == pytest.approx(
        math.cos(math.pi / 8) ** 2
    )


def test_cz_quarter():
    d = iqp.exact_distribution(iqp.IqpCircuit(2, (0, 0), ((0, 1, 2),)))
    assert d.probs[0] == pytest.approx(0.25)


def test_distribution_normalization():
    rng = random.Random(0)
    for _ in range(30):
        c = rand_circuit(rng, rng.randrange(1, 7))
        d = iqp.exact_distribution(c)
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12


def test_gate_order_invariance():
    rng = random.Random(4)
    c = rand_circuit(rng, 5)
    shuffled = list(c.cs_exponents)
    rng.shuffle(shuffled)
    c2 = iqp.IqpCircuit(5, c.t_exponents, tuple(shuffled))
    d1, d2 = iqp.exact_distribution(c), iqp.exact_distribution(c2)
    assert np.max(np.abs(d1.probs - d2.probs)) <= 1e-12


def test_prob_zero_matches_statevector():
    rng = random.Random(1)
    for _ in range(100):
        c = rand_circuit(rng, rng.randrange(1, 9))
        assert abs(iqp.prob_zero(c) - float(iqp.exact_distribution(c).probs[0])) <= 1e-9


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_sampler_p_one_takes_every_pair_in_row_major_order():
    # gamma = 8 gives p = min(1, 8 log2(n) / n) = 1 at n = 2 and 4
    for n in (2, 4):
        for seed in range(4):
            c = iqp.sample_circuit(n, 8.0, seed)
            assert [(i, j) for i, j, _ in c.cs_exponents] == _pairs(n)


def test_sampler_maps_pairs_to_rows(monkeypatch):
    # the pair -> (i, j) map on every pair of small n, and at n = 300 on the
    # first and last pair of every row, the last pair (n - 2, n - 1) included
    drawn = []

    def positions(rng, p, size):
        drawn.append(size)
        return np.array(chosen, dtype=np.int64)

    monkeypatch.setattr(iqp, "bernoulli_positions", positions)
    for n in (2, 3, 5, 17, 300):
        pairs = _pairs(n)
        chosen = range(len(pairs))
        if n == 300:
            chosen = sorted({s for s, (i, j) in enumerate(pairs) if j in (i + 1, n - 1)})
            assert pairs[chosen[-1]] == (n - 2, n - 1)
        c = iqp.sample_circuit(n, 1.0, 0)
        assert drawn.pop() == len(pairs)
        assert [(i, j) for i, j, _ in c.cs_exponents] == [pairs[s] for s in chosen]


def test_sampler_draw_order():
    # T exponents first, as one draw of n, so they do not depend on gamma
    for n, seed in ((1, 0), (5, 3), (64, 9)):
        want = make_rng(seed).integers(0, 8, n).tolist()
        for gamma in (0.0, 1.0, 8.0):
            assert list(iqp.sample_circuit(n, gamma, seed).t_exponents) == want


def test_sampler_single_qubit_has_no_gate():
    for gamma in (0.0, 1.0, 8.0):
        assert iqp.sample_circuit(1, gamma, 0).cs_exponents == ()


def test_sampler_pair_frequency_and_cs_exponents():
    # N=16, gamma=1: each of the 120 pairs present with probability 1/4 in
    # each of 400 circuits; exponents uniform over 0..3. Chi-square tests,
    # rejecting only at p ~ 0.001 (120 and 3 dof)
    n, circuits, p = 16, 400, 0.25
    hits = dict.fromkeys(_pairs(n), 0)
    exps = [0] * 4
    for s in range(circuits):
        for i, j, k in iqp.sample_circuit(n, 1.0, s).cs_exponents:
            hits[(i, j)] += 1
            exps[k] += 1
    mean, var = circuits * p, circuits * p * (1 - p)
    assert sum((h - mean) ** 2 / var for h in hits.values()) < 173.6
    expected = sum(exps) / 4
    assert sum((e - expected) ** 2 / expected for e in exps) < 16.27


def test_sampler_gamma_zero():
    for n, seed in ((16, 3), (2, 0), (200, 1)):
        assert not iqp.sample_circuit(n, 0.0, seed).cs_exponents


def test_sampler_cs_count_expectation():
    # N=16, gamma=1: pair probability 4/16, expected count C(16,2)/4 = 30
    total = 0
    trials = 400
    for s in range(trials):
        total += len(iqp.sample_circuit(16, 1.0, s).cs_exponents)
    mean = total / trials
    sigma = math.sqrt(120 * (1 / 4) * (3 / 4) / trials)
    assert abs(mean - 30.0) <= 4 * sigma


def test_sampler_t_uniform():
    counts = [0] * 8
    for s in range(200):
        for t in iqp.sample_circuit(64, 1.0, 1000 + s).t_exponents:
            counts[t] += 1
    total = sum(counts)
    expected = total / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 7 dof; reject only at extreme significance (p ~ 0.001)
    assert chi2 < 24.3


def test_schedule_all_t():
    c = iqp.IqpCircuit(3, (1, 5, 2), ())
    k, assign = iqp.schedule_depth(c)
    assert k == 1


def test_schedule_triangle():
    c = iqp.IqpCircuit(3, (0, 0, 0), ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
    k, _ = iqp.schedule_depth(c)
    assert k == 3


def test_schedule_bound_and_conflict_free():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(2, 10)
        c = rand_circuit(rng, n, p_cs=0.5)
        k, assign = iqp.schedule_depth(c)
        deg = defaultdict(int)
        for i, j, _ in c.cs_exponents:
            deg[i] += 1
            deg[j] += 1
        delta = max(deg.values(), default=0)
        assert k <= delta + 2
        slots = set()
        for key, step in assign.items():
            qubits = key[1:] if key[0] == "cs" else (key[1],)
            for q in qubits:
                assert (q, step) not in slots
                slots.add((q, step))


def _misra_gries_reference(n, edges):
    """The coloring before the used-color sets were kept incrementally: it
    rebuilds a vertex's used colors on every query. The oracle for
    iqp._misra_gries, which must give the same coloring."""
    adj = {q: {} for q in range(n)}
    for i, j in edges:
        adj[i][j] = None
        adj[j][i] = None
    if not edges:
        return {}
    delta = max(len(a) for a in adj.values())
    palette = range(1, delta + 2)

    def used(x):
        return {c for c in adj[x].values() if c is not None}

    def free(x):
        u = used(x)
        return next(c for c in palette if c not in u)

    def is_free(x, c):
        return c not in used(x)

    def set_color(a, b, c):
        adj[a][b] = c
        adj[b][a] = c

    def invert_cd_path(u, c, d):
        x, want, prev = u, d, None
        path = []
        while True:
            nxt = None
            for y in sorted(adj[x]):
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
        fan = [v]
        in_fan = {v}
        grown = True
        while grown:
            grown = False
            for w in sorted(adj[u]):
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
        for i in range(w_idx):
            set_color(u, fan[i], adj[u][fan[i + 1]])
        set_color(u, fan[w_idx], d)

    return {(min(a, b), max(a, b)): c for a in adj for b, c in adj[a].items() if a < b}


def test_misra_gries_equals_reference_coloring():
    # random graphs from sparse to complete, in shuffled edge order, and a
    # graph shaped like the n=1024 circuits of test_schedule_depth_scaling
    # (each CS pair with probability log2(n) / n)
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(2, 25)
        p = rng.choice((0.05, 0.2, 0.5, 1.0))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        rng.shuffle(edges)
        got = iqp._misra_gries(n, edges)
        assert got == _misra_gries_reference(n, edges)
        assert len(got) == len(edges)
    n = 1024
    upper = np.triu(np.random.default_rng(6).random((n, n)) < math.log2(n) / n, 1)
    edges = [tuple(e) for e in np.argwhere(upper).tolist()]
    assert iqp._misra_gries(n, edges) == _misra_gries_reference(n, edges)


def test_schedule_depth_scaling():
    # average depth grows with N like log N (ratio test on gamma=1 samples)
    means = []
    for n in (64, 256, 1024):
        ks = [iqp.schedule_depth(iqp.sample_circuit(n, 1.0, s))[0] for s in range(12)]
        means.append(sum(ks) / len(ks))
    assert means[0] < means[1] < means[2] + 1e-9 or means[1] <= means[2]
    # growth is far slower than linear in N
    assert means[2] / means[0] < (1024 / 64) ** 0.5


def test_compile_parallel_wire_count():
    rng = random.Random(2)
    c = rand_circuit(rng, 4)
    lay = iqp.compile_parallel(c)
    assert lay.wires == 4 * lay.k
    used = set()
    for w, _ in lay.t_gates:
        assert w not in used
        used.add(w)
    for wa, wb, _ in lay.cs_gates:
        assert wa not in used and wb not in used
        used.update((wa, wb))


def test_parallel_depth1_identity():
    c = iqp.IqpCircuit(2, (3, 5), ())
    lay = iqp.compile_parallel(c)
    assert lay.k == 1
    d1 = iqp.simulate_parallel_exact(lay)
    d2 = iqp.exact_distribution(c)
    assert iqp.tv_distance(d1, d2) <= 1e-12


def test_parallel_equivalence_random():
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        n = rng.randrange(1, 5)
        c = rand_circuit(rng, n, p_cs=0.5)
        lay = iqp.compile_parallel(c)
        if lay.k > 4 or lay.wires > 16:
            continue
        tv = iqp.tv_distance(iqp.simulate_parallel_exact(lay), iqp.exact_distribution(c))
        assert tv <= 1e-9
        checked += 1


def test_ising_partition_trivial():
    assert iqp.ising_partition({}, [0], 1.5) == pytest.approx(2.0)


def test_ising_partition_cancellation():
    z = iqp.ising_partition({}, [4], np.exp(1j * np.pi / 8))
    assert abs(z) <= 1e-12


def test_ising_independent_enumeration():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 7)
        w = {
            (i, j): rng.randrange(8)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        }
        v = [rng.randrange(8) for _ in range(n)]
        omega = np.exp(1j * np.pi / 8)
        got = iqp.ising_partition(w, v, omega)
        # independent enumeration: loop over spin tuples in product order,
        # bucketing energies the same canonical way
        counts = {}
        for spins in itertools.product((1, -1), repeat=n):
            e = sum(x * spins[i] * spins[j] for (i, j), x in w.items())
            e += sum(vk * s for vk, s in zip(v, spins))
            counts[e] = counts.get(e, 0) + 1
        want = sum(cnt * omega**e for e, cnt in sorted(counts.items()))
        assert got == want


def _circuit_to_ising(c):
    """Integer Ising weights with p(0^n) = 4^-n |Z(e^{i pi/8})|^2.

    Substituting z = (1 - s)/2 into the circuit phase gives edge weights
    w_ij = cs_ij and vertex weights v_k = -(t_k + sum_j cs_kj), up to a
    global phase that drops out of |Z|^2.
    """
    cs = c.cs_map()
    v = [-(c.t_exponents[q] + sum(k for (i, j), k in cs.items() if q in (i, j)))
         for q in range(c.n)]
    return cs, v


def test_circuit_ising_identity():
    rng = random.Random(8)
    for _ in range(40):
        c = rand_circuit(rng, rng.randrange(1, 8))
        w, v = _circuit_to_ising(c)
        z = iqp.ising_partition(w, v, np.exp(1j * np.pi / 8))
        assert abs(z) ** 2 / 4.0**c.n == pytest.approx(iqp.prob_zero(c), abs=1e-9)


def test_tv_distance_basics():
    p = iqp.Distribution(1, np.array([0.5, 0.5]))
    q = iqp.Distribution(1, np.array([1.0, 0.0]))
    assert iqp.tv_distance(p, p) == 0.0
    assert iqp.tv_distance(p, q) == pytest.approx(0.5)
    r = iqp.Distribution(1, np.array([0.0, 1.0]))
    assert iqp.tv_distance(q, r) == pytest.approx(1.0)


def test_tv_distance_mismatched():
    p = iqp.Distribution(1, np.array([0.5, 0.5]))
    q = iqp.Distribution(2, np.ones(4) / 4)
    with pytest.raises(ValueError):
        iqp.tv_distance(p, q)


def test_empirical_tv():
    rng = np.random.Generator(np.random.Philox(key=5))
    p = iqp.Distribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    samples = rng.choice(4, p=p.probs, size=4000)
    tv, lo, hi = iqp.empirical_tv(samples, p, seed=1)
    assert 0 <= lo <= hi
    assert tv < 0.05


def test_caps():
    with pytest.raises(iqp.ResourceCapExceeded):
        iqp.exact_distribution(iqp.IqpCircuit(25, (0,) * 25, ()))
    with pytest.raises(iqp.ResourceCapExceeded):
        iqp.prob_zero(iqp.IqpCircuit(31, (0,) * 31, ()))
    lay = iqp.ParallelLayout(13, 2, (), ())
    with pytest.raises(iqp.ResourceCapExceeded):
        iqp.simulate_parallel_exact(lay)


def test_circuit_file_round_trip(tmp_path):
    c = iqp.sample_circuit(6, 1.0, 42)
    p = tmp_path / "c.json"
    iqp.export_circuit(c, p)
    c2 = iqp.import_circuit(p)
    assert c2 == c
    p2 = tmp_path / "c2.json"
    iqp.export_circuit(c2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_distribution_csv(tmp_path):
    d = iqp.exact_distribution(iqp.IqpCircuit(2, (1, 2), ()))
    p = tmp_path / "d.csv"
    iqp.export_distribution(d, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "bitstring,probability"
    assert len(lines) == 5
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_parallel_padded_ghz():
    # a single T on a GHZ pair of wires equals the bare T distribution
    c = iqp.IqpCircuit(1, (1,), ())
    lay = iqp.ParallelLayout(1, 2, ((0, 1),), ())
    d = iqp.simulate_parallel_exact(lay)
    d_direct = iqp.exact_distribution(c)
    assert iqp.tv_distance(d, d_direct) <= 1e-12
