"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

import numpy as np
import pytest

from tetriqp import colex as cx
from tetriqp import csscode as cc
from tetriqp import gf2, harness, iqp
from tetriqp.harness import ChainSim, ExperimentConfig
from tetriqp.noise import _LABELS, LAYER, PREP_DATA, NoiseModel, propagate
from tetriqp.rng import make_rng
from tetriqp.surgery import Block, build_tetrahelix


def _report(num, detail, t0):
    print(f"\n[PASS] criterion {num}: {detail} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def block3():
    return Block.build(cx.build_tetrahedral_colex(3))


@pytest.fixture(scope="module")
def chain2(block3):
    return build_tetrahelix(2, 3, block=block3)


def test_criterion_1_code_parameters(block3):
    t0 = time.time()
    t1 = build_tetrahelix(1, 3, block=block3)
    assert t1.code.n == 15
    assert cc.logical_count(t1.code) == 1
    dz = cc.distance(t1.code, "Z", cap=8)
    dx = cc.distance(t1.code, "X", cap=8)
    assert dz.found and dz.weight == 3
    assert dx.found and dx.weight == 7
    assert time.time() - t0 < 1.0
    _report(1, "build_tetrahelix(1,3) = [[15,1,3]], d_X = 7", t0)


def test_criterion_2_transversal_t(block3):
    t0 = time.time()
    code = block3.code
    tp = cc.find_t_partition(code)
    assert tp is not None
    rep = cc.check_diagonal_transversality(code, tp)
    assert rep.passed
    assert rep.residue in (1, 7) and rep.failing_word is None
    # logical_x and the 4 rref X generators: 5 words enter the overlap conditions
    gens, _ = gf2.rref(code.hx.rows, code.n)
    assert len(gens) == 4
    assert time.time() - t0 < 1.0
    _report(2, f"partition V+={tp.v_plus:#x}, residue r={rep.residue}", t0)


def test_criterion_3_cs_gadget(block3, chain2):
    t0 = time.time()
    assert cc.cs_gadget_matrix_identity()
    tp = cc.find_t_partition(block3.code)
    rep = cc.check_cs_gadget(block3.code, block3.code, tp)
    assert rep.passed
    tp2 = cc.TPartition(chain2.code.n, 0)
    gates = []
    for b in range(chain2.k):
        rep_b = cc.check_cs_gadget(
            chain2.code, chain2.code, tp2, block=chain2.block_mask(b)
        )
        assert rep_b.passed
        gates.append(rep_b.gate)
    assert time.time() - t0 < 10.0
    _report(3, f"matrix identity exact; pair checks pass (blocks: {gates})", t0)


def test_criterion_4_merge_correctness(chain2):
    t0 = time.time()
    assert chain2.code.n == 30
    assert cc.logical_count(chain2.code) == 1
    assert gf2.rank(chain2.code.hz) == 24
    f1 = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
          if l[0] == "face" and l[1] == 0]
    f2 = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
          if l[0] == "face" and l[1] == 1]
    pairs = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
             if l[0] == "pair"]
    b1, _ = gf2.rref(f1, 30)
    b2, _ = gf2.rref(f2, 30)
    deps = len(b1) + len(b2) + len(pairs) - gf2.rank(list(b1) + list(b2) + pairs, 30)
    assert deps == 3
    dz = cc.distance(chain2.code, "Z", cap=8)
    assert dz.found and dz.weight == 3
    dx = cc.distance(chain2.code, "X", cap=16)
    assert dx.found and dx.weight == 14
    assert dx.weight >= 14
    assert time.time() - t0 < 300
    _report(4, "n=30, k=1, rank(Hz)=24 with 3 pair relations, d_Z=3, d_X=14", t0)


def test_criterion_5_depth1_gates_on_chains():
    t0 = time.time()
    t3 = build_tetrahelix(3, 3)
    tp = cc.TPartition(t3.code.n, 0)
    residues = []
    for b in range(3):
        rep = cc.check_diagonal_transversality(t3.code, tp, block=t3.block_mask(b))
        assert rep.passed, f"block {b}"
        residues.append(rep.residue)
        rep_cs = cc.check_cs_gadget(t3.code, t3.code, tp, block=t3.block_mask(b))
        assert rep_cs.passed, f"block {b}"
    assert time.time() - t0 < 60
    _report(5, f"k=3 chain per-block T residues {residues}, CS pair checks pass", t0)


def test_criterion_6_parallelization_equivalence():
    t0 = time.time()
    rng = random.Random(606)
    checked = 0
    worst = 0.0
    while checked < 50:
        n = rng.randrange(1, 5)
        t = tuple(rng.randrange(8) for _ in range(n))
        csg = tuple(
            (i, j, rng.randrange(4))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        c = iqp.IqpCircuit(n, t, csg)
        lay = iqp.compile_parallel(c)
        if lay.k > 4 or lay.wires > 16:
            continue
        tv = iqp.tv_distance(iqp.simulate_parallel_exact(lay), iqp.exact_distribution(c))
        worst = max(worst, tv)
        assert tv <= 1e-9
        checked += 1
    assert time.time() - t0 < 60
    _report(6, f"50 circuits, worst TV(parallel, direct) = {worst:.2e}", t0)


def test_criterion_7_exponential_sum_identity():
    t0 = time.time()
    rng = random.Random(707)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(1, 11)
        t = tuple(rng.randrange(8) for _ in range(n))
        csg = tuple(
            (i, j, rng.randrange(4))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        )
        c = iqp.IqpCircuit(n, t, csg)
        gap = abs(iqp.prob_zero(c) - float(iqp.exact_distribution(c).probs[0]))
        worst = max(worst, gap)
        assert gap <= 1e-9
    # Ising partition: exact match with an independent enumeration, n <= 12
    for _ in range(20):
        n = rng.randrange(1, 13)
        w = {
            (i, j): rng.randrange(8)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        v = [rng.randrange(8) for _ in range(n)]
        omega = np.exp(1j * np.pi / 8)
        got = iqp.ising_partition(w, v, omega)
        counts = {}
        for spins in itertools.product((1, -1), repeat=n):
            e = sum(x * spins[i] * spins[j] for (i, j), x in w.items())
            e += sum(vk * s for vk, s in zip(v, spins))
            counts[e] = counts.get(e, 0) + 1
        want = sum(cnt * omega**e for e, cnt in sorted(counts.items()))
        assert got == want
    _report(7, f"100 circuits |prob_zero - exact| <= {worst:.2e}; Ising matches exactly", t0)


def _single_fault_cases(sim):
    """Every single fault of the chain's layout, run through the simulator's
    own correction; yields (fault, failed).

    Each location takes every label that acts there (X/Z/Y on data, a flip on
    measurements). A fault fails when it leaves a merge misaligned or a preparation residual
    acting as the X logical, or when, for some twirl subset of the X pattern
    crossing the layer, it changes the decode of a noiseless outcome.
    """
    rng = make_rng(808)
    for loc in sim.layout.locations:
        kind = loc[0]
        for label in ("X", "Z", "Y") if kind in (PREP_DATA, LAYER) else ("flip",):
            fault = (loc, label)
            code = 4 * sim.layout.locations.index(loc) + _LABELS.index(label)
            x_diff, flips, sector, prep_nc = sim.correct(propagate([code], sim.layout))
            supp = gf2.support(x_diff)
            if len(supp) <= 5:
                twirl_sets = [
                    sum(1 << s for s in combo)
                    for r in range(len(supp) + 1)
                    for combo in itertools.combinations(supp, r)
                ]
            else:
                twirl_sets = [0, x_diff]
            failed = any(sector) or prep_nc > 0 or any(
                sim._decode(o ^ flips ^ tw) != sim._decode(o)
                for tw in twirl_sets
                for o in (0, *(sim.sample_reference(rng) for _ in range(3)))
            )
            yield fault, failed


def test_criterion_8_single_fault_tolerance():
    t0 = time.time()
    sizes = {}
    for k, L in ((2, 3), (3, 3), (1, 5), (2, 5)):
        sim = ChainSim.build(k, L)
        cases = list(_single_fault_cases(sim))
        failures = [fault for fault, failed in cases if failed]
        assert not failures, (k, L, failures[:10])
        assert {loc for (loc, _), _ in cases} == set(sim.layout.locations)
        sizes[(k, L)] = len(cases)
    assert sizes[(2, 3)] == 253  # every label at every location of the k=2, L=3 chain
    assert time.time() - t0 < 300
    detail = ", ".join(f"{n} at (k={k}, L={L})" for (k, L), n in sizes.items())
    _report(8, f"single faults, 0 failures: {detail}", t0)


def _fault_pair_cases(sim):
    """Every pair of acting fault codes at distinct locations (the labels of
    `_single_fault_cases`), run through the simulator's own correction and
    the decode of the all-zero outcome, which suffices as decoding is affine
    on noiseless outcomes; yields (codes, wrong, prep_noncorrectable).

    A pair is wrong when it leaves a merge misaligned or, for some twirl
    subset of the X pattern crossing the layer, decodes to logical 1.
    """
    codes = [
        4 * i + _LABELS.index(label)
        for i, loc in enumerate(sim.layout.locations)
        for label in (("X", "Z", "Y") if loc[0] in (PREP_DATA, LAYER) else ("flip",))
    ]
    effects = sim.layout.effects
    for a, b in itertools.combinations(codes, 2):
        if a // 4 == b // 4:
            continue
        x_diff, flips, sector, prep_nc = sim.correct(effects[a] ^ effects[b])
        supp = gf2.support(x_diff)
        wrong = any(sector) or any(
            sim._decode(flips ^ sum(1 << s for s in combo))
            for r in range(len(supp) + 1)
            for combo in itertools.combinations(supp, r)
        )
        yield (a, b), wrong, prep_nc


def test_fault_pair_certificate_k1_l5():
    # criterion 8's rule with two faults: at (k, L) = (1, 5) no fault pair
    # flips the decoded logical or misaligns a merge, so f_2 = 0 exactly
    t0 = time.time()
    pairs, wrong, prep_only = 0, [], 0
    for codes, bad, prep_nc in _fault_pair_cases(ChainSim.build(1, 5)):
        pairs += 1
        if bad:
            wrong.append(codes)
        elif prep_nc:
            prep_only += 1  # residual odd against Z-bar, decoded bit unchanged
    assert not wrong, (len(wrong), wrong[:10])
    assert pairs == 142_455  # every acting code pair at distinct locations
    print(
        f"\n[PASS] fault pairs at (k=1, L=5): {pairs} pairs, 0 wrong, "
        f"{prep_only} raise only prep_noncorrectable ({time.time() - t0:.1f}s)"
    )


def test_criterion_9_single_shot_suppression():
    t0 = time.time()
    trials = 100_000
    chosen = full = None
    for eps in (0.008, 0.005, 0.003):
        cand = {
            L: harness.logical_error_rate(L, 1, NoiseModel(eps), trials, seed=910)
            for L in (3, 5)
        }
        if cand[5].ci_high < cand[3].ci_low:
            chosen, full = eps, cand
            break
    assert chosen is not None, "no epsilon in the grid separates L=5 below L=3"
    _report(
        9,
        f"eps={chosen}: rate(L=5)={full[5].rate:.2e} "
        f"[{full[5].ci_low:.2e},{full[5].ci_high:.2e}] < "
        f"rate(L=3)={full[3].rate:.2e} [{full[3].ci_low:.2e},{full[3].ci_high:.2e}], "
        f"{trials} trials each",
        t0,
    )


def test_criterion_10_threshold_existence():
    t0 = time.time()
    res = harness.threshold_scan(
        Ls=(3, 5),
        ks=(1,),
        epsilons=(0.004, 0.01, 0.022, 0.045, 0.09),
        trials=8000,
        seed=1010,
    )
    assert res.crossing is not None, [
        (r.L, r.epsilon, r.rate) for r in res.rows
    ]
    cr = res.crossing
    assert cr["eps_low"] < cr["estimate"] < cr["eps_high"]
    _report(
        10,
        f"L=3/L=5 curves cross in [{cr['eps_low']}, {cr['eps_high']}], "
        f"estimate {cr['estimate']:.3g}",
        t0,
    )


def test_criterion_11_tv_union_bound():
    t0 = time.time()
    eps = 0.015
    results = []
    for n, trials, seed in ((2, 6000, 42), (4, 4000, 44), (8, 2500, 47)):
        cfg = ExperimentConfig(
            n=n, epsilon=eps, gamma=1.0, trials=trials, seed=seed, max_k=8
        )
        res = harness.end_to_end(cfg)
        results.append(res)
    usable = [r for r in results if r.eps_bar > 0]
    assert usable, "no noise events recorded"
    c = max(r.tv / (r.n * r.eps_bar) for r in usable)
    for r in usable:
        assert r.tv <= c * r.n * r.eps_bar + 1e-12
    detail = "; ".join(
        f"N={r.n}: TV={r.tv:.3f} [{r.ci_low:.3f},{r.ci_high:.3f}] "
        f"eps_bar={r.eps_bar:.4f}"
        for r in results
    )
    _report(11, f"fitted c={c:.2f}; {detail}", t0)


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.time()
    model = NoiseModel(0.02)
    outs = []
    for workers in (1, 2, 3):
        est = harness.logical_error_rate(3, 2, model, 600, seed=1212, workers=workers)
        outs.append(est)
    assert outs[0] == outs[1] == outs[2]
    csvs = []
    for workers in (1, 2):
        res = harness.threshold_scan([3], [1], [0.01, 0.03], 300, seed=7, workers=workers)
        p = tmp_path / f"scan_{workers}.csv"
        res.to_csv(p)
        csvs.append(p.read_bytes())
    assert csvs[0] == csvs[1]
    _report(12, "bit-identical rates and scan CSVs for 1/2/3 workers", t0)
