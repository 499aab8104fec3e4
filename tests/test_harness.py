import hashlib
import json
import math

import numpy as np
import pytest

from tetriqp import gf2, harness, iqp, surgery
from tetriqp.colex import build_tetrahedral_colex
from tetriqp.harness import ChainSim, ExperimentConfig
from tetriqp.noise import BATCH, NoiseModel, propagate, sample_iid_faults, twirl_mask
from tetriqp.rng import TrialStreams, make_rng
from tetriqp.surgery import build_tetrahelix


def test_wilson_interval():
    lo, hi = harness.wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = harness.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert harness.wilson_interval(0, 0) == (0.0, 1.0)


def test_trial_determinism():
    # the shared simulator agrees with a freshly built one
    sim1 = ChainSim.build(2, 3)
    sim2 = ChainSim(build_tetrahelix(2, 3))
    model = NoiseModel(0.05)
    for b in range(2):
        assert sim1.run_batch(model, 9, b) == sim2.run_batch(model, 9, b)


def test_batch_prefix_and_fault_free_results():
    # a truncated batch is the whole batch's prefix, and exactly the trials
    # with a fault have a row, with their fault counts, in trial order
    sim = ChainSim.build(2, 3)
    model = NoiseModel(0.004)
    whole = sim.run_batch(model, 3, 1)
    faults = sample_iid_faults(model, sim.layout, TrialStreams()(3, 1, 0))
    counts = [(trial, len(codes)) for trial, codes in faults.by_trial()]
    assert [row[:2] for row in whole] == counts
    assert 0 < len(whole) < BATCH and all(n_faults > 0 for _, n_faults, *_ in whole)
    assert sim.run_batch(model, 3, 1, 100) == [row for row in whole if row[0] < 100]


def _oracle_rows(sim, model, seed, b, size):
    """The reference for `run_batch`: the rows of batch b computed trial by
    trial, with `by_trial`, then `correct(propagate(...))`, `twirl_mask`
    and `_decode` for each faulty trial."""
    streams = TrialStreams()
    faults = sample_iid_faults(model, sim.layout, streams(seed, b, 0))
    twirl_rng = streams(seed, b, 1)
    rows = []
    for trial, codes in faults.by_trial(size):
        x_diff, flips, sector, prep_nc = sim.correct(propagate(codes, sim.layout))
        if x_diff:
            flips ^= twirl_mask(x_diff, twirl_rng)
        failed = flips != 0 and sim._decode(flips) != 0
        rows.append((trial, len(codes), failed, sector, prep_nc))
    return rows


@pytest.mark.parametrize(
    "k, L, eps", [(1, 3, 0.005), (1, 5, 0.005), (2, 3, 0.05), (4, 5, 0.01), (5, 3, 0.015)]
)
def test_batch_rows_equal_the_per_trial_oracle(k, L, eps):
    sim, oracle = ChainSim.build(k, L), ChainSim(build_tetrahelix(k, L))
    model = NoiseModel(eps)
    for seed in (1, 7, (8, 2)):
        for b, size in ((0, BATCH), (1, 168), (2, 1)):
            rows = sim.run_batch(model, seed, b, size)
            assert rows == _oracle_rows(oracle, model, seed, b, size)
            assert all(type(row[2]) is bool for row in rows)


@pytest.mark.parametrize(
    "k, L", [(k, 3) for k in (1, 2, 3, 4, 5)] + [(k, 5) for k in (1, 2, 4)]
)
def test_noiseless_outcomes_split_to_zero_block_syndromes(k, L):
    # the finite check behind dropping the reference: every kernel(Hx) vector
    # splits into blocks without syndromes, so the decode is affine on it
    sim = ChainSim.build(k, L)
    for v in gf2.kernel_basis(sim.t.code.hx.rows, sim.t.code.n):
        assert not any(surgery.split_frame(sim.t, v).block_syndromes)


@pytest.mark.parametrize("k, L", [(1, 3), (2, 3), (4, 3), (2, 5)])
def test_decode_affine_on_noiseless_outcomes(k, L):
    sim = ChainSim.build(k, L)
    rng = np.random.default_rng(k * 10 + L)
    assert sim._decode(0) == 0
    for _ in range(60):
        o = sim.sample_reference(rng)
        f = int.from_bytes(rng.bytes(sim.t.code.n // 8 + 1), "little") & ((1 << sim.t.code.n) - 1)
        assert sim._decode(o ^ f) == sim._decode(o) ^ sim._decode(f)


def test_failed_equals_reference_comparison(monkeypatch):
    # the comparison against a noiseless reference drawn from stream
    # (seed, trial, 2), which trials do not draw, gives the same failures
    checked = 0
    for k, L, eps in ((1, 3, 0.03), (2, 3, 0.03), (4, 3, 0.02), (1, 5, 0.02)):
        sim = ChainSim.build(k, L)
        decode, model, seed = sim._decode, NoiseModel(eps), 17 + k
        reference = []

        def decode_and_compare(flips):
            o = sim.sample_reference(make_rng((seed, trial, 2)))
            reference.append(decode(o ^ flips) != decode(o))
            return decode(flips)

        monkeypatch.setattr(sim, "_decode", decode_and_compare)
        faults = sample_iid_faults(model, sim.layout, make_rng((seed, 0)))
        twirl_rng = make_rng((seed, 1))
        for trial, trial_faults in faults.by_trial(150):
            reference.clear()
            failed, _, _ = sim.run_trial(trial_faults, twirl_rng)
            assert failed == (reference == [True])
            checked += bool(reference)
        monkeypatch.undo()
    assert checked > 200


def test_zero_noise_never_fails():
    est = harness.logical_error_rate(3, 2, NoiseModel(0.0), 300, seed=4)
    assert est.failures == 0
    assert est.merge_noncorrectable == 0
    assert est.prep_noncorrectable == 0


def test_rate_caps():
    with pytest.raises(ValueError):
        harness.logical_error_rate(9, 1, NoiseModel(0.01), 10, seed=1)
    with pytest.raises(ValueError):
        harness.logical_error_rate(3, 99, NoiseModel(0.01), 10, seed=1)


def test_worker_reproducibility():
    model = NoiseModel(0.02)
    base = harness.logical_error_rate(3, 1, model, 400, seed=11, workers=1)
    for workers in (2, 3):
        other = harness.logical_error_rate(3, 1, model, 400, seed=11, workers=workers)
        assert other == base


@pytest.mark.parametrize("trials", [600, 700])
def test_workers_split_whole_batches(trials):
    # 700 is not a multiple of BATCH: the last batch is drawn whole and cut
    model = NoiseModel(0.03)
    runs = [
        harness.logical_error_rate(3, 2, model, trials, seed=19, workers=workers)
        for workers in (1, 2, 3)
    ]
    assert runs[0].trials == trials
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_parallel_run_builds_the_simulator_in_the_parent():
    # workers fork from the parent, so they inherit the simulator it built
    model = NoiseModel(0.03)
    ChainSim.build.cache_clear()
    par = harness.logical_error_rate(3, 2, model, 200, seed=13, workers=2)
    info = ChainSim.build.cache_info()
    assert info.currsize == 1
    ChainSim.build(2, 3)
    assert ChainSim.build.cache_info().hits == info.hits + 1
    assert par == harness.logical_error_rate(3, 2, model, 200, seed=13, workers=1)


def test_scan_degenerate_grid(tmp_path):
    res = harness.threshold_scan([3], [1], [0.01], trials=50, seed=3)
    assert len(res.rows) == 1
    out = tmp_path / "scan.csv"
    res.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "L,k,epsilon,trials,failures,rate,ci_low,ci_high"
    assert len(lines) == 2


def test_scan_row_count(tmp_path):
    res = harness.threshold_scan([3], [1, 2], [0.005, 0.02], trials=40, seed=5)
    assert len(res.rows) == 4
    out = tmp_path / "scan.csv"
    res.to_csv(out)
    assert len(out.read_text().strip().split("\n")) == 5


def test_scan_reproducible_csv(tmp_path):
    a = harness.threshold_scan([3], [1], [0.01, 0.05], trials=60, seed=6, workers=1)
    b = harness.threshold_scan([3], [1], [0.01, 0.05], trials=60, seed=6, workers=2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_effective_circuit_matrices():
    """Sector flips conjugate gates by logical X; the rebuilt exponents must
    reproduce the conjugated unitary up to global phase."""

    def diag_of(circ):
        u = iqp._phase_units(
            np.arange(1 << circ.n),
            list(enumerate(circ.t_exponents)),
            list(circ.cs_exponents),
        )
        return iqp.PHASE_TABLE[u]

    for e in range(4):
        for ai in (0, 1):
            for aj in (0, 1):
                base = iqp.IqpCircuit(2, (0, 0), ((0, 1, e),))
                _, assign = iqp.schedule_depth(base)
                if ("cs", 0, 1) not in assign:
                    continue
                alignments = [[ai], [aj]]
                eff = harness._effective_circuit(base, assign, alignments)
                d_eff = diag_of(eff)
                # conjugated target: permute basis by X^ai (x) X^aj
                d_base = diag_of(base)
                perm = [(z ^ (ai | (aj << 1))) for z in range(4)]
                d_want = d_base[perm]
                ratio = d_eff / d_want
                assert np.allclose(ratio, ratio[0]), (e, ai, aj)
    # T gate case
    for e in range(8):
        base = iqp.IqpCircuit(1, (e,), ())
        _, assign = iqp.schedule_depth(base)
        if ("t", 0) not in assign:
            continue
        eff = harness._effective_circuit(base, assign, [[1]])
        d_eff = diag_of(eff)
        d_want = diag_of(base)[[1, 0]]
        ratio = d_eff / d_want
        assert np.allclose(ratio, ratio[0]), e


def test_end_to_end_zero_noise():
    cfg = ExperimentConfig(n=3, epsilon=0.0, gamma=1.0, trials=800, seed=21, max_k=8)
    res = harness.end_to_end(cfg)
    # TV consistent with pure sampling noise: compare to the null quantile
    rng = np.random.Generator(np.random.Philox(key=99))
    ideal = iqp.exact_distribution(res.circuit)
    null = []
    for _ in range(60):
        counts = rng.multinomial(cfg.trials, ideal.probs)
        null.append(0.5 * float(np.abs(counts / cfg.trials - ideal.probs).sum()))
    assert res.tv <= np.quantile(null, 0.99) + 1e-9
    assert res.eps_bar == 0.0


def test_cdf_draw_equals_choice():
    # end_to_end draws through the CDF that Generator.choice builds from p
    for seed in range(4):
        dist = iqp.exact_distribution(iqp.sample_circuit(4, 1.0, seed))
        cdf = harness._cdf(dist)
        a, b = make_rng((seed, 1)), make_rng((seed, 1))
        for _ in range(2000):
            assert int(cdf.searchsorted(a.random(), side="right")) == int(b.choice(16, p=dist.probs))


def test_criterion_11_runs_share_no_stream(monkeypatch):
    # criterion 11's three runs: no two trial streams (faults, tag 0, and
    # twirls, tag 1, of every qubit's chain) and none of the circuit,
    # outcome (0xE2E) and bootstrap (0xB007) streams start at one Philox
    # (key, counter)
    def start(gen):
        state = gen.bit_generator.state["state"]
        return tuple(state["key"].tolist()), tuple(state["counter"].tolist())

    chain_trials = []

    def record_batch(self, model, seed, b, size=BATCH):
        chain_trials.append((seed, b, size))
        return []  # every trial fault-free

    starts = []

    def recording(make):
        def wrapped(seed):
            gen = make(seed)
            starts.append(start(gen))
            return gen
        return wrapped

    monkeypatch.setattr(ChainSim, "run_batch", record_batch)
    monkeypatch.setattr(harness, "make_rng", recording(harness.make_rng))
    monkeypatch.setattr(iqp, "make_rng", recording(iqp.make_rng))
    for n, trials, seed in ((2, 6000, 42), (4, 4000, 44), (8, 2500, 47)):
        harness.end_to_end(ExperimentConfig(
            n=n, epsilon=0.015, gamma=1.0, trials=trials, seed=seed, max_k=8
        ))
    assert sum(size for _, _, size in chain_trials) == 2 * 6000 + 4 * 4000 + 8 * 2500
    assert len(starts) == 3 * 3
    streams = TrialStreams()
    starts += [start(streams(s, b, tag)) for s, b, _ in chain_trials for tag in (0, 1)]
    assert len(set(starts)) == len(starts)


def test_end_to_end_noise_increases_tv():
    cfg0 = ExperimentConfig(n=2, epsilon=0.0, gamma=1.0, trials=1500, seed=33)
    cfg1 = ExperimentConfig(n=2, epsilon=0.08, gamma=1.0, trials=1500, seed=33)
    r0 = harness.end_to_end(cfg0)
    r1 = harness.end_to_end(cfg1)
    assert r1.eps_bar > 0
    assert r1.tv >= r0.tv


def test_overhead_spec_example():
    plan = harness.overhead(1024, 0.01, 0.001, 0.01)
    assert plan.k == 10
    assert plan.L == 10
    assert plan.extrapolated  # L = 10 is even, not buildable
    assert plan.total_qubits == 1024 * plan.block_qubits
    assert plan.block_qubits == 10 * (10**3 + 10) // 2 == 5050


def test_overhead_buildable():
    plan = harness.overhead(8, 0.4, 0.001, 0.1, c_r=1.0)
    if plan.L <= 7 and plan.L % 2 == 1:
        assert not plan.extrapolated


@pytest.mark.parametrize("L", range(3, 15, 2))
def test_block_size_closed_form(L):
    # the size `overhead` uses is the size of the block the builder makes
    assert (L**3 + L) // 2 == build_tetrahedral_colex(L).n


def test_overhead_exact_beyond_the_built_range():
    # an odd L >= 11 has a block, so its size is exact, not extrapolated
    plan = harness.overhead(2048, 0.01, 0.001, 0.01)
    assert (plan.k, plan.L) == (11, 11)
    assert plan.block_qubits == plan.k * (11**3 + 11) // 2 == 11 * 671
    assert not plan.extrapolated


def test_overhead_monotone_in_delta():
    p1 = harness.overhead(1024, 0.01, 0.001, 0.01)
    p2 = harness.overhead(1024, 0.005, 0.001, 0.01)
    assert p2.L >= p1.L


def test_overhead_monotone_in_gap():
    p1 = harness.overhead(1024, 0.01, 0.001, 0.01)
    p2 = harness.overhead(1024, 0.01, 0.005, 0.01)
    assert p2.L >= p1.L


def test_overhead_refusal():
    with pytest.raises(ValueError):
        harness.overhead(64, 0.01, 0.02, 0.01)


def test_overhead_polylog_growth():
    # total qubits / N grows slower than any fixed power of N
    ratios = []
    for exp in range(6, 21, 2):
        n = 2**exp
        plan = harness.overhead(n, 0.01, 0.001, 0.01)
        ratios.append(plan.total_qubits / n)
    # log-log slope against N should vanish asymptotically; check the growth
    # of overhead/N is subpolynomial: ratio of ratios shrinks
    g1 = ratios[2] / ratios[0]
    g2 = ratios[-1] / ratios[-3]
    assert g2 < g1
    assert ratios[-1] / ratios[-2] < 2 ** (2 * 0.5)  # way below N^0.5 growth


def test_prep_scan_runs():
    row = harness.prep_scan(3, NoiseModel(0.02), trials=300, seed=8)
    assert row.trials == 300
    assert 0 <= row.tetra_rate <= 1
    assert row.tetra_ci[0] <= row.tetra_rate <= row.tetra_ci[1]


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(n=4, epsilon=0.02, trials=10, seed=5, Ls=(3, 5))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "n": 4, "epsilon": 0.02, "trials": 10, "seed": 5, "Ls": [3, 5],
    }))
    loaded = ExperimentConfig.from_file(p)
    assert loaded.n == 4 and loaded.epsilon == 0.02 and loaded.Ls == (3, 5)


def test_tv_csv_format(tmp_path):
    res = harness.EndToEndResult(
        2, 0.01, 100, 0.05, 0.04, 0.06, 0.002, 12.5,
        iqp.IqpCircuit(2, (0, 0), ()), 1,
    )
    out = tmp_path / "tv.csv"
    harness.write_tv_csv(out, [res])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,epsilon,trials,tv,ci_low,ci_high,bound"
    assert lines[1].startswith("2,0.01,100,0.05,")


def test_rate_grows_linearly_with_k():
    # fixed (L=3, eps): failure rate vs chain length fits a line well
    model = NoiseModel(0.01)
    ks = [1, 2, 3]
    rates = [
        harness.logical_error_rate(3, k, model, 8000, seed=55).rate for k in ks
    ]
    assert rates[0] < rates[1] < rates[2]
    x = np.array(ks, dtype=float)
    y = np.array(rates)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1 - ss_res / ss_tot
    print(f"\nk-scaling rates {rates}, linear fit R^2 = {r2:.3f}")
    assert r2 > 0.8


def test_bootstrap_ci_sqrt_scaling():
    # doubling the sample count shrinks the TV CI width by about sqrt(2)
    p = iqp.Distribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
    rng = np.random.Generator(np.random.Philox(key=77))
    widths = []
    for m in (2000, 8000):
        samples = rng.choice(4, p=p.probs, size=m)
        _, lo, hi = iqp.empirical_tv(samples, p, bootstrap=400, seed=3)
        widths.append(hi - lo)
    ratio = widths[0] / widths[1]
    # quadrupling samples should halve the width, within statistical slack
    assert 1.3 < ratio < 3.2


@pytest.mark.parametrize("trials", [0, -5])
def test_nonpositive_trials_rejected(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        harness.logical_error_rate(3, 1, NoiseModel(0.01), trials, seed=1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        harness.prep_scan(3, NoiseModel(0.01), trials, seed=1)


def test_simulator_and_decoders_built_once(monkeypatch):
    sim = ChainSim.build(1, 3)
    assert ChainSim.build(1, 3) is sim
    # the k=1 chain's split decoder is its block's cell decoder
    assert surgery.get_split_context(sim.t).chain is sim.block_decoder.cells
    harness.logical_error_rate(3, 2, NoiseModel(0.02), 5, seed=0)
    built = []
    init = gf2.SyndromeDecoder.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(gf2.SyndromeDecoder, "__init__", counting_init)
    for seed in range(1, 21):
        harness.logical_error_rate(3, 2, NoiseModel(0.02), 5, seed=seed)
    assert built == []


def test_trace_export(tmp_path):
    path = tmp_path / "trace.jsonl"
    harness.write_trace(path, [{"trial": 0, "fail": False}, {"trial": 1, "fail": True}])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[1])["fail"] is True


def test_trace_output(tmp_path):
    out = tmp_path / "trace.jsonl"
    est = harness.logical_error_rate(
        3, 2, NoiseModel(0.05), 50, seed=5, trace_path=out
    )
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 50
    rec = json.loads(lines[0])
    assert set(rec) == {"trial", "n_faults", "sector_flips", "prep_noncorrectable", "failed"}
    # trace path must not change the estimate
    est2 = harness.logical_error_rate(3, 2, NoiseModel(0.05), 50, seed=5)
    assert est == est2


TRACE_SHA256 = "8ddfc4112128f7787cdb069c1902730d0d831cd6951b9491e0857bd09c9b6706"


def test_trace_content_is_pinned(tmp_path):
    # every field of every record, the two fault-free trials and the
    # truncated second batch included
    out = tmp_path / "trace.jsonl"
    harness.logical_error_rate(3, 2, NoiseModel(0.05), 300, seed=5, trace_path=out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_SHA256


def _trace(tmp_path, trials):
    out = tmp_path / f"trace{trials}.jsonl"
    est = harness.logical_error_rate(3, 2, NoiseModel(0.004), trials, seed=23, trace_path=out)
    return est, [json.loads(line) for line in out.read_text().splitlines()]


def test_trace_has_one_record_per_trial_in_order(tmp_path):
    # fault-free trials included: at this epsilon many trials have no fault
    est, records = _trace(tmp_path, 300)
    assert [r["trial"] for r in records] == list(range(300))
    assert any(r["n_faults"] == 0 for r in records)
    assert sum(r["failed"] for r in records) == est.failures
    assert sum(r["prep_noncorrectable"] for r in records) == est.prep_noncorrectable


def test_trace_is_the_same_for_any_worker_count(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    texts = []
    for workers in (1, 2, 3):
        out = tmp_path / f"trace_w{workers}.jsonl"
        harness.logical_error_rate(
            3, 2, NoiseModel(0.004), 700, seed=23, workers=workers, trace_path=out
        )
        texts.append(out.read_bytes())
    assert pools == [2, 3]  # traced runs use the workers they are given
    assert texts[0] == texts[1] == texts[2]
    assert len(texts[0].splitlines()) == 700


def test_trace_is_a_prefix_of_a_longer_run(tmp_path):
    # trial t depends on (seed, t // BATCH, t % BATCH) only
    _, short = _trace(tmp_path, 300)
    _, long = _trace(tmp_path, 600)
    assert short == long[:300]


def _split_then_decode(sim, outcomes):
    """The final decode without the memo: split the word, decode each
    block's cell syndrome and add the X-bar parities."""
    res = surgery.split_frame(sim.t, outcomes)
    out = (outcomes & sim.t.code.logical_x).bit_count()
    dec = sim.block_decoder
    for syndrome in res.block_syndromes:
        out += (dec.decode_cells(syndrome) & dec.lx).bit_count()
    return out & 1


MEMO_CHAINS = [(1, 3), (1, 5), (2, 3), (4, 5), (5, 3), (2, 7)]


@pytest.mark.parametrize("k, L", MEMO_CHAINS)
def test_memoised_decode_equals_split_then_decode(k, L):
    sim = ChainSim(build_tetrahelix(k, L))
    n = sim.t.code.n
    rng = np.random.default_rng(100 * k + L)
    words = [
        gf2.vector_from_support(rng.choice(n, int(rng.integers(1, 9)), replace=False).tolist())
        for _ in range(150)
    ]
    words += [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) for _ in range(10)]
    want = [_split_then_decode(sim, o) for o in words]
    assert [sim._decode(o) for o in words] == want  # cold: a miss per new syndrome
    assert 0 < len(sim._final_memo) <= len(words)
    assert [sim._decode(o) for o in words] == want  # warm: every syndrome hits
    # the same syndromes under other words: noiseless outcomes added
    shifted = [o ^ sim.sample_reference(rng) for o in words]
    assert [sim._decode(o) for o in shifted] == [_split_then_decode(sim, o) for o in shifted]


@pytest.mark.parametrize("k, L", MEMO_CHAINS)
def test_prep_memo_entries_are_the_effects_of_their_decodes(k, L):
    # each entry is what decode_prep's X pattern does: x̂ in chain
    # coordinates in layer_x, its Z-bar parity at bit b of prep_logical and
    # its pair words on the two merges of block b, nothing else
    sim = ChainSim(build_tetrahelix(k, L))
    sim.run_batch(NoiseModel(0.03), 41, 0)
    lay, t = sim.layout, sim.t
    assert sim._prep_memo
    for key, fix in sim._prep_memo.items():
        (b,) = [b for b, (shift, mask) in enumerate(lay.prep_syndrome) if key >> shift & mask]
        shift, mask = lay.prep_syndrome[b]
        assert key == (key >> shift & mask) << shift
        dec = sim.block_decoder
        xhat, _ = dec.decode_prep(key >> shift)
        want = xhat << t.block_offset(b) << lay.layer_x[0]
        want ^= ((xhat & t.block.code.logical_z).bit_count() & 1) << lay.prep_logical[0] + b
        for j in (b - 1, b):  # b is merge b - 1's right side, merge b's left
            if 0 <= j < k - 1:
                word = gf2.vector_from_support(
                    p for p, v in enumerate(t.merge_facet(j)) if xhat >> v & 1
                )
                want ^= word << lay.pair_x[j][0]
        assert fix == want


def test_memos_stay_within_the_cap_and_warm_equals_fresh(monkeypatch):
    # the cap is lowered so that two batches of k=4, L=5, eps=0.05 trials
    # empty each memo several times
    model, k, L, trials = NoiseModel(0.05), 4, 5, 2 * BATCH
    fresh = ChainSim(build_tetrahelix(k, L))
    with monkeypatch.context() as patch:
        patch.setattr(ChainSim, "build", classmethod(lambda cls, k, L: fresh))
        want = harness.logical_error_rate(L, k, model, trials, seed=31)
    monkeypatch.setattr(gf2, "MEMO_MAX", 64)
    sim = ChainSim.build(k, L)
    sizes = []
    remember = gf2.remember

    def recording_remember(memo, key, value):
        remember(memo, key, value)
        sizes.append(len(memo))

    monkeypatch.setattr(gf2, "remember", recording_remember)
    assert harness.logical_error_rate(L, k, model, trials, seed=31) == want
    assert max(sizes) == 64 and sizes.count(1) > 4  # a first entry per memo, and one per emptying
    # no run empties the memos: a second run starts from the first one's
    # entries and still estimates what a fresh simulator does
    assert harness.logical_error_rate(L, k, model, trials, seed=31) == want
    # with the memos the runs left behind, the trials repeat exactly
    assert sim.run_batch(model, 31, 1) == fresh.run_batch(model, 31, 1)
    cfg = ExperimentConfig(n=3, epsilon=0.05, gamma=1.0, trials=300, seed=4, L=3)
    assert harness.end_to_end(cfg) == harness.end_to_end(cfg)


def _cluster_memos(sim):
    """The cluster memos of the explainers that a simulator's decoders use."""
    decoders = [sim.block_decoder.faces, sim.block_decoder.cells, sim.t.split_context.chain]
    decoders += [dec.checks for dec in sim.facet_decoders]
    return [dec.search._memo for dec in decoders if dec.search is not None]


@pytest.mark.parametrize("k, L", [(k, 3) for k in (1, 2, 3, 4)] + [(1, 5), (2, 5), (4, 5)])
def test_memo_size_changes_no_row_or_estimate(monkeypatch, k, L):
    # a hit returns what a miss would compute: with two entries per memo
    # nearly every decode misses, and the rows and estimate stay the same
    model, trials = NoiseModel(0.03), 2 * BATCH + 44

    def run():
        sim = ChainSim(build_tetrahelix(k, L))
        for memo in _cluster_memos(sim):
            memo.clear()  # the explainers are shared: start them cold too
        with monkeypatch.context() as patch:
            patch.setattr(ChainSim, "build", classmethod(lambda cls, k, L: sim))
            est = harness.logical_error_rate(L, k, model, trials, seed=23)
        rows = [sim.run_batch(model, 29, b) for b in range(2)]
        memos = [sim._prep_memo, sim._final_memo, *_cluster_memos(sim)]
        return est, rows, len(sim._prep_memo) + len(sim._final_memo), memos

    est, rows, entries, _ = run()
    assert entries > 4
    monkeypatch.setattr(gf2, "MEMO_MAX", 2)
    small_est, small_rows, small_entries, memos = run()
    assert small_entries <= 4
    assert small_rows == rows
    assert small_est == est
    assert len(memos) > 2 and max(map(len, memos)) <= gf2.MEMO_MAX
