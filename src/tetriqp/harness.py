"""Monte Carlo orchestration: logical error rates, threshold scans,
end-to-end total-variation experiments, and the overhead calculator.

Trials run in batches of `noise.BATCH`. Batch b draws the faults of all its
trials from the Philox counter stream (seed, b, 0) and their twirl coins
from (seed, b, 1) (see `rng`); trial t is trial t % BATCH of batch
t // BATCH. The seed is an int or a spawn tuple: (seed, qubit) for the
chains of `end_to_end`, (seed, k, L, epsilon index) for the points of
`threshold_scan` and (seed, 2, L) for the rows of `prep_scan`. Workers get
whole batches, and a run that ends inside a batch draws that batch whole
and keeps its first trials. So results are bit-identical for a fixed seed
whatever the worker count, trial t is the same in every run that reaches
it, and distinct runs, qubits, grid points and rows never share a stream.
`ChainSim.run_batch` is the one trial engine: it passes each trial with a
fault to `ChainSim.run_trial`, as its fault codes, and returns a plain row
(trial, n_faults, failed, sector_flips, prep_noncorrectable) for each. A
trial without a fault has no row: every merge aligned, not failed. Faults
propagate as the XOR of the effects that `noise.stage_layout` precomputes
per chain; `run_trial` draws the twirl of the X pattern crossing the
diagonal layer, one coin per qubit, and nothing else does.

A trial decodes syndromes, not patterns: its effect word already holds each
block's preparation face syndrome, and its final decode depends on the
outcome flips only through their X-bar parity and their chain syndrome. So
the simulator memoises the preparation fix per face syndrome and the final
correction parity per chain syndrome (see `ChainSim.correct` and
`ChainSim._decode`). The memos live as long as their simulator, so across
runs and across the points of a scan. Each holds at most `gf2.MEMO_MAX`
entries and is emptied only when full (`gf2.remember`, the rule of the
explainers' cluster memos too); a hit returns what a miss would compute, so
the memos change no result, only which decoder calls a run makes.

A trial fails when the decoded logical of its noisy outcome flips f is 1.
That is the event that the noisy outcome decodes differently
from the noiseless one, whatever noiseless outcome o the trial had: o lies in
ker(Hx) and splits into blocks with zero syndromes, so every decoder sees the
same syndromes for o ^ f as for f, and decode(o ^ f) = decode(o) ^ decode(f).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import gf2, surgery
from .colex import facet_code
from .decoder import BlockDecoder, FacetDecoder
from .iqp import (
    EXACT_DISTRIBUTION_CAP,
    Distribution,
    IqpCircuit,
    exact_distribution,
    empirical_tv,
    sample_circuit,
)
from .noise import BATCH, NoiseModel, propagate, sample_iid_faults, stage_layout, twirl_mask
from .rng import TrialStreams, make_rng
from .surgery import TetrahelixCode, build_tetrahelix

MAX_L = 7  # largest block distance a config or logical_error_rate accepts
MAX_K = 8  # longest chain: k and ks of a config, the e2e depth cap max_k


def _is_a(value, kind) -> bool:
    """Whether a config value is of `kind`: an int passes for a float, and
    a bool is neither."""
    number = numbers.Integral if kind is int else numbers.Real
    return not isinstance(value, bool) and isinstance(value, number)


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = failures / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 4  # logical qubits (IQP width)
    epsilon: float = 0.01
    gamma: float = 1.0
    trials: int = 1000
    seed: int = 0
    workers: int = 1
    L: int = 3
    k: int = 1
    max_k: int = MAX_K  # e2e's cap on the sampled circuit depth
    max_statevector: int = 20
    mix_x: float = 0.25
    mix_z: float = 0.25
    mix_y: float = 0.25
    mix_meas: float = 0.25
    Ls: tuple = (3, 5)
    ks: tuple = (1,)
    epsilons: tuple = (0.004, 0.01, 0.02, 0.05, 0.1, 0.2)

    def __post_init__(self):
        """Reject a bad value up front: every field has its default's type
        (an int passes for a float, a bool for nothing), every int is >= 1
        but the seed, which is >= 0, max_statevector is at most the exact
        simulator's cap, L and every Ls entry are at most MAX_L, k, every ks
        entry and max_k at most MAX_K, the epsilon grid rises within [0, 1]
        and the channel mix is valid."""
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            if isinstance(default, tuple):
                kind, items = type(default[0]), value if type(value) is tuple else ()
                want = f"a nonempty tuple of {kind.__name__}"
            else:
                kind, items, want = type(default), (value,), type(default).__name__
            if not items or not all(_is_a(v, kind) for v in items):
                raise ValueError(f"config field {f.name} must be {want}, got {value!r}")
            low = 0 if f.name == "seed" else 1
            if kind is int and min(items) < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value!r}")
        if self.max_statevector > EXACT_DISTRIBUTION_CAP:
            raise ValueError(
                f"max_statevector must be <= {EXACT_DISTRIBUTION_CAP}, "
                f"got {self.max_statevector!r}"
            )
        caps = {"L": MAX_L, "Ls": MAX_L, "k": MAX_K, "ks": MAX_K, "max_k": MAX_K}
        for name, cap in caps.items():
            value = getattr(self, name)
            if max(value if isinstance(value, tuple) else (value,)) > cap:
                raise ValueError(f"config field {name} must be <= {cap}, got {value!r}")
        eps = self.epsilons
        if list(eps) != sorted(eps) or not 0 <= eps[0] <= eps[-1] <= 1:
            raise ValueError(f"epsilons must rise within [0, 1], got {eps!r}")
        self.noise_model()

    def noise_model(self, epsilon=None) -> NoiseModel:
        return NoiseModel(
            self.epsilon if epsilon is None else epsilon,
            self.mix_x,
            self.mix_z,
            self.mix_y,
            self.mix_meas,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        d = json.loads(Path(path).read_text())
        if not isinstance(d, dict):
            raise ValueError(f"config {path} is not a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"config {path} has unknown keys: {', '.join(unknown)}")
        for key in ("Ls", "ks", "epsilons"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)


# ---------------------------------------------------------------------------
# Per-chain trial
# ---------------------------------------------------------------------------


class ChainSim:
    """Reusable simulator for one (k, L) chain. Its batches draw from one
    shared, re-keyed generator, so one thread at a time may run them."""

    def __init__(self, t: TetrahelixCode):
        self.t = t
        self.layout = stage_layout(t)
        self.block_decoder = BlockDecoder(t.block)
        # merge j decodes its pair word on facet color j mod 4
        self.facet_decoders = [
            FacetDecoder(facet_code(t.block.colex, c)) for c in range(min(t.k - 1, 4))
        ]
        self._streams = TrialStreams()
        lay = self.layout
        self._prep_fields = tuple(mask << shift for shift, mask in lay.prep_syndrome)
        self._pair_fields = tuple(
            (fm << fs) | (xm << xs) for (fs, fm), (xs, xm) in zip(lay.pair_flips, lay.pair_x)
        )
        self._prep_region = sum(self._prep_fields)
        self._pair_region = sum(self._pair_fields)
        # the fields that every trial reads, out of the layout's (shift, mask) pairs
        self._logical_region = lay.prep_logical[1] << lay.prep_logical[0]
        self._x_at, self._x_mask = lay.layer_x
        self._out_at, self._out_mask = lay.outcome_flips
        # bit position in a prep or merge field -> its block or merge
        self._owner = [0] * (self._prep_region | self._pair_region).bit_length()
        for fields in (self._prep_fields, self._pair_fields):
            for i, field in enumerate(fields):
                for bit in gf2.support(field):
                    self._owner[bit] = i
        self._prep_memo = {}  # a block's face syndrome, in place in the effect -> fix
        self._final_memo = {}  # chain syndrome -> parity F of the block decodes
        self._aligned = (0,) * (t.k - 1)  # the sector flips of a trial with every merge aligned

    @classmethod
    @functools.cache
    def build(cls, k: int, L: int) -> "ChainSim":
        """The simulator of the (k, L) chain, built once per process."""
        return cls(build_tetrahelix(k, L))

    def sample_reference(self, rng) -> int:
        """A uniformly random noiseless outcome vector, an element of ker(Hx).
        Trials need none (see the module docstring); tests use it as the
        reference that the linearity of the decode is checked against."""
        kernel = gf2.kernel_basis(self.t.code.hx.rows, self.t.code.n)
        bits = rng.integers(0, 2, len(kernel))
        o = 0
        for take, v in zip(bits, kernel):
            if take:
                o ^= v
        return o

    def run_batch(self, model: NoiseModel, seed, b: int, size: int = BATCH) -> list[tuple]:
        """The rows of the faulty trials among the first `size` trials of
        batch b, in trial order: the faults of all BATCH trials come from
        stream (seed, b, 0), then `run_trial` runs each trial with a fault,
        all drawing twirl coins from stream (seed, b, 1). A row is
        (trial, n_faults, failed, sector_flips, prep_noncorrectable), trial
        counted within the batch (see the module docstring). `seed` is an
        int or a spawn tuple (see `rng`)."""
        faults = sample_iid_faults(model, self.layout, self._streams(seed, b, 0))
        if not len(faults):
            return []
        twirl_rng = self._streams(seed, b, 1)  # the fault draws are done
        rows = []
        for trial, codes in faults.by_trial(size):
            failed, sector, prep_nc = self.run_trial(codes, twirl_rng)
            rows.append((trial, len(codes), failed, sector, prep_nc))
        return rows

    def run_trial(self, faults, twirl_rng) -> tuple[bool, tuple[int, ...], int]:
        """One trial with at least one fault, given as its fault codes (see
        noise.StageLayout): `correct` the XOR of their effects, then draw one
        twirl coin from `twirl_rng` per qubit of the X pattern crossing the
        diagonal layer, then decode the final outcome flips. Returns
        (failed, sector_flips, prep_noncorrectable): whether the decoded
        logical of the outcome flips is 1, the per-merge residual logical
        misalignments and the number of blocks whose residual acts as the X
        logical."""
        x_diff, flips, sector, prep_nc = self.correct(propagate(faults, self.layout))
        if x_diff:
            flips ^= twirl_mask(x_diff, twirl_rng)
        return flips != 0 and self._decode(flips) != 0, sector, prep_nc

    def correct(self, effect: int) -> tuple[int, int, tuple[int, ...], int]:
        """The deterministic part of a trial: decode each preparation and
        merge of a propagated fault effect and apply the fixes. Every field
        of `effect` is read through the layout's (shift, mask) pairs, those
        that every trial reads as copies kept on the simulator.

        A block whose face syndrome is nonzero gets its preparation fix from
        the prep memo: the effect of the decoded X pattern x̂ (see
        `_prep_fix`), which XORed into `effect` applies x̂ to the layer
        pattern, the Z-bar parities and the pair words alike. A merge with a
        nonzero pair word is decoded twice, with and without its
        measurement flips.

        Returns (x_diff, outcome_flips, sector, prep_nc): the X pattern that
        crosses the diagonal layer (still to be twirled), the outcome flips
        before the twirl, the per-merge residual logical misalignments and
        the number of blocks whose preparation residual acts as the X logical.
        """
        keys = effect & self._prep_region
        while keys:  # the blocks with a nonzero syndrome, last first
            b = self._owner[keys.bit_length() - 1]
            key = keys & self._prep_fields[b]
            keys ^= key
            fix = self._prep_memo.get(key)
            if fix is None:
                fix = self._prep_fix(b, key)
            effect ^= fix
        x_diff = effect >> self._x_at & self._x_mask
        prep_nc = (effect & self._logical_region).bit_count()
        sector = self._aligned
        words = effect & self._pair_region
        if words:
            lay, sector = self.layout, list(sector)
            while words:  # the merges with a nonzero pair word, last first
                j = self._owner[words.bit_length() - 1]
                words &= ~self._pair_fields[j]
                flips = effect >> lay.pair_flips[j][0] & lay.pair_flips[j][1]
                x_word = effect >> lay.pair_x[j][0] & lay.pair_x[j][1]
                dec = self.facet_decoders[j % 4]
                xhat, _ = dec.decode(x_word ^ flips)
                xtrue, _ = dec.decode(x_word)
                if xhat:
                    x_diff ^= self.t.block_logical_x(j)
                sector[j] = xhat ^ xtrue
            sector = tuple(sector)
        return x_diff, effect >> self._out_at & self._out_mask, sector, prep_nc

    def _prep_fix(self, b: int, key: int) -> int:
        """Prep memo miss: decode block b's face syndrome, held in place in
        `key`, and store the effect of the decoded X pattern x̂ with block b's
        syndrome field left out: x̂ in chain coordinates in layer_x, the
        parity of x̂ against Z-bar at bit b of prep_logical, and the pair
        words of x̂ on merge b - 1's right side and merge b's left side."""
        shift, _ = self.layout.prep_syndrome[b]
        xhat, _ = self.block_decoder.decode_prep(key >> shift)
        effects, g0 = self.layout.effects, self.t.block_offset(b)
        fix = 0
        for q in gf2.support(xhat):
            fix ^= effects[4 * (g0 + q)]  # an X entering preparation at chain qubit g0 + q
        fix &= ~self._prep_fields[b]
        gf2.remember(self._prep_memo, key, fix)
        return fix

    def _decode(self, outcomes: int) -> int:
        """Decoded chain logical of an outcome word: its X-bar parity plus
        F(sigma), with sigma its chain syndrome. The split applies pair
        stabilizers only, which commute with the chain X-bar, and leaves
        every block the cell syndrome of its part of the chain hypothesis
        for sigma; so the block decodes add a parity F that depends on sigma
        alone. The final memo holds F per sigma, and a miss computes it
        from `surgery.split_frame` and the block cell decoders."""
        sigma = self.t.split_context.chain.syndrome(outcomes)
        f = self._final_memo.get(sigma)
        if f is None:
            res = surgery.split_frame(self.t, outcomes)
            dec, f = self.block_decoder, 0
            for syndrome in res.block_syndromes:
                f ^= (dec.decode_cells(syndrome) & dec.lx).bit_count() & 1
            gf2.remember(self._final_memo, sigma, f)
        return ((outcomes & self.t.code.logical_x).bit_count() ^ f) & 1


# ---------------------------------------------------------------------------
# Logical error rate and threshold scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEstimate:
    L: int
    k: int
    epsilon: float
    trials: int
    failures: int
    rate: float
    ci_low: float
    ci_high: float
    merge_noncorrectable: int = 0
    prep_noncorrectable: int = 0
    corrupted: int = 0


def _count_chunk(args) -> tuple[tuple[int, int, int, int], list | None]:
    """(failures, merge_nc, prep_nc, corrupted) over trials [start, stop),
    with start a multiple of BATCH, and one trace record per trial when
    `trace` is set (else None)."""
    L, k, model, seed, start, stop, trace = args
    sim = ChainSim.build(k, L)
    fails = merge_nc = prep_nc = corrupt = 0
    records = [] if trace else None
    fault_free = (0, False, (0,) * (k - 1), 0)  # n_faults, failed, sector_flips, prep_nc
    for first in range(start, stop, BATCH):
        size = min(BATCH, stop - first)
        rows = sim.run_batch(model, seed, first // BATCH, size)
        for _, _, failed, sector, prep in rows:
            flipped = sum(sector)  # one wrong merge decode per sector flip
            fails += failed
            merge_nc += flipped
            prep_nc += prep
            corrupt += failed or flipped > 0 or prep > 0
        if records is not None:
            faulty = {row[0]: row[1:] for row in rows}
            for trial in range(size):
                n_faults, failed, sector, prep = faulty.get(trial, fault_free)
                records.append(
                    {
                        "trial": first + trial,
                        "n_faults": n_faults,
                        "sector_flips": list(sector),
                        "prep_noncorrectable": prep,
                        "failed": failed,
                    }
                )
    return (fails, merge_nc, prep_nc, corrupt), records


def write_trace(path, records) -> None:
    """Decoder trace export: one JSON object per line."""
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def logical_error_rate(
    L: int,
    k: int,
    model: NoiseModel,
    trials: int,
    seed,
    workers: int = 1,
    trace_path=None,
) -> RateEstimate:
    """Monte Carlo estimate of P[the decoded logical of a trial's outcome
    flips is 1], the probability that the noisy outcome decodes differently
    from the noiseless one (see the module docstring). `seed` is an int
    or a spawn tuple; batch b of BATCH trials draws from streams
    (seed, b, tag), and each worker runs whole batches. L and k are capped
    at MAX_L and MAX_K.

    trace_path, when given, writes one JSON line per trial, in trial order,
    fault-free trials included, with the fields `trial`, `n_faults`,
    `sector_flips` (per merge), `prep_noncorrectable` and `failed`.
    """
    if L > MAX_L or k > MAX_K:
        raise ValueError(f"(L={L}, k={k}) exceeds caps (L <= {MAX_L}, k <= {MAX_K})")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    batches = -(-trials // BATCH)
    workers = max(1, min(workers, batches))
    bounds = np.linspace(0, batches, workers + 1, dtype=int) * BATCH
    jobs = [
        (L, k, model, seed, int(a), min(int(b), trials), trace_path is not None)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    if workers <= 1:
        parts = list(map(_count_chunk, jobs))
    else:
        ChainSim.build(k, L)  # forked workers inherit it instead of rebuilding
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_count_chunk, jobs))
    if trace_path is not None:
        write_trace(trace_path, (rec for _, records in parts for rec in records))
    fails, merge_nc, prep_nc, corrupt = (sum(col) for col in zip(*(c for c, _ in parts)))
    lo, hi = wilson_interval(fails, trials)
    return RateEstimate(
        L, k, model.epsilon, trials, fails, fails / trials, lo, hi,
        merge_noncorrectable=merge_nc,
        prep_noncorrectable=prep_nc,
        corrupted=corrupt,
    )


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[RateEstimate, ...]
    crossing: dict | None  # {'k', 'L_low', 'L_high', 'eps_low', 'eps_high', 'estimate'}

    def to_csv(self, path) -> None:
        lines = ["L,k,epsilon,trials,failures,rate,ci_low,ci_high"]
        for r in self.rows:
            lines.append(
                f"{r.L},{r.k},{r.epsilon:.10g},{r.trials},{r.failures},"
                f"{r.rate:.10g},{r.ci_low:.10g},{r.ci_high:.10g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def threshold_scan(
    Ls, ks, epsilons, trials: int, seed: int, workers: int = 1,
    noise: NoiseModel = NoiseModel(0.0),
) -> ScanResult:
    """Grid Monte Carlo with the channel mix of `noise` at every epsilon,
    point (k, L, epsilons[i]) under the spawn key (seed, k, L, i); reports
    the empirical crossing of the smallest and largest L curves as the
    threshold estimate."""
    if not Ls or not ks or not epsilons:
        raise ValueError("grids must be nonempty")
    rows = []
    by_key = {}
    for k in ks:
        for L in Ls:
            for idx_e, eps in enumerate(epsilons):
                model = replace(noise, epsilon=eps)
                est = logical_error_rate(L, k, model, trials, (seed, k, L, idx_e), workers=workers)
                rows.append(est)
                by_key[(k, L, eps)] = est
    crossing = None
    if len(Ls) >= 2:
        lo_L, hi_L = min(Ls), max(Ls)
        k = ks[0]
        diffs = [
            (eps, by_key[(k, lo_L, eps)].rate - by_key[(k, hi_L, eps)].rate)
            for eps in sorted(epsilons)
        ]
        for (e1, d1), (e2, d2) in zip(diffs, diffs[1:]):
            if d1 > 0 >= d2 or d1 >= 0 > d2:
                crossing = {
                    "k": k,
                    "L_low": lo_L,
                    "L_high": hi_L,
                    "eps_low": e1,
                    "eps_high": e2,
                    "estimate": math.sqrt(e1 * e2),
                }
                break
    return ScanResult(tuple(rows), crossing)


# ---------------------------------------------------------------------------
# End-to-end TV experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndToEndResult:
    n: int
    epsilon: float
    trials: int
    tv: float
    ci_low: float
    ci_high: float
    eps_bar: float  # measured per-logical-qubit corruption probability
    bound_constant: float | None  # tv / (n * eps_bar)
    circuit: IqpCircuit
    depth: int


def _effective_circuit(base: IqpCircuit, assign: dict, alignments) -> IqpCircuit:
    """Gate exponents after sector misalignments flip block logicals.

    A misaligned block applies T^-e (up to phase); a controlled-phase across
    one misaligned side turns into CS^-e with an S^e byproduct on the other.
    """
    t = list(base.t_exponents)
    cs = []
    for q, e in enumerate(base.t_exponents):
        if e and alignments[q][assign[("t", q)] - 1]:
            t[q] = (-e) % 8
    for i, j, e in base.cs_exponents:
        step = assign[("cs", i, j)] - 1
        ai, aj = alignments[i][step], alignments[j][step]
        if ai and aj:
            t[i] = (t[i] - 2 * e) % 8
            t[j] = (t[j] - 2 * e) % 8
            cs.append((i, j, e))
        elif ai:
            t[j] = (t[j] + 2 * e) % 8
            cs.append((i, j, (-e) % 4))
        elif aj:
            t[i] = (t[i] + 2 * e) % 8
            cs.append((i, j, (-e) % 4))
        else:
            cs.append((i, j, e))
    return IqpCircuit(base.n, tuple(t), tuple(cs))


def _cdf(dist: Distribution) -> np.ndarray:
    """The normalised CDF that Generator.choice(len(p), p=p) builds from p:
    cdf.searchsorted(rng.random(), side="right") draws what that call draws,
    without its per-call validation."""
    cdf = dist.probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def end_to_end(config: ExperimentConfig) -> EndToEndResult:
    """Sample the noisy encoded pipeline and estimate TV against ideal p_D.

    Per trial, every logical qubit q runs one chain (prepare, merge, ideal
    diagonal layer with injected faults, measure, decode) under the spawn
    key (seed, q), a batch of BATCH trials at a time for every qubit. Sector
    errors from wrong merge fixes rotate the effective logical circuit;
    decode errors flip sampled bits. Outcomes are drawn in trial order from
    make_rng((seed, 0xE2E)), the bootstrap from (seed, 0xB007).
    """
    from .iqp import schedule_depth

    n = config.n
    if n > config.max_statevector:
        raise ValueError(f"n={n} exceeds statevector cap {config.max_statevector}")
    circuit = sample_circuit(n, config.gamma, config.seed)
    depth, assign = schedule_depth(circuit)
    k = max(depth, 1)
    if k > config.max_k:
        raise ValueError(f"sampled circuit depth {k} exceeds the chain cap {config.max_k}")
    ideal = exact_distribution(circuit)
    sim = ChainSim.build(k, config.L)
    model = config.noise_model()

    # alignments -> CDF of the effective circuit; all aligned is the ideal one
    aligned = (0,) * k
    cdfs = {(aligned,) * n: _cdf(ideal)}
    samples = []
    corrupted_chains = 0
    rng_sample = make_rng((config.seed, 0xE2E))
    for first in range(0, config.trials, BATCH):
        size = min(BATCH, config.trials - first)
        chains = [
            {row[0]: row for row in sim.run_batch(model, (config.seed, q), first // BATCH, size)}
            for q in range(n)
        ]
        for trial in range(size):
            flips = 0
            alignments = []
            for q, rows in enumerate(chains):
                row = rows.get(trial)
                if row is None:  # no fault: every merge aligned, not failed
                    alignments.append(aligned)
                    continue
                _, _, failed, sector, prep_nc = row
                if failed:
                    flips |= 1 << q
                alignments.append(tuple(itertools.accumulate(sector, operator.xor, initial=0)))
                corrupted_chains += failed or any(sector) or prep_nc > 0
            key = tuple(alignments)
            cdf = cdfs.get(key)
            if cdf is None:
                eff = _effective_circuit(circuit, assign, alignments)
                cdf = cdfs[key] = _cdf(exact_distribution(eff))
            s = int(cdf.searchsorted(rng_sample.random(), side="right"))
            samples.append(s ^ flips)

    tv, lo, hi = empirical_tv(samples, ideal, seed=(config.seed, 0xB007))
    eps_bar = corrupted_chains / (config.trials * n)
    const = tv / (n * eps_bar) if eps_bar > 0 else None
    return EndToEndResult(
        n, config.epsilon, config.trials, tv, lo, hi, eps_bar, const, circuit, k
    )


# ---------------------------------------------------------------------------
# Overhead calculator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadPlan:
    n_logical: int
    delta: float
    epsilon: float
    eps_th: float
    k: int
    L: int
    block_qubits: int
    total_qubits: int
    extrapolated: bool


def overhead(
    n_logical: int,
    delta: float,
    epsilon: float,
    eps_th: float,
    c_k: float = 1.0,
    c_l: float = 1.0,
    c_r: float = 1.0,
) -> OverheadPlan:
    """Parameter plan: k = ceil(c_k log2 N), L from the precision relation,
    with k = O(L) enforced. A tetrahedral block of odd L >= 3 has exactly
    (L^3 + L)/2 qubits; no block exists for an even L or L < 3, and its size
    from the same formula is marked extrapolated."""
    if n_logical < 1:
        raise ValueError(f"n (logical qubits) must be >= 1, got {n_logical}")
    if not 0 < epsilon < eps_th:
        raise ValueError(f"epsilon must lie in (0, eps_th={eps_th}), got {epsilon}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    for name, c in (("c_k", c_k), ("c_l", c_l), ("c_r", c_r)):
        if not c > 0:
            raise ValueError(f"{name} must be > 0, got {c}")
    k = max(1, math.ceil(c_k * math.log2(n_logical)))
    l_precision = math.ceil(c_l * math.log(n_logical / delta) / math.log(eps_th / epsilon))
    L = max(math.ceil(k / c_r), l_precision)
    m = (L**3 + L) // 2
    return OverheadPlan(
        n_logical, delta, epsilon, eps_th, k, L, k * m, n_logical * k * m, L < 3 or L % 2 == 0
    )


# ---------------------------------------------------------------------------
# Preparation-only Monte Carlo (rates of the noncorrectable channels)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepScanRow:
    L: int
    epsilon: float
    trials: int
    tetra_noncorrectable: int
    merge_noncorrectable: int
    tetra_rate: float
    merge_rate: float
    tetra_ci: tuple[float, float]
    merge_ci: tuple[float, float]


def prep_scan(L: int, model: NoiseModel, trials: int, seed: int, workers: int = 1) -> PrepScanRow:
    """Estimate the noncorrectable preparation and merge rates empirically,
    from the two preparations and the merge of k=2 chain trials, drawn under
    the spawn key (seed, 2, L) so that the rows of a scan over L share no
    stream."""
    est = logical_error_rate(L, 2, model, trials, (seed, 2, L), workers=workers)
    tetra_nc, merge_nc = est.prep_noncorrectable, est.merge_noncorrectable
    t_lo, t_hi = wilson_interval(tetra_nc, 2 * trials)
    m_lo, m_hi = wilson_interval(merge_nc, trials)
    return PrepScanRow(
        L, model.epsilon, trials, tetra_nc, merge_nc,
        tetra_nc / (2 * trials), merge_nc / trials, (t_lo, t_hi), (m_lo, m_hi),
    )


def write_tv_csv(path, results: list[EndToEndResult]) -> None:
    lines = ["N,epsilon,trials,tv,ci_low,ci_high,bound"]
    for r in results:
        bound = "" if r.bound_constant is None else f"{r.bound_constant:.10g}"
        lines.append(
            f"{r.n},{r.epsilon:.10g},{r.trials},{r.tv:.10g},"
            f"{r.ci_low:.10g},{r.ci_high:.10g},{bound}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
