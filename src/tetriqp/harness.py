"""Monte Carlo orchestration: logical error rates, threshold scans,
end-to-end total-variation experiments, and the overhead calculator.

Every trial draws from its own Philox counter streams (seed, trial, tag)
(see `rng`). The seed is an int or a spawn tuple: (seed, qubit) for the
chains of `end_to_end`, (seed, k, L, epsilon index) for the points of
`threshold_scan`. Results are bit-identical for a fixed seed however trials
are chunked across workers, and distinct runs, qubits and grid points never
share a stream. The twirl of the X pattern crossing the diagonal layer is
drawn by `ChainSim.run_trial`, one coin per qubit, and nowhere else.

A trial fails when the decoded logical of its noisy outcome flips f is 1.
That is the event that the noisy outcome decodes differently
from the noiseless one, whatever noiseless outcome o the trial had: o lies in
ker(Hx) and splits into blocks with zero syndromes, so every decoder sees the
same syndromes for o ^ f as for f, and decode(o ^ f) = decode(o) ^ decode(f).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import gf2, surgery
from .colex import build_tetrahedral_colex, facet_code
from .decoder import BlockDecoder, FacetDecoder
from .iqp import (
    Distribution,
    IqpCircuit,
    exact_distribution,
    empirical_tv,
    sample_circuit,
)
from .noise import (
    NoiseModel, PropagationResult, propagate, sample_iid_faults, stage_layout, twirl_mask,
)
from .rng import TrialStreams, make_rng
from .surgery import TetrahelixCode, build_tetrahelix


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
    max_l: int = 7
    max_k: int = 8
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
        but the seed, which is >= 0, the epsilon grid rises within [0, 1]
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


@dataclass(frozen=True)
class TrialResult:
    failed: bool  # the decoded logical of the outcome flips is 1
    sector_flips: tuple[int, ...]  # per merge: residual logical misalignment
    merge_noncorrectable: int  # count of wrong merge decodes (= sector flips)
    prep_noncorrectable: int  # blocks whose residual acts as the X logical
    n_faults: int

    @property
    def corrupted(self) -> bool:
        return self.failed or any(self.sector_flips) or self.prep_noncorrectable > 0


class ChainSim:
    """Reusable simulator for one (k, L) chain. Its trials draw from one
    shared, re-keyed generator, so one thread at a time may run them."""

    def __init__(self, t: TetrahelixCode):
        self.t = t
        self.layout = stage_layout(t)
        self.block_decoders = [BlockDecoder(b) for b in t.blocks]
        self.facet_decoders = [
            FacetDecoder(facet_code(t.blocks[j].colex, pr.facet_color))
            for j, pr in enumerate(t.pairings)
        ]
        self.kernel = gf2.kernel_basis(t.code.hx.rows, t.code.n)
        self._streams = TrialStreams()
        self._fault_free = TrialResult(False, (0,) * len(t.pairings), 0, 0, 0)

    @classmethod
    @functools.cache
    def build(cls, k: int, L: int) -> "ChainSim":
        """The simulator of the (k, L) chain, built once per process."""
        return cls(build_tetrahelix(k, L))

    def sample_reference(self, rng) -> int:
        """A uniformly random noiseless outcome vector, an element of ker(Hx).
        Trials need none (see the module docstring); tests use it as the
        reference that the linearity of the decode is checked against."""
        bits = rng.integers(0, 2, len(self.kernel))
        o = 0
        for take, v in zip(bits, self.kernel):
            if take:
                o ^= v
        return o

    def run_trial(self, model: NoiseModel, seed, trial: int) -> TrialResult:
        """One sampled trial: faults from stream (seed, trial, 0), then
        `correct`, then one twirl coin per qubit of the X pattern crossing
        the diagonal layer from stream (seed, trial, 1), then the final
        decode. `seed` is an int or a spawn tuple (see `rng`)."""
        faults = sample_iid_faults(model, self.layout, self._streams(seed, trial, 0))
        if not faults:  # what correct and _decode give: every decoder maps 0 to 0
            return self._fault_free
        x_diff, flips, sector, prep_nc = self.correct(propagate(faults, self.t))
        if x_diff:
            flips ^= twirl_mask(x_diff, self._streams(seed, trial, 1))
        return TrialResult(
            failed=flips != 0 and self._decode(flips) != 0,
            sector_flips=sector,
            merge_noncorrectable=sum(sector),
            prep_noncorrectable=prep_nc,
            n_faults=len(faults),
        )

    def correct(self, prop: PropagationResult) -> tuple[int, int, tuple[int, ...], int]:
        """The deterministic part of a trial: decode each preparation and
        merge of the propagated faults and apply the fixes.

        Returns (x_diff, outcome_flips, sector, prep_nc): the X pattern that
        crosses the diagonal layer (still to be twirled), the outcome flips
        before the twirl, the per-merge residual logical misalignments and
        the number of blocks whose preparation residual acts as the X logical.
        """
        t = self.t
        x_diff = prop.layer_x
        prep_nc = 0
        residuals = []
        for b in range(t.k):
            dec = self.block_decoders[b]
            e_d = prop.prep_data_x.get(b, 0)
            e_m = prop.prep_meas.get(b, 0)
            syndrome = dec.faces.syndrome(e_d) ^ e_m if (e_d or e_m) else 0
            xhat, _ = dec.decode_prep(syndrome)
            r = e_d ^ xhat
            residuals.append(r)
            x_diff ^= r << t.block_offset(b)
            if (r & dec.lz).bit_count() & 1:
                prep_nc += 1

        sector = []
        for j, pr in enumerate(t.pairings):
            flips = prop.pair_flips.get(j, 0)
            word = flips
            for p, (vl, vr) in enumerate(pr.pairs):
                bit = (residuals[j] >> vl & 1) ^ (residuals[j + 1] >> vr & 1)
                word ^= bit << p
            if word or flips:
                xhat, _ = self.facet_decoders[j].decode(word)
                xtrue, _ = self.facet_decoders[j].decode(word ^ flips)
            else:
                xhat = xtrue = 0
            if xhat:
                x_diff ^= t.block_logical_x[j]
            sector.append(xhat ^ xtrue)
        return x_diff, prop.outcome_flips, tuple(sector), prep_nc

    def _decode(self, outcomes: int) -> int:
        res = surgery.split_frame(self.t, outcomes)
        out = 0
        for b in range(self.t.k):
            dec = self.block_decoders[b]
            zhat = dec.decode_cells(res.block_syndromes[b])
            lxb = self.t.block_slice(self.t.block_logical_x[b], b)
            ob = res.block_outcomes[b]
            out ^= ((ob & lxb).bit_count() + (zhat & lxb).bit_count()) & 1
        return out


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


def _count_chunk(args, records: list | None = None) -> tuple[int, int, int, int]:
    """(failures, merge_nc, prep_nc, corrupted) over trials [start, stop);
    appends one trace record per trial to `records` when given."""
    L, k, model, seed, start, stop = args
    sim = ChainSim.build(k, L)
    fails = merge_nc = prep_nc = corrupt = 0
    for trial in range(start, stop):
        res = sim.run_trial(model, seed, trial)
        fails += res.failed
        merge_nc += res.merge_noncorrectable
        prep_nc += res.prep_noncorrectable
        corrupt += res.corrupted
        if records is not None:
            records.append(
                {
                    "trial": trial,
                    "n_faults": res.n_faults,
                    "sector_flips": list(res.sector_flips),
                    "prep_noncorrectable": res.prep_noncorrectable,
                    "failed": res.failed,
                }
            )
    return fails, merge_nc, prep_nc, corrupt


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
    max_l: int = 7,
    max_k: int = 8,
    trace_path=None,
) -> RateEstimate:
    """Monte Carlo estimate of P[the decoded logical of a trial's outcome
    flips is 1], the probability that the noisy outcome decodes differently
    from the noiseless one (see the module docstring). `seed` is an int
    or a spawn tuple; trial t draws from streams (seed, t, tag).

    trace_path, when given (single-worker runs), writes one JSON line per
    trial with the fault count, per-merge sector flips, and the outcome.
    """
    if L > max_l or k > max_k:
        raise ValueError(f"(L={L}, k={k}) exceeds caps (max_l={max_l}, max_k={max_k})")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    records = None if trace_path is None else []
    if records is not None or workers <= 1 or trials < 2 * workers:
        counts = _count_chunk((L, k, model, seed, 0, trials), records)
    else:
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        jobs = [
            (L, k, model, seed, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        ChainSim.build(k, L)  # forked workers inherit it instead of rebuilding
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_count_chunk, jobs))
        counts = tuple(sum(col) for col in zip(*parts))
    if records is not None:
        write_trace(trace_path, records)
    fails, merge_nc, prep_nc, corrupt = counts
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
    key (seed, q). Sector errors from wrong merge fixes rotate the effective
    logical circuit; decode errors flip sampled bits. Outcomes are drawn
    from make_rng((seed, 0xE2E)), the bootstrap from (seed, 0xB007).
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

    cdfs: dict[tuple, np.ndarray] = {}  # alignments -> CDF of the effective circuit
    ideal_cdf = _cdf(ideal)
    samples = []
    corrupted_chains = 0
    rng_sample = make_rng((config.seed, 0xE2E))
    for trial in range(config.trials):
        flips = 0
        alignments = []
        for q in range(n):
            res = sim.run_trial(model, (config.seed, q), trial)
            if res.failed:
                flips |= 1 << q
            align = []
            acc = 0
            for b in range(k):
                align.append(acc)
                if b < len(res.sector_flips):
                    acc ^= res.sector_flips[b]
            alignments.append(align)
            if res.corrupted:
                corrupted_chains += 1
        key = tuple(tuple(a) for a in alignments)
        if any(any(a) for a in alignments):
            if key not in cdfs:
                eff = _effective_circuit(circuit, assign, alignments)
                cdfs[key] = _cdf(exact_distribution(eff))
            cdf = cdfs[key]
        else:
            cdf = ideal_cdf
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


@functools.cache
def _block_size_fit() -> tuple[float, float]:
    """Least-squares a*L^3 + b fit of built colex sizes."""
    Ls = np.array([3.0, 5.0, 7.0])
    ns = np.array([float(build_tetrahedral_colex(int(l)).n) for l in Ls])
    A = np.stack([Ls**3, np.ones_like(Ls)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ns, rcond=None)
    return float(coef[0]), float(coef[1])


def overhead(
    n_logical: int,
    delta: float,
    epsilon: float,
    eps_th: float,
    c_k: float = 1.0,
    c_l: float = 1.0,
    c_r: float = 1.0,
    max_l: int = 9,
) -> OverheadPlan:
    """Parameter plan: k = ceil(c_k log2 N), L from the precision relation,
    with k = O(L) enforced; block size built exactly when possible."""
    if epsilon >= eps_th:
        raise ValueError(f"epsilon {epsilon} must be below the threshold {eps_th}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    k = max(1, math.ceil(c_k * math.log2(n_logical)))
    l_precision = math.ceil(c_l * math.log(n_logical / delta) / math.log(eps_th / epsilon))
    L = max(math.ceil(k / c_r), l_precision)
    buildable = L >= 3 and L % 2 == 1 and L <= max_l
    if buildable:
        m = build_tetrahedral_colex(L).n
        extrapolated = False
    else:
        a, b = _block_size_fit()
        m = int(round(a * L**3 + b))
        extrapolated = True
    return OverheadPlan(
        n_logical, delta, epsilon, eps_th, k, L, k * m, n_logical * k * m, extrapolated
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


def prep_scan(L: int, model: NoiseModel, trials: int, seed: int) -> PrepScanRow:
    """Estimate the noncorrectable preparation and merge rates empirically,
    from the two preparations and the merge of k=2 chain trials."""
    est = logical_error_rate(L, 2, model, trials, seed)
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
