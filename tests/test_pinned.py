"""Pinned seeded outputs of the Monte Carlo entry points.

The values were produced by the counter-based batch streams (rng.TrialStreams:
Philox under the seed's key from counter (0, batch, tag, 1)). Batch b holds
trials b * BATCH to (b + 1) * BATCH - 1, with BATCH = 256: their faults come
from tag 0, sampled as geometric gaps over the (BATCH, locations) grid, and
their twirl coins from tag 1, one per X crossing the diagonal layer, in trial
order. Chains of `end_to_end` are keyed by (seed, qubit) and points of
`threshold_scan` by (seed, k, L, epsilon index). A circuit's CS pairs are
drawn as geometric gaps (rng.bernoulli_positions) after its T exponents.
A refactor that changes a single random draw or a single decode fails here.
Change a pin only with a change that is meant to alter the seeded streams,
and say so.
"""

import dataclasses

import pytest

from tetriqp import harness
from tetriqp.iqp import IqpCircuit
from tetriqp.noise import NoiseModel

# (k, epsilon) -> astuple(RateEstimate) for L=3, seed 31 + k
RATES = {
    (1, 0.01): (3, 1, 0.01, 300, 4, 0.013333333333333334, 0.005196877684679467, 0.03377606084644991, 0, 0, 4),
    (1, 0.05): (3, 1, 0.05, 300, 55, 0.18333333333333332, 0.14364461001138987, 0.23102956232050934, 0, 0, 55),
    (2, 0.01): (3, 2, 0.01, 200, 9, 0.045, 0.023852271724704166, 0.08329759366096785, 0, 0, 9),
    (2, 0.05): (3, 2, 0.05, 200, 67, 0.335, 0.2732398096874265, 0.4029793722656195, 0, 0, 67),
    (4, 0.01): (3, 4, 0.01, 100, 11, 0.11, 0.06254131955225126, 0.18631463027903022, 0, 0, 11),
    (4, 0.05): (3, 4, 0.05, 100, 52, 0.52, 0.4231640509017654, 0.6153561567991945, 0, 3, 53),
}

SCAN_CSV = (
    "L,k,epsilon,trials,failures,rate,ci_low,ci_high\n"
    "3,1,0.01,150,5,0.03333333333,0.0143202207,0.07565284251\n"
    "3,1,0.04,150,20,0.1333333333,0.08799732893,0.1969815064\n"
    "3,2,0.01,150,7,0.04666666667,0.0227862589,0.09318757392\n"
    "3,2,0.04,150,37,0.2466666667,0.1845806201,0.3214047571\n"
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k, epsilon", sorted(RATES))
def test_logical_error_rate_pinned(k, epsilon, workers):
    est = harness.logical_error_rate(
        3, k, NoiseModel(epsilon), RATES[(k, epsilon)][3], seed=31 + k, workers=workers
    )
    assert dataclasses.astuple(est) == RATES[(k, epsilon)]


@pytest.mark.parametrize("workers", [1, 2])
def test_logical_error_rate_pinned_l5_chain(workers):
    # k=4 at L=5 decodes its outcomes through the software split, whose chain
    # explainer (37 checks) falls back to its greedy on a few hundred clusters
    est = harness.logical_error_rate(5, 4, NoiseModel(0.01), 512, seed=45, workers=workers)
    assert dataclasses.astuple(est) == (
        5, 4, 0.01, 512, 106, 0.20703125, 0.17417922322493423, 0.24424689828213308, 0, 1, 107
    )


def test_end_to_end_pinned():
    cfg = harness.ExperimentConfig(n=3, epsilon=0.03, gamma=1.0, trials=150, seed=12, L=3)
    res = harness.end_to_end(cfg)
    assert (res.tv, res.ci_low, res.ci_high, res.eps_bar, res.bound_constant, res.depth) == (
        0.188415854805811, 0.13175978507171357, 0.268526695296637,
        0.3022222222222222, 0.2078116045652327, 3,
    )
    assert res.circuit == IqpCircuit(3, (1, 4, 5), ((0, 1, 1), (0, 2, 1)), 1.0, 12)


@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_scan_csv_pinned(tmp_path, workers):
    res = harness.threshold_scan([3], [1, 2], [0.01, 0.04], 150, seed=5, workers=workers)
    out = tmp_path / "scan.csv"
    res.to_csv(out)
    assert out.read_text() == SCAN_CSV
