"""Pinned seeded outputs of the Monte Carlo entry points.

The values were produced by the counter-based trial streams (rng.TrialStreams:
Philox under the seed's key from counter (0, trial, tag, 1)), with one twirl
coin per X crossing the diagonal layer, chains of `end_to_end` keyed by
(seed, qubit) and points of `threshold_scan` by (seed, k, L, epsilon index).
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
    (1, 0.01): (3, 1, 0.01, 300, 7, 0.023333333333333334, 0.01134751559829571, 0.04737255433287896, 0, 0, 7),
    (1, 0.05): (3, 1, 0.05, 300, 49, 0.16333333333333333, 0.12580582169498175, 0.2093740878368269, 0, 1, 50),
    (2, 0.01): (3, 2, 0.01, 200, 9, 0.045, 0.023852271724704166, 0.08329759366096785, 0, 0, 9),
    (2, 0.05): (3, 2, 0.05, 200, 66, 0.33, 0.26857320614303315, 0.3978344358691961, 3, 2, 68),
    (4, 0.01): (3, 4, 0.01, 100, 8, 0.08, 0.04109296948581091, 0.14998266879403072, 0, 0, 8),
    (4, 0.05): (3, 4, 0.05, 100, 45, 0.45, 0.3561437510640346, 0.5475557296835656, 1, 3, 48),
}

SCAN_CSV = (
    "L,k,epsilon,trials,failures,rate,ci_low,ci_high\n"
    "3,1,0.01,150,1,0.006666666667,0.001177771023,0.03679375293\n"
    "3,1,0.04,150,22,0.1466666667,0.09889364964,0.2120859554\n"
    "3,2,0.01,150,10,0.06666666667,0.03661146073,0.1183635265\n"
    "3,2,0.04,150,43,0.2866666667,0.2203370268,0.3636506592\n"
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k, epsilon", sorted(RATES))
def test_logical_error_rate_pinned(k, epsilon, workers):
    est = harness.logical_error_rate(
        3, k, NoiseModel(epsilon), RATES[(k, epsilon)][3], seed=31 + k, workers=workers
    )
    assert dataclasses.astuple(est) == RATES[(k, epsilon)]


def test_end_to_end_pinned():
    cfg = harness.ExperimentConfig(n=3, epsilon=0.03, gamma=1.0, trials=150, seed=12, L=3)
    res = harness.end_to_end(cfg)
    assert (res.tv, res.ci_low, res.ci_high, res.eps_bar, res.bound_constant, res.depth) == (
        0.28174918813914435, 0.2349426742843663, 0.36866654248474845,
        0.29555555555555557, 0.31776224226219285, 3,
    )
    assert res.circuit == IqpCircuit(3, (1, 4, 5), ((0, 1, 1), (0, 2, 3), (1, 2, 2)), 1.0, 12)


@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_scan_csv_pinned(tmp_path, workers):
    res = harness.threshold_scan([3], [1, 2], [0.01, 0.04], 150, seed=5, workers=workers)
    out = tmp_path / "scan.csv"
    res.to_csv(out)
    assert out.read_text() == SCAN_CSV
