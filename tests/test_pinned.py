"""Pinned seeded outputs of the Monte Carlo entry points.

The values were produced by the implementation before the decoders were
unified into gf2.SyndromeDecoder and the simulator was memoised; a refactor
that changes a single random draw or a single decode fails here. Change a pin
only with a change that is meant to alter the seeded streams, and say so.
"""

import dataclasses

import pytest

from tetriqp import harness
from tetriqp.iqp import IqpCircuit
from tetriqp.noise import NoiseModel

# (k, epsilon) -> astuple(RateEstimate) for L=3, seed 31 + k
RATES = {
    (1, 0.01): (3, 1, 0.01, 300, 5, 0.016666666666666666, 0.0071393720427721935, 0.038415943621705605, 0, 0, 5),
    (1, 0.05): (3, 1, 0.05, 300, 52, 0.17333333333333334, 0.13469996727082598, 0.22022707366102798, 0, 2, 54),
    (2, 0.01): (3, 2, 0.01, 200, 6, 0.03, 0.013820125830748327, 0.06389511973247333, 0, 0, 6),
    (2, 0.05): (3, 2, 0.05, 200, 77, 0.385, 0.3203319691791383, 0.4540026121820756, 2, 1, 79),
    (4, 0.01): (3, 4, 0.01, 100, 9, 0.09, 0.04807199516388488, 0.16226374696643667, 0, 0, 9),
    (4, 0.05): (3, 4, 0.05, 100, 55, 0.55, 0.45244427031643447, 0.6438562489359654, 1, 2, 56),
}

SCAN_CSV = (
    "L,k,epsilon,trials,failures,rate,ci_low,ci_high\n"
    "3,1,0.01,150,3,0.02,0.006824627716,0.05714766586\n"
    "3,1,0.04,150,14,0.09333333333,0.05641134866,0.1505651778\n"
    "3,2,0.01,150,7,0.04666666667,0.0227862589,0.09318757392\n"
    "3,2,0.04,150,44,0.2933333333,0.2263630952,0.3706249756\n"
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
        0.26844336196330354, 0.2183875357874628, 0.3484433619633036,
        0.31333333333333335, 0.28557804464181225, 3,
    )
    assert res.circuit == IqpCircuit(3, (1, 4, 5), ((0, 1, 1), (0, 2, 3), (1, 2, 2)), 1.0, 12)


@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_scan_csv_pinned(tmp_path, workers):
    res = harness.threshold_scan([3], [1, 2], [0.01, 0.04], 150, seed=5, workers=workers)
    out = tmp_path / "scan.csv"
    res.to_csv(out)
    assert out.read_text() == SCAN_CSV
