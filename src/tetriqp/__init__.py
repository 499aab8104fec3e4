"""Tetrahedral and tetrahelix color codes with fault-tolerant sparse IQP
sampling simulation."""

__version__ = "0.1.0"

from .colex import Colex, build_tetrahedral_colex, facet_code, validate_colex
from .csscode import CssCode, distance, find_t_partition, from_colex, logical_count
from .iqp import IqpCircuit, exact_distribution, prob_zero, sample_circuit
from .noise import NoiseModel
from .surgery import Block, TetrahelixCode, build_tetrahelix

__all__ = [
    "Colex",
    "CssCode",
    "IqpCircuit",
    "NoiseModel",
    "Block",
    "TetrahelixCode",
    "build_tetrahedral_colex",
    "build_tetrahelix",
    "distance",
    "exact_distribution",
    "facet_code",
    "find_t_partition",
    "from_colex",
    "logical_count",
    "prob_zero",
    "sample_circuit",
    "validate_colex",
]
