"""prefixcode: exact-arithmetic laboratory for optimal prefix codes.

Distributions are integer weights over one exact denominator, with
``Fraction`` only at the API and report boundary; Huffman merging follows one
deterministic rule (merge the last two positions, insert before equals);
every optimality claim can be certified against a brute-force enumeration
of complete codes.
"""

from prefixcode.antiuniform import (
    AntiUniformVerdict,
    alpha_criterion,
    alpha_pairwise_criterion,
    anti_uniform_lengths,
    check_finite,
    check_infinite_tail,
    verify_truncation_anti_uniform,
)
from prefixcode.convergence import (
    ConvergenceReport,
    SymbolReport,
    estimate_optimal_lengths,
    truncation_sequence,
)
from prefixcode.delta import (
    DeltaKind,
    DeltaResult,
    delta_bounds,
    delta_occasion,
    l1_lower_bound,
    l1_via_delta,
)
from prefixcode.distributions import FiniteDistribution, counterexample, validate
from prefixcode.huffman import (
    CodeBook,
    LengthVector,
    MergeState,
    MergeTrace,
    canonical_codebook,
    expected_length,
    huffman,
    huffman_lengths,
    kraft_sum,
)
from prefixcode.intervals import (
    CoverageBounds,
    L1Classification,
    L1Interval,
    classify_l1,
    classify_l1_infinite,
    coverage_sum,
    interval_for,
)
from prefixcode.oracle import (
    OptimalSet,
    count_kraft_tight,
    enumerate_kraft_tight,
    optimal_lengths,
)
from prefixcode.sources import (
    AlphaSequence,
    AlphaVector,
    ExplicitHead,
    Geometric,
    SourceSpec,
    from_alphas,
    to_alphas,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSequence",
    "AlphaVector",
    "AntiUniformVerdict",
    "CodeBook",
    "ConvergenceReport",
    "CoverageBounds",
    "DeltaKind",
    "DeltaResult",
    "ExplicitHead",
    "FiniteDistribution",
    "Geometric",
    "L1Classification",
    "L1Interval",
    "LengthVector",
    "MergeState",
    "MergeTrace",
    "OptimalSet",
    "SourceSpec",
    "SymbolReport",
    "alpha_criterion",
    "alpha_pairwise_criterion",
    "anti_uniform_lengths",
    "canonical_codebook",
    "check_finite",
    "check_infinite_tail",
    "classify_l1",
    "classify_l1_infinite",
    "count_kraft_tight",
    "counterexample",
    "coverage_sum",
    "delta_bounds",
    "delta_occasion",
    "enumerate_kraft_tight",
    "estimate_optimal_lengths",
    "expected_length",
    "from_alphas",
    "huffman",
    "huffman_lengths",
    "interval_for",
    "kraft_sum",
    "l1_lower_bound",
    "l1_via_delta",
    "optimal_lengths",
    "to_alphas",
    "truncate",
    "truncation_sequence",
    "validate",
    "verify_truncation_anti_uniform",
    "__version__",
]
