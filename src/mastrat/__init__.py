"""Minimum-aberration multi-stratum two-level factorial designs.

Library layout:
  gf2        exact GF(2) linear algebra on bit-packed matrices
  blocks     unit factors, block structures, strata, criterion orderings
  aberration generalized word counts B_{k,i} and W_G aberration criteria
  keys       design-key templates, pools, and generator sets
  search     swarm (SIB) drivers for regular and nonregular designs
  fixtures   bundled reference designs
  cli        command-line front end
"""

from .aberration import (
    WordlengthTable,
    compute_Bki_matrix,
    compute_W,
    compute_WG,
    criterion_vector,
    render_report,
    table_from_counts,
)
from .blocks import (
    BlockStructure,
    StratumDecomposition,
    UnitFactor,
    VarianceVector,
    admissible_subsets,
    criterion_sequence,
    cross,
    nest,
    parse_structure,
    strata_projectors,
    stratum_variance,
    validate_obs,
)
from .gf2 import BitMatrix, gf2_rank, span_enumerate, word_to_letters
from .keys import (
    GeneratorSet,
    KeyTemplate,
    PoolMatrix,
    default_pools,
    expand_design,
    pool_for,
    template_for,
)
from .search import (
    NonregularProblem,
    QVector,
    SearchResult,
    fish_patty_problem,
    mix_nonregular,
    mix_regular,
    move,
    oracle_regular,
    run_algorithm3,
    run_algorithm4,
)

__version__ = "0.1.0"
