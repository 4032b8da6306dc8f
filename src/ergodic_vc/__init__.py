"""Exact workbench for uniform convergence of set and function classes
along ergodic sample paths.

Everything numeric is an exact rational or a fixed-point integer; floats
appear only in human-facing summaries. The package splits into:

* ``intervals``: half-open interval unions on [0, 1) with exact measure.
* ``families``: indexed set families (dyadic cells, k-interval unions,
  run patterns, subset-indexed join generators).
* ``vc``: shatter coefficients, binomial-sum growth bounds, exhaustive
  dimension search, joins with certified shattered witnesses.
* ``processes``: seeded fixed-point sample paths (iid, rotation,
  doubling, Markov) and measure-zero orbit-atom families.
* ``deviation``: uniform empirical deviations, KS statistic, exact
  k-interval deviation maximization, the join cells where a set's local
  deviation overshoots, seeded trace bundles whose jobs carry the process
  spec and the family's compiled rows.
* ``isomorphism``: stagewise piecewise-translation straightening maps.
* ``induced``: first-return paths, pacing ratios, the induced-frequency
  transfer identity and deviation transfer bound.
* ``functions``: bounded piecewise-linear classes, level discretization,
  envelope truncation, graph lifts and the two-part deviation split.
"""

from .deviation import (
    DeviationResult,
    DeviationTrace,
    KIntervalDeviation,
    TraceBundle,
    cellwise_deviation_sum,
    deviation_trace,
    discrepancy,
    high_discrepancy_cells,
    ks_statistic,
    max_deviation_k_intervals,
    uniform_deviation,
)
from .errors import InsufficientDataError, ParseError, ResourceLimitError
from .families import (
    dyadic_class,
    half_interval_class,
    k_interval_class,
    run_pattern_class,
    subset_indexed_sets,
)
from .functions import (
    GammaSplit,
    GraphSample,
    PiecewiseFn,
    Truncation,
    discretize_major,
    gamma_fn,
    gamma_split,
    graph_lift,
    lm_bound,
    ramp_family,
    random_piecewise_fn,
    truncate_envelope,
)
from .induced import (
    InducedPath,
    TransferBound,
    TransferIdentity,
    deviation_transfer_bound,
    frequency_transfer_identity,
    induce,
    induced_uniform_deviation,
    kac_ratio,
    mean_return_time,
)
from .intervals import Interval, IntervalUnion, SetFamily, iu, normalize, parse_union
from .isomorphism import (
    PiecewiseTranslation,
    build_map,
    doubling_comb,
    doubling_deviation,
    doubling_map,
    doubling_map_deviation,
    image_of_union,
    measure_preservation_defect,
)
from .processes import (
    AtomSet,
    ProcessSpec,
    SamplePath,
    doubling_spec,
    fixed_uniform,
    generate,
    golden_alpha_fixed,
    iid_spec,
    markov_spec,
    rotation_spec,
    stationary_distribution,
    trajectory_family,
)
from .vc import (
    JoinPartition,
    SauerBound,
    VcDimension,
    full_join_witness,
    is_shattered,
    join,
    sauer_bound,
    shatter_coefficient,
    union_family,
    vc_dimension,
)

__version__ = "0.1.0"
