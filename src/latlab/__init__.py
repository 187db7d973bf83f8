"""Numerical laboratory for order structure on grids.

Polyhedral cone algebra, span norms and lattice renorming, discrete Sobolev
spaces with mollifier and push-in approximation schemes, and extrapolation
spaces of positive matrix semigroup generators, all checked against
brute-force lattice oracles.
"""

from .ordered_space import (
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    decomposition_constant_estimate,
    dual_cone,
    is_face,
    lattice_hom_check,
    normality_constant_lower_bound,
    riesz_decompose,
    supremum_oracle,
)
from .sobolev_grid import (
    GridDomain,
    GridFunction,
    Mollifier,
    approx_identity_with_boundary,
    build_boundary_chart,
    mollify,
    negative_sobolev_norm,
    positive_dominant_w0,
    pushin_operator,
    sobolev_norm,
)
from .span_lattice import (
    ApproximationScheme,
    SpanNormResult,
    cone_norm_coincidence_check,
    constructive_sup,
    constructive_sup_dual,
    mollifier_scheme,
    renorm_bounds_check,
    renorm_value,
    span_norm,
)
from .extrapolation import (
    ExtrapolationSpace,
    GeneratorMatrix,
    extrapolation_norm,
    multiplication_example_check,
    neumann_laplacian_1d,
    resolvent,
    resolvent_scheme,
    theorem41_sup,
)

__version__ = "0.1.0"
