"""Numerical laboratory for order structure on grids.

Polyhedral cone algebra, span norms and lattice renorming, discrete Sobolev
spaces with a mollifier approximation scheme and push-in operators, and
extrapolation spaces of positive matrix semigroup generators, all checked
against brute-force lattice oracles.
"""

from .ordered_space import (
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    dual_cone,
    is_face,
    normality_constant_lower_bound,
    supremum_oracle,
)
from .sobolev_grid import (
    GridDomain,
    GridFunction,
    Mollifier,
    PushinOperator,
    build_boundary_chart,
    mollify,
    negative_sobolev_norm,
    positive_dominant_w0,
    sobolev_norm,
)
from .span_lattice import (
    ApproximationScheme,
    SpanNormResult,
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
