"""The one stack convention of every public function that takes vectors.

A batch of vectors is an (m, dim) row stack and a vector is a stack of one,
row 0.  Each entry point checks its input with ``sobolev_grid.as_stack``:
a wrong length raises the one message ``expected vectors of length {dim}``,
a vector's result equals row 0 of its stack of one bit for bit, and the
failures of a stack come back keyed by row in ``diagnostics["rows"]``.
"""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from latlab import extrapolation, sobolev_grid, span_lattice
from latlab.extrapolation import (
    ExtrapolationSpace,
    extrapolation_norm,
    neumann_laplacian_1d,
    theorem41_sup,
)
from latlab.ordered_space import (
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    in_generated_cone,
    is_face,
    normality_constant_lower_bound,
    supremum_oracle,
)
from latlab.sobolev_grid import (
    ConvergenceError,
    GridDomain,
    mollify,
    negative_sobolev_norm,
    positive_dominant_w0,
    sobolev_norm,
)
from latlab.span_lattice import (
    ApproximationScheme,
    constructive_sup,
    constructive_sup_dual,
    mollifier_scheme,
    renorm_value,
    span_norm,
)


def _ice_cream_cone():
    # {x : x3 >= |x1| + |x2|}, a cone that is not the standard one
    return PolyhedralCone(3, np.array([
        [-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))


def _w12():
    return OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0.0, 1.0, 8), 1, 2.0)


def _extrapolation_space(n=32):
    domain = GridDomain.interval(0.0, 1.0, n)
    return ExtrapolationSpace(OrderedSpaceSpec.standard_lp(np.ones(n), 2.0),
                              neumann_laplacian_1d(n, domain.h), lam=1.0)


def _torus_scheme():
    return mollifier_scheme(GridDomain.torus(1.0, 64))


def _smooth(n):
    # converges at once under both schemes: R_n fixes the constant part
    return 0.5 + 1e-5 * np.sin(2 * np.pi * np.arange(n) / n)


# mixed signs, so that span_norm runs projected Newton on W^{1,2}
_MIXED = np.sin(np.arange(1.0, 9.0) * 2.1)
# in the ice cream cone
_INSIDE = np.array([0.3, -0.2, 1.0])


# id -> (dim, function of the input, what it takes, an input it accepts),
# where it takes a "vector", a "stack" (or a vector) or witness "pairs"
def _entry_points():
    space, cone = _w12(), _ice_cream_cone()
    cone_space = OrderedSpaceSpec(3, cone, NormSpec.lp(np.ones(3), 2.0))
    ext, scheme = _extrapolation_space(), _torus_scheme()
    interval, torus = GridDomain.interval(0.0, 1.0, 8), GridDomain.torus(1.0, 16)
    t = interval.axis(0)  # (t (1 - t))^8 vanishes at both ends, as k = 1 needs
    return {
        "PolyhedralCone.contains": (3, cone.contains, "stack", _INSIDE),
        "NormSpec.value": (8, space.norm.value, "vector", _MIXED),
        "NormSpec.value_many": (8, space.norm.value_many, "stack", _MIXED),
        "NormSpec.grad": (8, space.norm.grad, "stack", _MIXED),
        "NormSpec.hess": (8, space.norm.hess, "stack", _MIXED),
        "supremum_oracle": (
            3, lambda x: supremum_oracle(cone_space, x, np.ones(3)), "vector", _INSIDE),
        "normality_constant_lower_bound": (
            3, lambda pairs: normality_constant_lower_bound(cone_space, pairs), "pairs",
            [(_INSIDE, 2.0 * _INSIDE)]),
        "is_face": (3, lambda G: is_face(G, cone, sample_size=8), "stack", _INSIDE),
        "in_generated_cone": (3, lambda x: in_generated_cone(np.eye(3), x), "vector", _INSIDE),
        "span_norm": (8, lambda x: span_norm(space, x), "stack", _MIXED),
        "renorm_value": (8, lambda x: renorm_value(space, x), "vector", _MIXED),
        "extrapolation_norm": (32, lambda x: extrapolation_norm(ext, x), "stack", _smooth(32)),
        "constructive_sup": (
            64, lambda z: constructive_sup(scheme, z, 1e-5), "stack", _smooth(64)),
        "constructive_sup_dual": (
            64, lambda z: constructive_sup_dual(scheme, z, 1e-5), "stack", _smooth(64)),
        "theorem41_sup": (32, lambda z: theorem41_sup(ext, z, 1e-5), "stack", _smooth(32)),
        "sobolev_norm": (8, lambda f: sobolev_norm(interval, 1, 2.0, f), "vector", _MIXED),
        "negative_sobolev_norm": (
            8, lambda g: negative_sobolev_norm(interval, 1, 2.0, g), "vector", _MIXED),
        "mollify": (16, lambda f: mollify(torus, 0.25, f), "vector", _smooth(16)),
        "positive_dominant_w0": (
            8, lambda f: positive_dominant_w0(interval, 1, f), "vector", (t * (1.0 - t)) ** 8),
    }


_ENTRY_POINTS = list(_entry_points())


def _wrong_inputs(dim, takes):
    if takes == "pairs":
        return [[(np.ones(dim + 1), np.ones(dim + 1))], [(np.ones(dim - 1), np.ones(dim - 1))]]
    vectors = [np.ones(dim + 1), np.ones(dim - 1), np.ones((2, dim // 2))]
    if takes == "vector":  # a stack, even of one, is not a vector
        return vectors + [np.ones((1, dim))]
    return vectors + [np.ones((2, dim + 1)), np.ones((1, 2, dim))]


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_a_wrong_length_raises_the_one_message(name):
    dim, call, takes, good = _entry_points()[name]
    call(good)
    for x in _wrong_inputs(dim, takes):
        with pytest.raises(ValueError, match=f"^expected vectors of length {dim}$"):
            call(x)


def _same(a, b) -> bool:
    """Equal to the bit: dataclass fields, sequences and arrays, shapes included."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(map(_same, a, b))
    if a is None or b is None:
        return a is b
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


# the stack function of a vector-only entry point
_STACK_OF = {"NormSpec.value": "NormSpec.value_many", "sobolev_norm": "NormSpec.value_many"}
# a vector gives what its stack of one gives: one verdict for every row, or
# the norms of value_many, which takes a vector as a stack of one
_WHOLE = ("PolyhedralCone.contains", "is_face", "NormSpec.value_many")


@pytest.mark.parametrize("name", [name for name, (_, _, takes, _) in _entry_points().items()
                                  if takes == "stack" or name in _STACK_OF])
def test_a_vector_is_row_zero_of_its_stack_of_one(name):
    points = _entry_points()
    _, call, _, x = points[name]
    stacked = points[_STACK_OF.get(name, name)][1](x[None])
    assert _same(call(x), stacked if name in _WHOLE else stacked[0])


def _truncated(scheme):
    return ApproximationScheme(scheme.R, scheme.n_min, 16)


def _span_case(monkeypatch):
    # no Newton step: a row that needs the solve is left uncertified, while
    # a one-signed row takes the closed form
    space, x = _w12(), _MIXED
    monkeypatch.setattr(span_lattice, "_SPAN_NEWTON_STEPS", 0)
    return (lambda v: span_norm(space, v)), x, np.array([x, np.abs(x), -x]), {0, 2}


def _sup_case(sup):
    def case(monkeypatch):
        # R_n fixes constants, so they converge at once; the sine needs far
        # more indices than 2..16
        scheme, t = _truncated(_torus_scheme()), GridDomain.torus(1.0, 64).axis(0)
        sine = np.sin(2 * np.pi * t)
        Z = np.array([np.full(64, 0.5), sine, np.full(64, 0.25)])
        return (lambda z: sup(scheme, z, 1e-9)), sine, Z, {1}
    return case


def _theorem41_case(monkeypatch):
    # the Neumann Laplacian annihilates constants, so R_n fixes them
    scheme = extrapolation.resolvent_scheme
    monkeypatch.setattr(extrapolation, "resolvent_scheme", lambda gen: _truncated(scheme(gen)))
    ext = _extrapolation_space()
    profile = np.sin(2 * np.pi * np.linspace(0.0, 1.0, 32))
    Z = np.array([profile, np.full(32, 0.5), 2.0 * profile])
    return (lambda z: theorem41_sup(ext, z, 1e-9)), profile, Z, {0, 2}


def _dual_ascent_case(monkeypatch):
    # W^{-1,3}: each row's norm is an ascent, certified by a duality gap that
    # a planted dual bound of 1 leaves far above 1e-4; the zero row needs none
    norm = NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 3.0)
    monkeypatch.setattr(sobolev_grid, "dual_norm_bound", lambda *args: np.ones(1))
    x = _MIXED[:6]
    return norm.value_many, x, np.array([x, np.zeros(6), 2.0 * x]), {0, 2}


_FAILING = {"span_norm": _span_case, "constructive_sup": _sup_case(constructive_sup),
            "constructive_sup_dual": _sup_case(constructive_sup_dual),
            "theorem41_sup": _theorem41_case, "NormSpec.value_many": _dual_ascent_case}


@pytest.mark.parametrize("name", list(_FAILING))
def test_the_failures_of_a_stack_are_keyed_by_row(name, monkeypatch):
    call, x, X, failed = _FAILING[name](monkeypatch)
    with pytest.raises(ConvergenceError) as many:
        call(X)
    rows = many.value.diagnostics["rows"]
    assert set(rows) == failed
    # ConvergenceError.of_rows: each row holds its error, and the message joins them
    assert all(isinstance(row["error"], str) for row in rows.values())
    assert str(many.value) == "; ".join(f"row {j}: {row['error']}" for j, row in rows.items())
    assert str(many.value).startswith(f"row {min(failed)}: ")
    assert len(many.value.best) == len(X)
    with pytest.raises(ConvergenceError) as one:
        call(x)
    # a vector is row 0, and its best keeps the shape of a vector's result
    assert set(one.value.diagnostics["rows"]) == {0}
    assert str(one.value).startswith("row 0: ") and ";" not in str(one.value)
    j = min(failed)
    assert one.value.diagnostics["rows"][0].keys() == many.value.diagnostics["rows"][j].keys()
    if name != "NormSpec.value_many":  # a vector's norms are its stack of one's
        assert not isinstance(one.value.best, list)
        assert np.shape(getattr(one.value.best, "y", one.value.best)) == x.shape


def test_a_vector_norm_fails_as_row_zero_with_a_scalar_best(monkeypatch):
    norm_many, x, _, _ = _dual_ascent_case(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        norm_many.__self__.value(x)
    assert set(info.value.diagnostics["rows"]) == {0}
    assert isinstance(info.value.best, float)


def test_the_readme_names_every_entry_point():
    # README's row-stack section lists each function this file holds to the convention
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## The row-stack convention\n", 1)[1].split("\n## ", 1)[0]
    named = {name.removeprefix("NormSpec.") for name in re.findall(r"`([^`]+)`", section)}
    missing = [name for name in _ENTRY_POINTS if name.removeprefix("NormSpec.") not in named]
    assert not missing, f"README's row-stack section does not name {missing}"
