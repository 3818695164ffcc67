from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpisos.poly import (
    DynamicalSystem,
    Polynomial,
    PolynomialSyntaxError,
    SupportSet,
    generic_lie_support,
    grlex_key,
    lie_polynomial,
    monomial_basis,
    parse_polynomial,
    support,
)

from oracles import horner_eval, minkowski_loop

XYZ = ("x1", "x2", "x3")


# -- parsing ----------------------------------------------------------------

def test_parse_linear_terms():
    p = parse_polynomial("10*x2 - 10*x1", XYZ)
    assert p.terms == {(0, 1, 0): 10.0, (1, 0, 0): -10.0}


def test_parse_mixed_products():
    p = parse_polynomial("28*x1 - x1*x3 - x2", XYZ)
    assert p.terms == {(1, 0, 0): 28.0, (1, 0, 1): -1.0, (0, 1, 0): -1.0}


def test_parse_ratio_coefficient_is_correctly_rounded():
    p = parse_polynomial("x1*x2 - 8/3*x3", XYZ)
    assert p.terms[(0, 0, 1)] == -(8 / 3)
    assert p.terms[(1, 1, 0)] == 1.0


def test_parse_power_spellings_agree():
    assert parse_polynomial("1 - x1^2", XYZ) == parse_polynomial("1 - x1**2", XYZ)


def test_parse_collects_repeated_monomials():
    p = parse_polynomial("x1 + 2*x1 - 3*x1", ("x1",))
    assert p.terms == {}


def test_parse_leading_sign_and_constants():
    p = parse_polynomial("-x1 + 0.25", ("x1",))
    assert p.terms == {(1,): -1.0, (0,): 0.25}


def test_parse_scientific_notation():
    p = parse_polynomial("1e-3*x1 + 2.5e2", ("x1",))
    assert p.terms == {(1,): 1e-3, (0,): 250.0}


def test_parse_unknown_variable():
    with pytest.raises(PolynomialSyntaxError, match="unknown variable") as err:
        parse_polynomial("x1 + y2", XYZ)
    assert err.value.position == 5


@pytest.mark.parametrize(
    "text,position",
    [
        ("1e400*x1", 0),  # JSON and float() read 1e400 as inf
        ("x2 - 1e400*x1", 5),
        ("1e400*x1 - 1e400*x1", 0),  # inf - inf would store NaN
        ("1e300*1e300*x1", 0),
        ("x1 + 1" + "0" * 400 + "*x2", 5),  # an integer past the float range
        ("x1 + 1" + "0" * 400 + "/3*x2", 5),
    ],
)
def test_parse_rejects_non_finite_coefficients(text, position):
    with pytest.raises(PolynomialSyntaxError, match="not finite") as err:
        parse_polynomial(text, XYZ)
    assert err.value.position == position


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_polynomial_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="not finite"):
        Polynomial(1, {(1,): value})
    with pytest.raises(ValueError, match="not finite"):
        Polynomial.from_terms(1, {(0,): 1.0, (1,): value})


@pytest.mark.parametrize("bad", ["x1 +", "2*", "x1^x2", "x1 x2", "* x1", "3//2", "x1^-2", ""])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(bad, XYZ)


def test_parse_reports_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("x1 + $", XYZ)
    assert err.value.position == 5


# -- representation invariants ------------------------------------------------

def test_zero_polynomial_degree_is_neg_inf():
    assert Polynomial.zero(2).degree == float("-inf")
    assert Polynomial.constant(2, 0.0) == Polynomial.zero(2)


def test_from_terms_drops_zeros():
    p = Polynomial.from_terms(1, {(0,): 0.0, (1,): 2.0})
    assert p.terms == {(1,): 2.0}


def test_stored_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        Polynomial(1, {(0,): 0.0})


@pytest.mark.parametrize("alpha", [(1.5, 0), (-1, 2), (1, "2")])
def test_exponents_must_be_nonnegative_integers(alpha):
    # a field holding x1^1.5 would otherwise assemble as if it held x1
    with pytest.raises(ValueError, match="nonnegative integer"):
        Polynomial(2, {alpha: -1.0})
    with pytest.raises(ValueError, match="nonnegative integer"):
        SupportSet(2, frozenset({alpha}))


def test_monomial_basis_count_and_order():
    basis = monomial_basis(3, 2)
    assert len(basis) == 10
    assert basis[0] == (0, 0, 0)
    assert list(basis) == sorted(basis, key=grlex_key)
    assert basis[-1] == (2, 0, 0)


def test_differentiate_golden():
    p = parse_polynomial("x1^2*x2", ("x1", "x2"))
    assert p.differentiate(0).terms == {(1, 1): 2.0}
    assert p.differentiate(1).terms == {(2, 0): 1.0}


def test_to_string_round_trip_golden():
    p = parse_polynomial("x1*x2 - 8/3*x3 + 1", XYZ)
    text = p.to_string()
    assert parse_polynomial(text, XYZ) == p
    assert text == "x1*x2 - 2.6666666666666665*x3 + 1.0"


# -- hypothesis properties ----------------------------------------------------

def poly_strategy(dim: int, max_deg: int = 4, max_terms: int = 6):
    exponent = st.tuples(*([st.integers(0, max_deg)] * dim))
    coeff = st.integers(-9, 9).filter(lambda c: c != 0).map(float)
    return st.dictionaries(exponent, coeff, min_size=0, max_size=max_terms).map(
        lambda d: Polynomial.from_terms(dim, d)
    )


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            poly_strategy(dim),
            st.tuples(*([st.floats(-3, 3, allow_nan=False)] * dim)),
        )
    )
)
def test_eval_matches_horner_oracle(data):
    p, point = data
    ours = p(point)
    ref = horner_eval(dict(p.terms), point)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-4)


def test_eval_of_rows_matches_each_point():
    p = parse_polynomial("x1^3 + x1*x2 - 8/3*x3 + 1", XYZ)
    points = np.random.default_rng(0).uniform(-2, 2, size=(7, 3))
    values = p(points)
    assert values.shape == (7,)
    assert values.tolist() == [p(row) for row in points]
    assert type(p(points[0])) is float and p(tuple(points[0])) == values[0]
    assert p(np.zeros((0, 3))).shape == (0,)
    for bad in ([1.0, 2.0], np.zeros((4, 2)), np.zeros((2, 4, 3)), 1.0):
        with pytest.raises(ValueError, match="shape"):
            p(bad)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(poly_strategy(d), poly_strategy(d))))
def test_product_support_within_minkowski_sum(pair):
    p, q = pair
    if not p.terms or not q.terms:
        assert not (p * q).terms
        return
    allowed = minkowski_loop(support(p), support(q))
    assert support(p * q).elements <= allowed.elements


@given(
    st.tuples(*([st.floats(-2, 2, allow_nan=False)] * 2)),
    st.integers(1, 3).flatmap(lambda d: st.tuples(poly_strategy(2), poly_strategy(2))),
)
def test_arithmetic_agrees_with_pointwise(point, pair):
    p, q = pair
    assert (p + q)(point) == pytest.approx(p(point) + q(point), rel=1e-9, abs=1e-6)
    assert (p - q)(point) == pytest.approx(p(point) - q(point), rel=1e-9, abs=1e-6)
    assert (p * q)(point) == pytest.approx(p(point) * q(point), rel=1e-6, abs=1e-4)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(poly_strategy(d), poly_strategy(d))))
def test_arithmetic_results_pass_construction_checks(pair):
    # arithmetic skips the per-term checks; its results must pass them
    p, q = pair
    for r in (p + q, p - q, p * q, -p, 2.5 * p, p * 0.0, p.differentiate(0)):
        assert Polynomial(r.dim, dict(r.terms)) == r
    s = minkowski_loop(support(p).union(support(q)), support(q)).restricted(3)
    assert SupportSet(s.dim, frozenset(s.elements)) == s


@given(poly_strategy(3))
def test_string_round_trip(p):
    assert parse_polynomial(p.to_string(), XYZ) == p


# -- support sets -------------------------------------------------------------

def test_support_set_iteration_sorted():
    s = SupportSet.of(2, [(2, 0), (0, 0), (1, 0)])
    assert list(s) == [(0, 0), (1, 0), (2, 0)]


def test_support_set_union_restricted():
    a = SupportSet.of(1, [(0,), (3,)])
    b = SupportSet.of(1, [(2,)])
    u = a.union(b)
    assert set(u.elements) == {(0,), (2,), (3,)}
    assert set(u.restricted(2).elements) == {(0,), (2,)}


def test_support_set_validates_dim():
    with pytest.raises(ValueError):
        SupportSet.of(2, [(1,)])
    # raw exponents are checked in a union too
    with pytest.raises(ValueError):
        SupportSet.of(2, [(1, 0)]).union([(1,)])
    with pytest.raises(ValueError):
        SupportSet.of(1, [(1,)]).union([(-1,)])


# -- dynamical systems ---------------------------------------------------------

def lorenz_like() -> DynamicalSystem:
    f1 = parse_polynomial("10*x2 - 10*x1", XYZ)
    f2 = parse_polynomial("28*x1 - x1*x3 - x2", XYZ)
    f3 = parse_polynomial("x1*x2 - 8/3*x3", XYZ)
    box = tuple(parse_polynomial(f"1 - {v}^2", XYZ) for v in XYZ)
    return DynamicalSystem((f1, f2, f3), box)


def test_system_degrees():
    sys = lorenz_like()
    assert sys.dim == 3
    assert sys.field_degree == 2
    assert sys.constraint_degrees == (2, 2, 2)
    ones = sys.multipliers()
    assert ones[0].terms == {(0, 0, 0): 1.0}
    assert len(ones) == 4


def test_system_validation():
    f = parse_polynomial("x1", ("x1",))
    with pytest.raises(ValueError):
        DynamicalSystem((), (f,))
    with pytest.raises(ValueError):
        DynamicalSystem((f,), ())
    with pytest.raises(ValueError):
        DynamicalSystem((f,), (Polynomial.zero(1),))


def test_zero_field_component_degree_clamped():
    f = (Polynomial.zero(1),)
    sys = DynamicalSystem(f, (parse_polynomial("1 - x1^2", ("x1",)),))
    assert sys.field_degree == 0


def test_lie_polynomial_golden():
    sys = lorenz_like()
    v = parse_polynomial("x3", XYZ)
    lhs = lie_polynomial(v, sys, beta=1.0)
    assert lhs.terms[(0, 0, 1)] == pytest.approx(1 + 8 / 3)
    assert lhs.terms[(1, 1, 0)] == -1.0
    assert set(lhs.terms) == {(0, 0, 1), (1, 1, 0)}


def test_lie_polynomial_rejects_nonpositive_beta():
    sys = lorenz_like()
    with pytest.raises(ValueError):
        lie_polynomial(parse_polynomial("x3", XYZ), sys, beta=0.0)


@given(st.data())
def test_generic_lie_support_covers_actual(data):
    sys = lorenz_like()
    sup = data.draw(
        st.sets(st.tuples(*([st.integers(0, 3)] * 3)), min_size=1, max_size=5)
    )
    coeffs = data.draw(
        st.tuples(*([st.integers(1, 7)] * len(sup)))
    )
    v = Polynomial.from_terms(3, {a: float(c) for a, c in zip(sorted(sup), coeffs)})
    actual = Polynomial.zero(3)
    for i, f_i in enumerate(sys.field):
        actual = actual + v.differentiate(i) * f_i
    predicted = generic_lie_support(SupportSet.of(3, sup), sys)
    assert support(actual).elements <= predicted.elements


def test_generic_lie_support_golden():
    sys = lorenz_like()
    got = generic_lie_support(SupportSet.of(3, [(0, 0, 1)]), sys)
    assert set(got.elements) == {(1, 1, 0), (0, 0, 1)}
