import math

import numpy as np
import pytest

from steinbounds.distributions import make
from steinbounds.exprfn import (BUILTIN_FUNCTIONS, ExprError, SyntaxError_,
                                differentiate, make_test_function,
                                named_test_function, parse)
from steinbounds.numerics import Interval

IV = Interval(-2.0, 2.0)


@pytest.mark.parametrize("src,x,val,dval", [
    ("x", 1.5, 1.5, 1.0),
    ("x^2/2", 3.0, 4.5, 3.0),
    ("sin(x)", 0.7, math.sin(0.7), math.cos(0.7)),
    ("exp(-x^2)", 0.5, math.exp(-0.25), -math.exp(-0.25)),
    ("log(1+x^2)", 1.0, math.log(2.0), 1.0),
    ("x/(1+x^2)", 2.0, 0.4, (1 - 4) / 25.0),
    ("2*x + 3", -1.0, 1.0, 2.0),
    ("sqrt(x)", 4.0, 2.0, 0.25),
])
def test_parse_eval_diff(src, x, val, dval):
    e = parse(src)
    assert float(e(x)) == pytest.approx(val, rel=1e-12)
    assert float(differentiate(e)(x)) == pytest.approx(dval, rel=1e-12)


@pytest.mark.parametrize("src,value", [("2", 2.0), ("pi", math.pi)])
def test_constant_expressions_return_arrays_of_the_points_shape(src, value):
    for x in (np.linspace(-1.0, 1.0, 5), np.zeros((3, 4))):
        y = parse(src)(x)
        assert isinstance(y, np.ndarray) and y.shape == x.shape
        assert np.all(y == value)


def test_constant_derivative_is_ones():
    x = np.linspace(-1.0, 1.0, 7)
    g1 = make_test_function("x", IV).g1(x)
    assert g1.shape == x.shape and np.all(g1 == 1.0)


def test_str_roundtrip():
    for src in ("x^2/2", "sin(x)*exp(-x)", "log(1+x^2)", "-x + 3"):
        e = parse(src)
        again = parse(str(e))
        xs = np.linspace(-1.5, 1.5, 7)
        assert np.allclose(e(xs), again(xs))


@pytest.mark.parametrize("bad", ["", "  ", "(x", "x +", "2**x", "foo(x)",
                                 "x^", "1 2"])
def test_syntax_errors(bad):
    with pytest.raises(ExprError):
        parse(bad)


def test_syntax_error_reports_position():
    with pytest.raises(SyntaxError_) as exc:
        parse("x + )")
    assert exc.value.position >= 0


def test_make_test_function_bundles_derivatives():
    g = make_test_function("x^2/2", Interval(0.0, 1.0))
    assert g(2.0) == pytest.approx(2.0)
    assert float(g.g1(2.0)) == pytest.approx(2.0)
    assert float(g.g2(2.0)) == pytest.approx(1.0)
    # sup |g' g''| = sup |x| = 1 on [0, 1]
    assert g.sup_g1g2 == pytest.approx(1.0, rel=1e-6)
    assert g.source


def test_named_test_functions():
    for name in BUILTIN_FUNCTIONS:
        g = named_test_function(name, IV)
        assert np.isfinite(g(0.5))
    with pytest.raises(ExprError):
        named_test_function("nonesuch", IV)


def test_abs_derivative_is_sign():
    g = make_test_function("abs(x)", IV)
    assert float(g.g1(2.0)) == 1.0
    assert float(g.g1(-2.0)) == -1.0


def test_sup_g1g2_infinite_where_product_is_nan():
    # on invgamma:5,3 the interval starts at 0, where g' = 0 and g'' = inf:
    # the product is nan there, and is formed without a RuntimeWarning
    eff = make("invgamma", (5.0, 3.0)).effective_interval(1e-9)
    assert eff.lo == 0.0
    g = make_test_function("x^1.3", eff)
    assert g.sup_g1g2 == math.inf
