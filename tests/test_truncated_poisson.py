"""Truncated-Poisson numerics against independent summation/quadrature oracles.

The library computes head/tail probabilities through incomplete gamma
functions; the oracles here sum the mass function directly (with Kahan
compensation for the tails) so the two routes share no code path.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consolidate import (
    QuadratureError,
    conditional_mean_var,
    cubed_mean_ratio,
    gamma_min_moment,
    poisson_cdf,
    poisson_pmf,
    poisson_tail,
    squared_mean_ratio,
    trunc_factorial_moment,
    trunc_factorial_moment_dmu,
    trunc_mean,
    trunc_pmf,
    trunc_variance,
)
from consolidate.truncated_poisson import _factorial_moment, _stirling_gaps

# ---------------------------------------------------------------------------
# oracles


def pmf_oracle(mu, x):
    return math.exp(-mu + x * math.log(mu) - math.lgamma(x + 1))


def kahan_sum(terms):
    total = 0.0
    carry = 0.0
    for term in terms:
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def cdf_oracle(mu, k):
    return kahan_sum(pmf_oracle(mu, i) for i in range(k + 1))


def tail_oracle(mu, m, terms=2000):
    return kahan_sum(pmf_oracle(mu, i) for i in range(m, m + terms))


def falling(x, k):
    out = 1
    for j in range(k):
        out *= x - j
    return out


def moment_oracle(mu, q, k, terms=2000):
    head = kahan_sum(falling(x, k) * pmf_oracle(mu, x) for x in range(q))
    return head + falling(q, k) * tail_oracle(mu, q, terms)


# ---------------------------------------------------------------------------
# mass and distribution functions


def test_pmf_at_zero_is_exp_neg_mu():
    assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pmf_derived_values():
    assert poisson_pmf(2.0, 2) == pytest.approx(0.2706705664732254, rel=1e-14)
    assert poisson_pmf(5.9199, 6) == pytest.approx(0.1605365123764947, rel=1e-14)


def test_pmf_large_mu_no_overflow():
    # log-space evaluation must survive mu up to 1e4
    value = poisson_pmf(1e4, 10000)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(pmf_oracle(1e4, 10000), rel=1e-12)


def test_cdf_boundaries():
    assert poisson_cdf(1.0, -1) == 0.0
    assert poisson_cdf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert poisson_cdf(3.0, 10) == pytest.approx(0.9997076630493529, rel=1e-13)
    assert 1.0 - poisson_cdf(3.0, 10) < 1e-3


def test_tail_matches_compensated_summation():
    for mu in (0.3, 1.0, 3.0, 8.0):
        for m in (0, 1, 3, 10, 25):
            assert poisson_tail(mu, m) == pytest.approx(tail_oracle(mu, m), rel=1e-12, abs=1e-300)


def test_small_tail_keeps_relative_accuracy():
    # far tail: absolute size ~1e-19, relative agreement must survive
    t = poisson_tail(2.0, 25)
    assert t == pytest.approx(tail_oracle(2.0, 25), rel=1e-10)
    assert t < 1e-15


def test_domain_errors():
    with pytest.raises(ValueError):
        poisson_pmf(0.0, 1)
    with pytest.raises(ValueError):
        poisson_pmf(-1.0, 1)
    with pytest.raises(ValueError):
        poisson_cdf(0.0, 3)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, -1)


FIRST_CALLS = """
import json, sys
import numpy as np
from consolidate import truncated_poisson as tp

NAMES = ("gammainc", "gammaincc", "gammaln")
stubs = [getattr(tp, name) for name in NAMES]
column = np.array([[0.5], [7.5], [300.0]])
calls = [
    lambda: tp.poisson_tail(7.5, 12),
    lambda: tp.poisson_cdf(7.5, 12),
    lambda: tp._poisson_masses(7.5, 40),
    lambda: tp._poisson_masses(column, 60, 5),
    lambda: tp._poisson_tails(column, np.arange(1.0, 40.0)),
    lambda: tp._factorial_moment(column.ravel(), 12, 2),
]
report = []
for call in calls:
    for name, stub in zip(NAMES, stubs):
        setattr(tp, name, stub)
    first = np.asarray(call())
    special = sys.modules["scipy.special"]
    bound = all(getattr(tp, name) is getattr(special, name) for name in NAMES)
    direct = np.asarray(call())
    report.append([bound, (first.dtype, first.shape) == (direct.dtype, direct.shape)
                   and first.tobytes() == direct.tobytes()])
print(json.dumps(report))
"""


def test_first_calls_bind_scipy_special_and_keep_its_bits(fresh_python):
    # Each call runs once through the unbound stubs, then once more with the
    # module names bound, which is a direct scipy.special call: the two agree
    # bit for bit, and the first leaves scipy's ufuncs themselves in place,
    # with no forwarding layer left on the hot path.
    report = json.loads(fresh_python(FIRST_CALLS).stdout)
    assert report == [[True, True]] * 6


# ---------------------------------------------------------------------------
# truncated pmf


def test_trunc_pmf_level_one():
    assert trunc_pmf(1.0, 1, 1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert trunc_pmf(1.0, 1, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_trunc_pmf_cap_mass():
    assert trunc_pmf(2.0, 3, 3) == pytest.approx(0.32332358381693643, rel=1e-13)


def test_trunc_pmf_index_errors():
    with pytest.raises(IndexError):
        trunc_pmf(1.0, 3, 4)
    with pytest.raises(IndexError):
        trunc_pmf(1.0, 3, -1)


@given(mu=st.floats(0.01, 50.0), q=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_trunc_pmf_normalizes(mu, q):
    total = sum(trunc_pmf(mu, q, i) for i in range(q + 1))
    assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# factorial moments


def test_moment_reference_values():
    assert trunc_factorial_moment(5.9199, 6, 1) == pytest.approx(5.0000, abs=5e-5)
    assert trunc_factorial_moment(5.9199, 7, 3) == pytest.approx(112.8573, abs=5e-4)


def test_moment_derived_value():
    assert trunc_factorial_moment(1.0, 2, 1) == pytest.approx(2.0 - 3.0 * math.exp(-1.0), rel=1e-12)


@given(mu=st.floats(0.05, 30.0), q=st.integers(1, 30), k=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_moment_matches_summation_oracle(mu, q, k):
    if k > q:
        return
    value = trunc_factorial_moment(mu, q, k)
    assert value == pytest.approx(moment_oracle(mu, q, k), rel=1e-11, abs=1e-12)
    assert 0.0 < value < falling(q, k) or (value == 0.0 and falling(q, k) == 0)


def test_moment_order_validation():
    with pytest.raises(ValueError):
        trunc_factorial_moment(1.0, 1, 2)  # k > q
    with pytest.raises(ValueError):
        trunc_factorial_moment(1.0, 5, 4)  # k > 3 unsupported
    with pytest.raises(ValueError):
        trunc_factorial_moment_dmu(1.0, 1, 2)


def test_derivative_examples():
    # k = q boundary
    assert trunc_factorial_moment_dmu(1.0, 1, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert trunc_factorial_moment_dmu(2.0, 4, 2) == pytest.approx(2.7067056647322545, rel=1e-13)
    # mu -> 0 limit of the k=1 derivative is P(X <= q-1) -> 1
    assert trunc_factorial_moment_dmu(1e-8, 2, 1) == pytest.approx(1.0, abs=1e-7)


@given(mu=st.floats(0.05, 20.0), q=st.integers(1, 25), k=st.integers(1, 3))
@example(mu=19.0, q=4, k=3)
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_differences(mu, q, k):
    if k > q:
        return
    # Five-point stencil: truncation error O(h^4), so h can stay large enough
    # that rounding in the differences does not dominate.
    h = 1e-3 * min(1.0, mu / 4.0)

    def f(x):
        return trunc_factorial_moment(x, q, k)

    numeric = (f(mu - 2.0 * h) - 8.0 * f(mu - h) + 8.0 * f(mu + h) - f(mu + 2.0 * h)) / (12.0 * h)
    analytic = trunc_factorial_moment_dmu(mu, q, k)
    assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-10)


@given(mu=st.floats(0.05, 30.0), q=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_mean_strictly_increasing_in_mu(mu, q):
    assert trunc_factorial_moment_dmu(mu, q, 1) > 0.0
    assert trunc_mean(mu * 1.01, q) > trunc_mean(mu, q)


# ---------------------------------------------------------------------------
# gamma-integral representation


def test_gamma_min_moment_examples():
    assert gamma_min_moment(1.0, 1, 1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert gamma_min_moment(5.9199, 6, 1) == pytest.approx(
        trunc_factorial_moment(5.9199, 6, 1), abs=1e-10)
    assert gamma_min_moment(3.0, 5, 2) == pytest.approx(
        trunc_factorial_moment(3.0, 5, 2), abs=1e-8)


@given(mu=st.floats(0.1, 20.0), q=st.integers(1, 30), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_gamma_route_agrees_with_closed_form(mu, q, k):
    if k > q:
        return
    closed = trunc_factorial_moment(mu, q, k)
    integral = gamma_min_moment(mu, q, k)
    assert abs(integral - closed) <= max(1e-8, 1e-10 * abs(closed))


def test_gamma_min_moment_tolerance_error():
    with pytest.raises(QuadratureError):
        gamma_min_moment(5.0, 10, 2, tol=1e-30)


# ---------------------------------------------------------------------------
# ratio functions


@given(mu=st.floats(1e-6, 1e3), q=st.integers(1, 59), k=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_factorial_moment_float_and_array_branches_agree(mu, q, k):
    # Not bit for bit: the float branch's mu**k is libm pow, numpy's squares or cubes.
    scalar = _factorial_moment(mu, q, k)
    batched = _factorial_moment(np.array([mu]), q, k)[0]
    assert abs(scalar - batched) <= 1e-15 * abs(scalar)


def test_stirling_gaps_match_log_factorials():
    # log(i!) - (i log i - i) to 40 digits, from the smallest point the
    # closed-form renewal windows reach
    i = np.array([80.0, 87.0, 100.0, 256.0, 1e3, 1e4, 2e4, 1e6])
    with mpmath.workdps(40):
        ref = [float(mpmath.loggamma(x + 1) - x * mpmath.log(x) + x) for x in i.tolist()]
    np.testing.assert_allclose(_stirling_gaps(i), ref, rtol=5e-16, atol=0.0)


def test_squared_mean_ratio_basics():
    assert squared_mean_ratio(1.0, 2) == pytest.approx(1.5203240551585882, rel=1e-12)
    assert squared_mean_ratio(1.0, 2) > 1.0
    assert squared_mean_ratio(10.0, 2) > squared_mean_ratio(1.0, 2)
    # mu -> 0 limit is 1
    assert squared_mean_ratio(1e-8, 3) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        squared_mean_ratio(1.0, 1)


# Strict moment-ratio inequalities have margins on the order of the truncation
# mass P(X >= q-1); where it underflows double precision the computed ratio
# collapses to exactly 1, so strictness is asserted only where representable.
def truncation_active(mu, q):
    return poisson_tail(mu, q - 1) > 1e-12


ULP_BAND = 1e-14  # rounding noise of the closed forms in the saturated regime


def squared_mean_ratio_50_digits(mu, q):
    """E[X_q]^2 / E[X_q^(2)] from the head masses and the tail P(q, mu) at 50 digits."""
    with mpmath.workdps(50):
        mu = mpmath.mpf(mu)
        tail = mpmath.gammainc(q, 0, mu, regularized=True)
        head = [mpmath.exp(-mu) * mu**i / mpmath.factorial(i) for i in range(q)]
        m1 = sum(i * p for i, p in enumerate(head)) + q * tail
        m2 = sum(i * (i - 1) * p for i, p in enumerate(head)) + q * (q - 1) * tail
        return m1 * m1 / m2


# Strict *increase* in mu is asserted only where the exact increase clears the
# rounding band: the increase carries a P(X <= q-1) factor and can fall below
# one ulp of the ratio (1.7e-16 at mu = 39, q = 5) while that head mass is
# still far above underflow.
def ratio_moves(mu, q, r):
    rise = squared_mean_ratio_50_digits(mu + 0.01, q) - squared_mean_ratio_50_digits(mu, q)
    return rise > 2.0 * ULP_BAND * r


@given(mu=st.floats(0.02, 40.0), q=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
@example(mu=39.0, q=5)
@example(mu=33.75, q=3)
def test_squared_mean_ratio_above_one_and_increasing(mu, q):
    r = squared_mean_ratio(mu, q)
    assert r >= 1.0 - ULP_BAND
    assert squared_mean_ratio(mu + 0.01, q) >= r * (1.0 - ULP_BAND)
    if truncation_active(mu, q):
        assert r > 1.0
    if ratio_moves(mu, q, r):
        assert squared_mean_ratio(mu + 0.01, q) > r


@given(mu=st.floats(0.02, 40.0), q=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_variance_below_mean(mu, q):
    mean = trunc_mean(mu, q)
    if truncation_active(mu, q):
        assert trunc_variance(mu, q) < mean
    else:
        assert trunc_variance(mu, q) <= mean * (1.0 + ULP_BAND)


def test_cubed_mean_ratio_limits_and_value():
    assert cubed_mean_ratio(1e-8, 4) == pytest.approx(1.0, abs=1e-6)
    # saturated regime: ratio -> q^2 / (q^2 - 1)
    assert cubed_mean_ratio(200.0, 5) == pytest.approx(25.0 / 24.0, abs=1e-6)
    assert cubed_mean_ratio(5.9199, 6) == pytest.approx(1.1076, abs=5e-4)
    with pytest.raises(ValueError):
        cubed_mean_ratio(1.0, 1)


@given(mu=st.floats(0.02, 60.0), q=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_cubed_mean_ratio_above_one(mu, q):
    r = cubed_mean_ratio(mu, q)
    assert r >= 1.0 - ULP_BAND
    if truncation_active(mu, q):
        assert r > 1.0


@pytest.mark.parametrize("q", [2, 3, 5, 9, 17, 30])
def test_cubed_mean_ratio_unimodal(q):
    grid = np.arange(0.05, 30.0, 0.05)
    values = [cubed_mean_ratio(mu, q) for mu in grid]
    diffs = np.diff(values)
    signs = np.sign(diffs[np.abs(diffs) > 1e-13])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) <= 1
    if len(flips) == 1:
        assert signs[0] > 0 and signs[-1] < 0


# ---------------------------------------------------------------------------
# conditional moments


def test_conditional_singleton():
    mean, var = conditional_mean_var(2.0, {3})
    assert mean == 3.0
    assert var == 0.0


def test_conditional_equal_masses():
    # P(X=0) = P(X=1) at mu = 1
    mean, var = conditional_mean_var(1.0, {0, 1})
    assert mean == pytest.approx(0.5, rel=1e-14)
    assert var == pytest.approx(0.25, rel=1e-14)


def test_conditional_errors():
    with pytest.raises(ValueError):
        conditional_mean_var(1.0, set())
    with pytest.raises(ValueError):
        conditional_mean_var(1.0, {900})  # probability underflows
    with pytest.raises(ValueError):
        conditional_mean_var(1.0, {-1, 2})


@given(
    mu=st.floats(0.1, 20.0),
    values=st.sets(st.integers(0, 40), min_size=1, max_size=12),
)
@settings(max_examples=120, deadline=None)
@example(mu=0.25, values={33, 37})  # a central difference with h = 1e-5 mu cancels here
def test_conditional_derivative_identity(mu, values):
    mean, var = conditional_mean_var(mu, values)
    assert var >= 0.0
    if len(values) == 1:
        assert var == 0.0
        return
    assert var > 0.0
    # Five-point stencil with a relative step: truncation error O((h/mu)^4),
    # so h can stay large enough that rounding in the differences of means
    # near 40 does not dominate a derivative near 1e-7.
    h = 1e-3 * mu

    def f(x):
        return conditional_mean_var(x, values)[0]

    numeric = (f(mu - 2.0 * h) - 8.0 * f(mu - h) + 8.0 * f(mu + h) - f(mu + 2.0 * h)) / (12.0 * h)
    assert numeric == pytest.approx(var / mu, rel=1e-5, abs=1e-9)
