"""Numerics for Poisson random variables truncated at an integer level.

The consolidated load dispatched per cycle under a hybrid policy is
``min(X, q)`` with ``X`` Poisson, so every downstream quantity (cycle lengths,
delay penalties, renewal increments) reduces to truncated factorial moments.
Writing ``X_q = min(X, q)`` and ``x^(k) = x(x-1)...(x-k+1)`` for the falling
factorial, the closed forms implemented here are

    E[X_q^(k)]        = mu^k P(X <= q-k) + q^(k) P(X >= q+1),
    d/dmu E[X_q^(k)]  = k mu^(k-1) P(X <= q-k),

valid for integer 1 <= k <= q.  The same moment has an integral
representation E[min(V^k, mu^k)] with V ~ gamma(q-k+1, 1), which
``gamma_min_moment`` evaluates by adaptive quadrature as an independent
cross-check of the closed form.

Head and tail probabilities are computed through the regularized incomplete
gamma functions (P(X <= k) = Q(k+1, mu), P(X >= m) = P(m, mu)), which keep
full relative accuracy in both tails; mass functions are evaluated in log
space so that means up to ~1e4 do not overflow.

``scipy.special`` supplies those functions and ``gammaln``, and it is
imported on the first Poisson tail or mass, not with this module: the
quantity policy and the simulator never need one, and the import is most of
the package's start-up time.  The first call of ``gammainc``, ``gammaincc``
or ``gammaln`` rebinds all three module names to scipy's ufuncs, so every
later call reaches the ufunc directly.  Other modules call this module's
functions and never import those three names, which would stay stubs there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np


def _bind_special() -> None:
    """Replace the three stubs below by scipy's ufuncs of the same names."""
    global gammainc, gammaincc, gammaln
    from scipy.special import gammainc, gammaincc, gammaln


def gammainc(*args, **kwargs):
    _bind_special()
    return gammainc(*args, **kwargs)


def gammaincc(*args, **kwargs):
    _bind_special()
    return gammaincc(*args, **kwargs)


def gammaln(*args, **kwargs):
    _bind_special()
    return gammaln(*args, **kwargs)


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not mu > 0.0 or not math.isfinite(mu):
        raise ValueError(f"mu must be a positive finite real, got {mu}")
    return mu


def _check_level(q: int) -> int:
    if q != int(q) or q < 1:
        raise ValueError(f"truncation level q must be a positive integer, got {q}")
    return int(q)


def _check_order(q: int, k: int) -> None:
    if k not in (1, 2, 3):
        raise ValueError(f"only factorial moments of order k in {{1,2,3}} are supported, got {k}")
    if k > q:
        raise ValueError(f"factorial moment order k={k} requires k <= q, got q={q}")


def falling_factorial(x: int, k: int) -> int:
    """x(x-1)...(x-k+1); equals 1 for k = 0."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


def poisson_pmf(mu: float, x: int) -> float:
    """P(X = x) for X ~ Poisson(mu), evaluated in log space."""
    mu = _check_mu(mu)
    if x != int(x) or x < 0:
        raise ValueError(f"x must be a nonnegative integer, got {x}")
    x = int(x)
    return math.exp(-mu + x * math.log(mu) - math.lgamma(x + 1))


def poisson_cdf(mu: float, x: int) -> float:
    """P(X <= x) for X ~ Poisson(mu); zero for x < 0."""
    mu = _check_mu(mu)
    x = math.floor(x)
    if x < 0:
        return 0.0
    return float(gammaincc(x + 1, mu))


def poisson_tail(mu: float, x: int) -> float:
    """P(X >= x), with full relative accuracy for small tails."""
    mu = _check_mu(mu)
    x = math.ceil(x)
    if x <= 0:
        return 1.0
    return float(gammainc(x, mu))


def _poisson_masses(mu, n: int, start: int = 0) -> np.ndarray:
    """P(X = i) for i = start..n-1, X ~ Poisson(mu), evaluated in log space.

    ``mu`` is a float, or a column of means (shape (B, 1)) for one row of
    masses each.  Every element is the same expression either way, so a row
    does not depend on the rows computed with it.
    """
    i = np.arange(start, n, dtype=float)
    if isinstance(mu, np.ndarray):
        log_mu = np.fromiter(map(math.log, mu.ravel().tolist()), float, mu.size).reshape(mu.shape)
    else:
        log_mu = math.log(mu)
    return np.exp(-mu + i * log_mu - gammaln(i + 1.0))


def _stirling_gaps(i: np.ndarray) -> np.ndarray:
    """log(i!) - (i log i - i), elementwise for points i >= 80: half of
    log(2 pi i) plus Stirling's series to its i^-7 term, whose first omitted
    term is below 1e-20 there."""
    inv = 1.0 / (i * i)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - inv / 1680) * inv) * inv) / i
    return 0.5 * np.log(2.0 * math.pi * i) + series


def _poisson_heads(mu, points: np.ndarray) -> np.ndarray:
    """P(X < x) at each integer point x >= 0, X ~ Poisson(mu): the complement
    of ``_poisson_tails``, with its conventions; ``poisson_cdf(mu, x - 1)``
    elementwise, and 0 at x = 0."""
    return gammaincc(points, mu)


def _poisson_tails(mu, points: np.ndarray) -> np.ndarray:
    """P(X >= x) at each integer point x >= 1, X ~ Poisson(mu).

    An array mu broadcasts against the points, which are floats: an integer
    array takes ``gammainc``'s slower casting path.
    """
    return gammainc(points, mu)


def trunc_pmf(mu: float, q: int, i: int) -> float:
    """Mass function of min(X, q): P(X = i) for i < q, P(X >= q) at i = q."""
    mu = _check_mu(mu)
    q = _check_level(q)
    if i != int(i) or i < 0 or i > q:
        raise IndexError(f"support of min(X, q) is 0..{q}, got i={i}")
    i = int(i)
    if i == q:
        return poisson_tail(mu, q)
    return poisson_pmf(mu, i)


def _factorial_moment(mu, q: int, k: int):
    """Closed form of E[X_q^(k)] for a float mu, or elementwise for an array.

    Safe for k > q, where the moment is exactly zero because min(X, q) <= q < k
    makes one factor of the falling factorial vanish.  A float mu is checked
    and raises OverflowError where its power overflows; an array is not
    checked and gets inf or nan there instead.  Both evaluate the same
    expression, but not bit for bit: the float ``mu**k`` calls libm ``pow``
    while numpy squares or cubes, so for k = 2 and 3 the branches can differ
    by a few ulp (within relative 1e-15).
    """
    if k > q:
        return 0.0 * mu
    if isinstance(mu, np.ndarray):
        return (mu**k * gammaincc(q - k + 1, mu)
                + float(falling_factorial(q, k)) * gammainc(q + 1, mu))
    return mu**k * poisson_cdf(mu, q - k) + falling_factorial(q, k) * poisson_tail(mu, q + 1)


def trunc_factorial_moment(mu: float, q: int, k: int) -> float:
    """E[X_q^(k)] = E[X_q(X_q-1)...(X_q-k+1)] for X ~ Poisson(mu), 1 <= k <= q."""
    mu = _check_mu(mu)
    q = _check_level(q)
    _check_order(q, k)
    return _factorial_moment(mu, q, k)


def trunc_mean(mu: float, q: int) -> float:
    """E[min(X, q)]; strictly increasing in mu with limit q."""
    return trunc_factorial_moment(mu, q, 1)


def trunc_variance(mu: float, q: int) -> float:
    """VAR[min(X, q)]; strictly below the mean for q >= 1 and mu > 0."""
    mu = _check_mu(mu)
    q = _check_level(q)
    m1 = _factorial_moment(mu, q, 1)
    m2 = _factorial_moment(mu, q, 2)
    return m2 + m1 - m1 * m1


def trunc_factorial_moment_dmu(mu: float, q: int, k: int) -> float:
    """d/dmu of ``trunc_factorial_moment``: k mu^(k-1) P(X <= q-k)."""
    mu = _check_mu(mu)
    q = _check_level(q)
    _check_order(q, k)
    return k * mu ** (k - 1) * poisson_cdf(mu, q - k)


def gamma_min_moment(mu: float, q: int, k: int, tol: float = 1e-9) -> float:
    """E[min(V^k, mu^k)] with V ~ gamma(q-k+1, 1), by adaptive quadrature.

    Independent integral route to the same value as ``trunc_factorial_moment``;
    the two must agree within 1e-8 absolute or 1e-10 relative.  Raises
    :class:`QuadratureError` when the integrator's own error estimate exceeds
    ``tol``.
    """
    mu = _check_mu(mu)
    q = _check_level(q)
    _check_order(q, k)
    # Imported here: scipy.integrate pulls scipy.optimize, scipy.linalg and
    # scipy.sparse into every import of the package.
    from scipy.integrate import quad

    n = q - k + 1
    log_norm = math.lgamma(n)

    def density(v: float) -> float:
        if v <= 0.0:
            return 1.0 if n == 1 else 0.0
        return math.exp((n - 1) * math.log(v) - v - log_norm)

    below, err_below = quad(lambda v: v**k * density(v), 0.0, mu,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    above, err_above = quad(density, mu, math.inf,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    value = below + mu**k * above
    err = err_below + mu**k * err_above
    if err > tol * max(1.0, abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for mu={mu}, q={q}, k={k}"
        )
    return value


def squared_mean_ratio(mu: float, q: int) -> float:
    """E[X_q]^2 / E[X_q^(2)]; strictly greater than 1 and increasing in mu.

    Requires q >= 2 (the second factorial moment is degenerate at q = 1).
    """
    mu = _check_mu(mu)
    q = _check_level(q)
    if q < 2:
        raise ValueError(f"ratio needs q >= 2, got q={q}")
    m1 = _factorial_moment(mu, q, 1)
    m2 = _factorial_moment(mu, q, 2)
    return m1 * m1 / m2


def cubed_mean_ratio(mu: float, q: int) -> float:
    """E[X_q]^3 / E[X_{q+1}^(3)]; > 1 everywhere, unimodal in mu.

    Tends to 1 as mu -> 0 and to q^2/(q^2-1) as mu -> infinity.  Requires
    q >= 2.
    """
    mu = _check_mu(mu)
    q = _check_level(q)
    if q < 2:
        raise ValueError(f"ratio needs q >= 2, got q={q}")
    m1 = _factorial_moment(mu, q, 1)
    m3 = _factorial_moment(mu, q + 1, 3)
    return m1**3 / m3


def conditional_mean_var(mu: float, values: Iterable[int]) -> tuple[float, float]:
    """Mean and variance of X ~ Poisson(mu) conditioned on X being in a set.

    The conditional mean satisfies d/dmu E[X | X in A] = VAR[X | X in A] / mu,
    with zero variance exactly when the set is a singleton.  Weights are
    normalized in log space so conditioning deep in a tail stays accurate, but
    an event whose total probability underflows to zero is rejected.
    """
    mu = _check_mu(mu)
    vals = sorted({int(v) for v in values})
    if not vals:
        raise ValueError("conditioning set must be nonempty")
    if vals[0] < 0:
        raise ValueError("conditioning set must contain nonnegative integers")
    total = sum(poisson_pmf(mu, v) for v in vals)
    if total <= 0.0:
        raise ValueError(f"conditioning event has vanishing probability for mu={mu}")
    log_w = [-mu + v * math.log(mu) - math.lgamma(v + 1) for v in vals]
    shift = max(log_w)
    w = [math.exp(lw - shift) for lw in log_w]
    z = sum(w)
    mean = sum(wi * v for wi, v in zip(w, vals)) / z
    var = sum(wi * (v - mean) ** 2 for wi, v in zip(w, vals)) / z
    return mean, max(var, 0.0)
