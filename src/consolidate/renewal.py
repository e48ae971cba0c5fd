"""Discrete renewal tables for integer-valued consolidation-load increments.

A replenishment cycle ends when cumulative dispatched load first exceeds the
order-up-to level Q.  With i.i.d. integer increments distributed as ``g``,
the expected number of dispatches is the renewal function M(Q) of ``g`` and
the holding integral reduces to the weighted renewal-mass sum
``sum_{i<=Q} (Q - i) m(i)``, where ``m(i) = sum_k g^(k)(i)`` counts the
expected visits to cumulative load i.

Because increments are nonnegative, the infinite convolution series satisfies
an exact finite recursion on 0..Q:

    m(i) (1 - g(0)) = [i == 0] + sum_{j=1..min(i, smax)} g(j) m(i - j),

so no truncation error enters beyond the tail cut of a Poisson increment.
That holds for hybrid loads and for time-policy loads of mean below
``TP_CLOSED_FORM_MU``.  From that mean on, a time-policy table does not use
the recursion: k cycles load Poisson(k mu) exactly, so ``_tp_renewal_rows``
sums m(i) = sum_k P(Poisson(k mu) = i) over windows of masses whose outside
mass is below 1e-20 a side, in O(Q) memory for any mu.  ``_tp_table``
certifies each such table by Lorden's bracket on E[K] (``_lorden_terms``).
The route depends on mu alone, never on Q.

The recursion is solved a block of levels at a time.  ``m`` is the power
series of 1/f with f(z) = (1 - g(0)) - sum_{j>=1} g(j) z^j, so the
lower-triangular Toeplitz system of any n consecutive levels has the inverse
Toeplitz(m(0..n-1)): a block is one correlation with the levels already
solved and one convolution with the head of ``m``.  The solve starts at level
a, the first above zero with g(a) > 0: m(1..a-1) = 0 exactly, so those levels
are set and skipped.  A wide Poisson load has such a head, since its masses
below about mu - 30 sqrt(mu) underflow to zero.  Block sizes double from a up
to ``BLOCK``, which keeps n within the levels already known.  This is the same
recursion, O((Q - a) * smax) multiply-adds in O(Q/BLOCK + log2(BLOCK)) numpy
calls; every term is nonnegative and only exact zeros are skipped, so nothing
cancels.  With a = 1, as for every load with g(1) > 0, each block reads its
whole window in one correlation.

The optimizer evaluates many periods of one policy family at every level up
to a bound.  For that, the load builders also work on rows: ``_hp_masses`` and
``_tp_masses`` build one row of masses per load mean, each element by the
expression the public builder uses, so a row does not depend on the batch
and equals the public builder's masses bit for bit.  ``_renewal_rows`` runs the
recursion one level at a time along the batch axis; its prefix m(0..Q) does
not depend on the level it runs to.  ``_check_wald`` certifies each row's E[K]
against Wald's identity, at one level or many, from the row terms of
``_wald_terms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .truncated_poisson import _poisson_masses, _poisson_tails, _stirling_gaps, poisson_tail

# The recursion is O(Q * support); reject absurd tables instead of hanging.
MAX_ORDER_UP_TO = 10_000

# Residual Poisson tail dropped when building a time-policy increment.
DEFAULT_TAIL_EPS = 1e-12

# Time-policy load means from which the renewal masses come from the closed
# form (``_tp_renewal_rows``) instead of the recursion on a tail-cut load: the
# smallest power of two at which the closed form was no slower at any Q in
# {10, 100, 1000, 10000}.
TP_CLOSED_FORM_MU = 256.0

# Poisson mass left outside each side of a closed-form window.
_TP_WINDOW_TAIL = 1e-20

# Levels solved per block once the doubling warm-up reaches this size.
BLOCK = 128

# Relative slack of the Wald certificate on E[K], beyond rounding of the inputs.
WALD_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class IncrementDist:
    """Probability masses of one consolidation cycle's load, support 0..smax."""

    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-d vector")
        # A NaN fails both comparisons.  Masses of at most 1 cannot overflow
        # their sum; larger finite ones may, and then fail the normalization
        # (silently: the sum's overflow warning is off).
        lo, hi = np.minimum.reduce(masses), np.maximum.reduce(masses)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError("masses must be finite and nonnegative")
        if hi <= 1.0:
            total = np.add.reduce(masses)
        else:
            with np.errstate(over="ignore"):
                total = np.add.reduce(masses)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"masses must sum to 1 within 1e-10, got {total!r}")
        if not masses[0] < 1.0:
            raise ValueError("increment must place positive mass above zero")
        masses = masses.copy()
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def support_end(self) -> int:
        return self.masses.size - 1

    def mean(self) -> float:
        return float(np.arange(self.masses.size) @ self.masses)


@dataclass(frozen=True, eq=False)
class RenewalTable:
    """Renewal masses m(i) and partial sums M(i) on 0..Q for one increment."""

    m: np.ndarray
    M: np.ndarray
    order_up_to: int

    def __post_init__(self):
        for name in ("m", "M"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def steady_state(self) -> np.ndarray:
        """Stationary distribution of post-dispatch inventory gap i = Q - I."""
        return self.m / self.M[-1]


def _load_mean(rate: float, period: float) -> float:
    mu = rate * period
    if not rate > 0.0 or not period > 0.0 or not math.isfinite(mu):
        raise ValueError("rate and period must be positive with a finite product")
    return mu


def _hp_masses(mu: np.ndarray, q: int) -> np.ndarray:
    """Rows of min(X, q) masses on 0..q, X ~ Poisson(mu[r]): ``build_increment_hp``'s
    expressions, element for element."""
    masses = _poisson_masses(mu[:, None], q + 1)
    masses[:, q] = _poisson_tails(mu, q, q + 1)
    return masses


def _tp_support_end(mu: float, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest point whose residual Poisson(mu) upper tail is below ``tail_eps``."""
    # The cut lies in (lo, hi]: P(X > hi) < tail_eps <= P(X > lo), or lo = 1.
    # P(X > mu + 5 sqrt(mu)) is at least 1.9e-7 on mu in [1e-6, 1e8] and tends
    # to the normal 2.9e-7 above, so lo is below the cut.  The seed of hi is
    # above it for tail_eps >= 1e-12; a smaller tail_eps walks it up.
    root = math.sqrt(mu)
    hi = int(mu + 7.5 * root + 30)
    lo = max(1, int(mu + 5.0 * root))
    while poisson_tail(mu, hi + 1) >= tail_eps:
        lo, hi = hi, hi + 2 * (hi - lo)
    tails = _poisson_tails(mu, lo + 1, hi + 2)
    return lo + int(np.searchsorted(-tails, -tail_eps, side="right"))


def _tp_masses(mu: np.ndarray, ends: list[int]) -> np.ndarray:
    """Rows of Poisson(mu[r]) masses cut at ``ends[r]`` and renormalized:
    ``build_increment_tp``'s expressions, element for element.

    Rows are zero-padded to the widest support.  Each is renormalized by the
    sum of its own support, the same 1-d sum as the one-row builder's.
    """
    masses = _poisson_masses(mu[:, None], max(ends) + 1)
    for row, end in zip(masses, ends):
        support = row[:end + 1]
        support /= support.sum()
        row[end + 1:] = 0.0
    return masses


def build_increment_hp(rate: float, q: int, period: float) -> IncrementDist:
    """Load distribution under a hybrid policy: min(X, q), X ~ Poisson(rate*period)."""
    mu = _load_mean(rate, period)
    masses = _poisson_masses(mu, q + 1)
    masses[q] = poisson_tail(mu, q)
    return IncrementDist(masses)


def build_increment_tp(rate: float, period: float,
                       tail_eps: float = DEFAULT_TAIL_EPS) -> IncrementDist:
    """Load distribution under a time policy: Poisson(rate*period), tail-cut.

    The support is cut at the smallest point whose residual upper tail falls
    below ``tail_eps`` and the remaining masses are renormalized.
    """
    mu = _load_mean(rate, period)
    if not 0.0 < tail_eps <= 1e-10:
        raise ValueError(f"tail_eps must be in (0, 1e-10], got {tail_eps}")
    masses = _poisson_masses(mu, _tp_support_end(mu, tail_eps) + 1)
    masses /= masses.sum()
    return IncrementDist(masses)


def _check_order_up_to(order_up_to) -> int:
    if order_up_to != int(order_up_to) or order_up_to < 0:
        raise ValueError(f"order-up-to level must be a nonnegative integer, got {order_up_to}")
    order_up_to = int(order_up_to)
    if order_up_to > MAX_ORDER_UP_TO:
        raise ValueError(
            f"order-up-to level {order_up_to} exceeds capacity limit {MAX_ORDER_UP_TO}"
        )
    return order_up_to


def _check_converges(g0: float) -> None:
    if g0 >= 1.0 - 1e-12:
        raise ValueError("renewal series diverges: increment mass at zero is too close to 1")


def renewal_table(inc: IncrementDist, order_up_to: int) -> RenewalTable:
    """Solve the lattice renewal recursion for m(0..Q) and accumulate M.

    M(Q) equals the expected number of consolidation cycles per replenishment
    cycle.  Zero-mass increments are absorbed by the 1/(1 - g(0)) factor (a
    geometric number of zero-load cycles precedes each level change), which
    diverges when g(0) -> 1.
    """
    order_up_to = _check_order_up_to(order_up_to)
    g = inc.masses
    _check_converges(g[0])
    smax = inc.support_end
    m = np.empty(order_up_to + 1)
    m[0] = 1.0 / (1.0 - g[0])
    # g(j + 1) at index j, zero past the support: the correlation kernel.
    kernel = np.zeros(order_up_to)
    kernel[:min(smax, order_up_to)] = g[1:order_up_to + 1]
    # Below the first positive mass g(a) above zero, m(1..a-1) = 0 exactly.
    a = 1
    if g[1] == 0.0:
        nonzero = np.flatnonzero(kernel)
        a = int(nonzero[0]) + 1 if nonzero.size else order_up_to + 1
        m[1:a] = 0.0
    b = a
    while b <= order_up_to:
        n = min(b, BLOCK, order_up_to + 1 - b)
        lo = max(0, b - smax)
        if a == 1 or lo >= a:
            known = np.correlate(kernel[:b - lo + n - 1], m[lo:b][::-1], "valid")
        else:
            # The window [lo, b) less the zero levels: level 0, whose terms
            # g(b + k) are exact zeros once lo > 0, and the levels [a, b).
            known = m[0] * kernel[b - 1:b + n - 1]
            if b > a:
                known += np.correlate(kernel[:b - a + n - 1], m[a:b][::-1], "valid")
        m[b:b + n] = np.convolve(known, m[:n])[:n]
        b += n
    return RenewalTable(m=m, M=np.cumsum(m), order_up_to=order_up_to)


def _renewal_rows(g: np.ndarray, order_up_to: int) -> np.ndarray:
    """m(0..Q) for each row of increment masses g, one level at a time.

    Row r solves the recursion of ``renewal_table`` for masses g[r]; columns
    of g past Q are not read.
    """
    _check_converges(g[:, 0].max())
    scale = 1.0 / (1.0 - g[:, 0])
    width = min(g.shape[1] - 1, order_up_to)
    # g(width), ..., g(1) over (1 - g(0)): level i takes the last min(i, width).
    kernel = g[:, width:0:-1] * scale[:, None]
    m = np.empty((g.shape[0], order_up_to + 1))
    m[:, 0] = scale
    for i in range(1, order_up_to + 1):
        j = min(i, width)
        m[:, i] = np.einsum("rj,rj->r", kernel[:, width - j:], m[:, i - j:i])
    return m


def _tp_renewal_rows(mu: np.ndarray, order_up_to: int) -> np.ndarray:
    """m(0..Q) of the untruncated time-policy load Poisson(mu[r]), per row,
    for mu >= TP_CLOSED_FORM_MU.

    The load of k cycles is Poisson(k mu), so m(i) = sum_{k>=0} P(Poisson(k mu)
    = i) exactly, with m(0) = 1/(1 - e^-mu).  Cycle k >= 1 adds its masses on
    the window lam +- r, lam = k mu, cut at Q, where r solves
    r^2 = 2 t (lam + r/3), t = -log(_TP_WINDOW_TAIL): by Bernstein's inequality
    each side outside holds less than _TP_WINDOW_TAIL.  The windows run in
    order of k until one starts above Q; every window starts above 80 for
    these means.  A mass is evaluated in the saddle-point form (Loader 2000)

        log P(Poisson(lam) = i) = d - i log1p(d / lam) - gap(i),  d = i - lam,

    with gap(i) = log(i!) - (i log i - i) from ``_stirling_gaps``.  Its terms
    stay small, while the plain ``-lam + i log(lam) - log(i!)`` cancels terms
    of size lam log(lam) and errs by up to ~1e-12 per mass.  No mass depends
    on Q, so a row's prefix m(0..Q') equals the row to Q' bit for bit.  Each
    row takes O(Q) memory.
    """
    t = -math.log(_TP_WINDOW_TAIL)
    m = np.zeros((mu.size, order_up_to + 1))
    for row, mean in zip(m, mu.tolist()):
        row[0] = 1.0 / -math.expm1(-mean)
        windows = []
        while True:
            lam = (len(windows) + 1) * mean
            r = t / 3.0 + math.sqrt(t * t / 9.0 + 2.0 * t * lam)
            lo = math.ceil(lam - r)
            if lo > order_up_to:
                break
            windows.append((lam, lo, min(math.floor(lam + r), order_up_to)))
        if not windows:
            continue
        base = windows[0][1]
        points = np.arange(base, windows[-1][2] + 1.0)
        gaps = _stirling_gaps(points)
        for lam, lo, hi in windows:
            cells = slice(lo - base, hi + 1 - base)
            i = points[cells]
            d = i - lam
            row[lo:hi + 1] += np.exp(d - i * np.log1p(d / lam) - gaps[cells])
    return m


def _tp_table(mu: float, order_up_to) -> RenewalTable:
    """Renewal table of the time-policy load Poisson(mu) from the closed form;
    raises ArithmeticError if its E[K] leaves Lorden's bracket."""
    order_up_to = _check_order_up_to(order_up_to)
    row = np.array([mu])
    m = _tp_renewal_rows(row, order_up_to)[0]
    table = RenewalTable(m=m, M=np.cumsum(m), order_up_to=order_up_to)
    _check_wald_bracket(*_lorden_terms(row), order_up_to, table.M[-1:])
    return table


def _check_wald(g: np.ndarray, support_ends: np.ndarray, order_up_to,
                cycles: np.ndarray) -> None:
    """Certify E[K] = M(Q) of each row of masses g against Wald's identity.

    The load S_K of the cycle that first passes Q lies in [Q + 1, Q + smax],
    and E[S_K] = E[K] e_n with e_n the row's mean, so
    (Q + 1)/e_n <= E[K] <= (Q + smax)/e_n.  The recursion sees the masses
    above zero as a distribution of total mass (sum_{j>=1} g(j))/(1 - g(0)),
    which rounding moves off 1 by a relative defect d (large when g(0) is
    near 1); over at most Q + 1 nonzero loads that scales E[K] by up to
    (1 + d)^(Q+1), so the bracket widens by (Q + 2) d on top of WALD_SLACK.
    ``order_up_to`` may also be a column of levels, one per row of ``cycles``.
    Raises ArithmeticError on a violation.
    """
    _check_wald_bracket(*_wald_terms(g), support_ends, order_up_to, cycles)


def _wald_terms(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean e_n and relative mass defect d (see ``_check_wald``)."""
    mean = g @ np.arange(g.shape[1], dtype=float)
    above = 1.0 - g[:, 0]
    defect = np.abs(g[:, 1:].sum(axis=1) - above) / above
    return mean, defect


def _lorden_terms(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wald terms and bracket end of closed-form time-policy rows.

    Lorden (1970) bounds the mean overshoot of a renewal process past any
    level by E[X^2]/E[X] = mu + 1 for a Poisson(mu) load, so
    (Q + 1)/mu <= E[K] <= (Q + mu + 1)/mu: the Wald bracket with mean mu,
    mass defect 0 and mu + 1 in place of the support end.
    """
    return mu, np.zeros(mu.shape), mu + 1.0


def _check_wald_bracket(mean: np.ndarray, defect: np.ndarray, support_ends: np.ndarray,
                        order_up_to, cycles: np.ndarray) -> None:
    """``_check_wald`` from the rows' Wald terms; with a column of levels it
    raises at the lowest failing level, at its first failing row."""
    slack = WALD_SLACK + (order_up_to + 2) * defect
    lower = (order_up_to + 1) / mean * (1.0 - slack)
    upper = (order_up_to + support_ends) / mean * (1.0 + slack)
    bad = ~((lower <= cycles) & (cycles <= upper))
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        level = np.broadcast_to(order_up_to, bad.shape)[at]
        raise ArithmeticError(
            f"renewal E[K] = {float(cycles[at])!r} outside the Wald bracket "
            f"[{float(lower[at])!r}, {float(upper[at])!r}] at order-up-to level {int(level)}"
        )


def expected_k(table: RenewalTable) -> float:
    """Expected consolidation cycles per replenishment cycle, M(Q)."""
    return float(table.M[-1])


def holding_sum(table: RenewalTable) -> float:
    """sum_{i=0..Q} (Q - i) m(i): the renewal-weighted inventory factor.

    Multiplying by the expected consolidation cycle length gives the expected
    cumulative inventory carried per replenishment cycle; zero iff Q = 0.
    """
    q_levels = table.order_up_to - np.arange(table.order_up_to + 1)
    return float(q_levels @ table.m)
