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
mass is below 1e-20 a side, in O(Q) memory for any mu.  The table's route
depends on mu alone, never on Q.

The sums E[K] and sum_i (Q - i) m(i) of a time load of mean mu in
[_POLE_MIN_MU, TP_CLOSED_FORM_MU) take the recursion only on a head: levels
below i0 = max(ceil(2 mu), 32) (``_pole_head``).  The renewal function
1/(1 - e^{mu (z - 1)}) of Poisson(mu) has simple poles z_k = 1 + 2 pi i k/mu
of weight 1/mu, so m(i) = (1/mu)(1 + 2 Re sum_{k>=1} z_k^-(i+1)) exactly for
i >= 1, and over levels i0..Q the sums are geometric in closed form
(``_pole_tail``).  K pairs, with |z_K|^-(i0+1) <= 1e-18 (``_pole_pairs``, at
most 18), leave out less than 1e-18 of m(i) a level.  The pole levels carry
no tail cut; the head keeps the cut load's levels, bit for bit, so below i0
nothing moves.

A table to level Q reads the masses g(0..Q) only.  So the evaluation paths
build the table of a hybrid load min(X, q), X ~ Poisson(mu), on the window
min(max(X, a), c) (``_hp_window``): the cap c = min(q, Q + 1, floor(mu + r))
and the floor a = min(ceil(mu - r), c), where P(X > mu + r) and
P(X < mu - r) are each below 1e-20 (Bernstein).  The cap Q + 1 changes no
bit when q > Q + 1; the cap mu + r moves less than 1e-20 of mass down to c,
and the floor less than 1e-20 up to a.  mu - r > 0 only for mu > 8t/3 ~ 122.8
(t = -log 1e-20), so below that a = 0 and nothing moves.  A table takes at
most O(Q) masses for any q, and for a > Q it is m(0) and then zeros, with
no block solved.

The recursion is solved a block of levels at a time.  ``m`` is the power
series of 1/f with f(z) = (1 - g(0)) - sum_{j>=1} g(j) z^j, so the
lower-triangular Toeplitz system of any n consecutive levels has the inverse
L = Toeplitz(m(0..n-1)): a block is L times what the levels already solved
add to it, which is one correlation.  Block sizes double from level 1 up to
``BLOCK``, which keeps n within the levels already known.  A load with no
mass on 1..a-1, a >= BLOCK (a floored hybrid load), needs no inverse: the
levels of a block of up to a levels read only levels below it, so each block
is one correlation of the window g(a..c) (``_explicit_solve``).

A block's correlation and convolution cost ~10 us whatever the load's
width, so a table of ``MATVEC_MIN_BLOCKS`` full blocks (Q // BLOCK) or more
spends a matrix build to make each later block one BLAS matvec.  Once BLOCK
levels are known, a load of support end w <= BLOCK uses the jump matrix
P = L H (``_jump_matrix``, BLOCK x w): above level 0 the recursion is
homogeneous and a block reads only the w levels below it, so
m(b..b+BLOCK-1) = P m(b-w..b-1), w multiply-adds per level.  A wider load
keeps its correlation and applies L (``_block_inverse``) in place of the
convolution.  Below the gate every block is a correlation and a convolution.
The gate picks the kernel only; the stop and the certificate below do not
read it.  Every term is nonnegative, so nothing cancels.

By the key renewal theorem m(i) settles to (1 - g(0))/E[X] on an aperiodic
load, so the solve stops once its state settles.  One schedule serves every
route (``_scheduled``, through ``_stop`` for the tables): the state
m(b-w..b-1) is tested at a block start b >= 2 * BLOCK, b >= w, whose block
below it reached a power of two, that is at b = 2^k on the blocked routes
and the rows (blocks of BLOCK levels, or one level), and at the first block
start at or past each 2^k on the explicit route.  Above level 0,
m(i) = sum_{j=1..w} h(j) m(i-j) with h(j) = g(j)/(1 - g(0)) >= 0, and the
weights h sum to 1 within the load's defect d (see ``_check_lorden``).  So
every later level is a convex combination of the w levels below it, scaled
by at most (1 + d), and by induction lies in the state's range [lo, hi]
widened by (1 + d)^(Q-b+1).  Once hi - lo <= SETTLE_TOL hi with
SETTLE_TOL = 1e-14, and d <= SETTLE_TOL, the levels from b on are set to
(lo + hi)/2 (``_settled``): each is within SETTLE_TOL of the exact
continuation of the state, up to that (1 + d) drift, which is part of the
(Q + 2) d slack Lorden's bracket already grants the table.  The continuation
on the weights h/sum(h) (the load the masses stand for) stays inside
[lo, hi] exactly, so the stop also drops the solve's own drift of up to
~(Q - b) d/E[X], which rounding of the masses puts there.  The stop never
fires on a periodic load (its levels keep a zero in every window), while
the state still spreads, or on a load of defect above SETTLE_TOL.  A table
then takes O(min(Q, b) * w) multiply-adds (plus BLOCK * w^2 for P), or
O(min(Q, b) * (c - a)) on the explicit route, in O(min(Q, b)/BLOCK +
log2(BLOCK)) numpy calls, plus O(Q) to fill and sum it.

Four entry points choose every route: ``load_table`` builds one system's
table and ``load_sums`` its E[K] and holding factor, ``_level_table`` the
optimizer's scan (E[K] at every level up to a bound for many loads of one
family) and ``_row_sums`` the sums of its golden rows, each at its own level.
The three sums take the same head and poles: ``load_sums`` the table to
i0 - 1 (``load_table``) and ``_pole_tail`` in Python complex, the rows their
heads and ``_pole_tail`` over the rows, the scan its heads and m(i0..Q)
from ``_pole_masses`` under its running sum.  The batched two share one
prologue, ``_mass_rows``: each row's cut (``_tp_support_ends``) or window,
then the rows of masses (``_tp_masses``, ``_hp_masses``) in chunks of
bounded memory, each element by the scalar builder's expression, so a row
equals the scalar masses bit for bit whatever its chunk.
``_renewal_levels`` solves the rows, each to its head or level
(``_heads``), one level at a time along the batch axis, with the scalar
table's association and stop, and reports where each row stops.

One certificate covers every route: Lorden's bracket on E[K]
(``_check_lorden``, or ``_check_lorden_row`` for one table), checked on every
table to a level Q >= 2 * BLOCK, stopped or not and on any kernel, on the
closed-form tables, on every sum that took poles (on the untruncated load's
terms, ``_tp_lorden_terms``) and on every row of the optimizer's scan.  A
table below 2 * BLOCK carries none: most are the optimizer's scalar probes,
where the terms would cost ~5-10 % of a table, 2-3 % of the median optimize
probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .truncated_poisson import (_poisson_masses, _poisson_tails, _stirling_gaps, poisson_cdf,
                               poisson_tail)

# The recursion is O(Q * support); reject absurd tables instead of hanging.
MAX_ORDER_UP_TO = 10_000

# Residual Poisson tail dropped when building a time-policy increment.
DEFAULT_TAIL_EPS = 1e-12

# Time-policy load means from which the renewal masses come from the closed
# form (``_tp_renewal_rows``) instead of the recursion on a tail-cut load: the
# smallest power of two at which the closed form was no slower at any Q in
# {10, 100, 1000, 10000}.
TP_CLOSED_FORM_MU = 256.0

# The head of a time load's pole route (``load_sums``): levels below
# i0 = max(ceil(2 mu), _POLE_HEAD) come from the recursion, levels from i0 on
# from the poles of its renewal function, the pairs k = 1..K with
# |z_K|^-(i0+1) <= e^-_POLE_LOG = 1e-18 (``_pole_pairs``).  The pinned
# matched comparisons (``tests/data/compare_pins.json``) evaluate time loads
# of mean ~5 at levels 18 and 19, so the head reaches past them.
_POLE_HEAD = 32
_POLE_LOG = -math.log(1e-18)

# Time-load means from which the pole route applies.  The head solves the
# cut load, whose renormalization moves 1 - g(0) ~ mu by the dropped tail:
# by ~mu/2 relative where the cut keeps one mass above zero (mu below
# ~1.4e-6).  At mu = 1.2e-7 the head's E[K] then reads ~31 high at i0 = 32,
# past Lorden's bracket on the untruncated load, whose upper end lies ~1/2
# above E[K] at small means.  From 1e-4 to 1e-2 the head erred by at most
# 1/300 of that margin (against a 40-digit recursion at i0).  The loads
# below the floor settle by level 2 * BLOCK anyway.
_POLE_MIN_MU = 1e-4

# Poisson mass left outside each side of a closed-form window, and above the
# cap and below the floor of a hybrid load's table (``_hp_window``); and its
# -log, which sets the Bernstein radius (``_bernstein_radius``).
_WINDOW_TAIL = 1e-20
_WINDOW_LOG = -math.log(_WINDOW_TAIL)

# z with P(N(0, 1) > z) = DEFAULT_TAIL_EPS: the seed of ``_tp_support_ends``.
_TAIL_Z = 7.034483825301131

# Cells of masses, kernel and window of levels that one chunk of rows holds
# (``_mass_rows``), which bounds its memory when rate * period is large.
_CHUNK_CELLS = 1 << 19

# Levels solved per block once the doubling warm-up reaches this size.
BLOCK = 128

# Full blocks (Q // BLOCK) from which a table's blocks are solved as matvecs
# against matrices built once per table, instead of a convolution each: the
# smallest count in {16, 18, ..., 28} from which that route was faster for
# every support end in {2, 14, 50, 100, 128, 200, 400, 863}, in three runs.
MATVEC_MIN_BLOCKS = 22

# Multiply-adds of the largest gemm a jump matrix is built from.  OpenBLAS runs
# a gemm of at most 65536 * 4 multiply-adds on the calling thread; on a busy
# 2-CPU machine a threaded 128^3 gemm stalled for ~15 ms per call.
_SERIAL_GEMM = 1 << 18

# Relative slack of the Lorden certificate on E[K], beyond rounding of the inputs.
WALD_SLACK = 1e-9

# Relative spread of a table's state m(b-w..b-1) at or below which the solve
# stops and fills the levels from b on (``_settled``); also the largest load
# defect d (see ``_check_lorden``) at which it may stop.
SETTLE_TOL = 1e-14


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


def _bernstein_radius(lam):
    """r with P(X >= lam + r) and P(X <= lam - r) each below _WINDOW_TAIL,
    X ~ Poisson(lam): by Bernstein's inequality, the root of
    r^2 = 2 t (lam + r/3) with t = -log(_WINDOW_TAIL).  For a float lam, or
    elementwise for an array with the same (correctly rounded) operations."""
    t = _WINDOW_LOG
    sqrt = np.sqrt if isinstance(lam, np.ndarray) else math.sqrt
    return t / 3.0 + sqrt(t * t / 9.0 + 2.0 * t * lam)


# mu - r(mu) > 0 iff mu > 8t/3 (~122.8), t = _WINDOW_LOG: up to this load mean
# a hybrid window starts at 0.
_HP_FLOOR_MU = 8.0 * _WINDOW_LOG / 3.0


def _hp_window(mu, q: int, order_up_to: int):
    """The window (a, c) of the load min(max(X, a), c) on which the table of
    the hybrid load min(X, q) to level Q is built, X ~ Poisson(mu):
    c = min(q, Q + 1, floor(mu + r)) and a = min(ceil(mu - r), c), or a = 0
    for mu <= 8t/3, with r = ``_bernstein_radius(mu)``.  For a float mu, or
    integer arrays of floors and caps for an array of means, where q and Q
    may be arrays too, one per mean.

    A table to level Q reads only g(0..Q), and min(X, q) and min(X, Q + 1)
    agree there when q > Q + 1, so capping at Q + 1 changes no bit.  Capping
    at floor(mu + r) < q moves the mass P(X > c) < _WINDOW_TAIL down to c,
    and the floor moves P(X < a) < _WINDOW_TAIL up to a.  Either way the
    table needs O(min(Q, mu + r)) masses for any q, at most c - a + 1 of
    them nonzero, and no block solved when a > Q.
    """
    r = _bernstein_radius(mu)
    if isinstance(mu, np.ndarray):
        # the casts floor mu + r > 0 and take ceil(mu - r) >= -0.0 to >= 0
        caps = np.minimum(mu + r, np.minimum(q, np.add(order_up_to, 1))).astype(int)
        floors = np.where(mu > _HP_FLOOR_MU, np.ceil(mu - r), 0.0)
        return np.minimum(floors, caps).astype(int), caps
    cap = min(q, order_up_to + 1, math.floor(mu + r))
    return (min(max(math.ceil(mu - r), 0), cap) if mu > _HP_FLOOR_MU else 0), cap


def _hp_masses(mu: np.ndarray, floors: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Rows of min(max(X, floors[r]), caps[r]) masses on 0..caps[r],
    X ~ Poisson(mu[r]), zero-padded to the widest cap: the expressions of
    ``build_increment_hp`` element for element, with P(X <= a) at a floor
    a = floors[r] > 0 and zeros below it."""
    top, low = int(caps.max()), int(floors.min())
    if low:    # every row is zero below its floor
        masses = np.zeros((mu.size, top + 1))
        masses[:, low:] = _poisson_masses(mu[:, None], top + 1, low)
    else:
        masses = _poisson_masses(mu[:, None], top + 1)
    if caps.min() == top:  # one cap for every row, the common case
        masses[:, top] = _poisson_tails(mu, float(top))
    else:
        masses[np.arange(top + 1) > caps[:, None]] = 0.0
        masses[np.arange(mu.size), caps] = _poisson_tails(mu, caps.astype(float))
    for r in (np.flatnonzero(floors).tolist() if floors.any() else []):
        row, a = masses[r], int(floors[r])
        row[:a] = 0.0
        row[a] = 1.0 if a == caps[r] else poisson_cdf(float(mu[r]), a)
    return masses


def _tp_support_end(mu: float, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest point whose residual Poisson(mu) upper tail is below ``tail_eps``."""
    # The cut lies in (lo, hi]: P(X > hi) < tail_eps <= P(X > lo), or lo = 1.
    # P(X > mu + 5 sqrt(mu)) is at least 1.9e-7 on mu in [1e-6, 1e8] and tends
    # to the normal 2.9e-7 above, so lo is below the cut.  The seed of hi is
    # above it for tail_eps >= 1e-12; a smaller tail_eps walks it up.
    # One sweep of P(X > x) over lo..hi; its last tail is P(X > hi).
    root = math.sqrt(mu)
    hi = int(mu + 7.5 * root + 30)
    lo = max(1, int(mu + 5.0 * root))
    while (tails := _poisson_tails(mu, np.arange(lo + 1, hi + 2, dtype=float)))[-1] >= tail_eps:
        lo, hi = hi, hi + 2 * (hi - lo)
    return lo + int(np.searchsorted(-tails, -tail_eps, side="right"))


def _tp_support_ends(mu: np.ndarray) -> np.ndarray:
    """``_tp_support_end`` of each mean at DEFAULT_TAIL_EPS, as integers.

    The scalar search returns the first x >= 1 with P(X > x) below the tail,
    and 1 if there is none below its bracket.  Each row here sweeps
    P(X > x) on the eight points x = s - 6..s + 1, raised to start at 1 if
    need be, in one 2-d tail evaluation: s is the Cornish-Fisher quantile
    mu + z sqrt(mu) + (z^2 - 1)/6 of the tail, which puts the cut in that
    window for mu in [1e-3, 256].  Near the cut the tails fall by far more
    than their rounding from point to point.  The window holds the cut when
    its last tail is below the tail and its first is not, or it starts at 1;
    then the cut is its start plus the count of tails at or above the tail,
    as the scalar ``searchsorted`` finds it.  Other rows take the scalar
    search.
    """
    seed = (mu + _TAIL_Z * np.sqrt(mu) + (_TAIL_Z * _TAIL_Z - 1.0) / 6.0).astype(int)
    start = np.maximum(seed - 6, 1)
    tails = _poisson_tails(mu[:, None], start[:, None] + np.arange(1.0, 9.0))
    count = np.add.reduce(tails >= DEFAULT_TAIL_EPS, axis=1)
    ends = start + count
    missed = (count == 8) | ((count == 0) & (start > 1))
    for r in (np.flatnonzero(missed).tolist() if missed.any() else []):
        ends[r] = _tp_support_end(float(mu[r]))
    return ends


def _tp_masses(mu: np.ndarray, ends) -> np.ndarray:
    """Rows of Poisson(mu[r]) masses cut at ``ends[r]`` and renormalized:
    ``build_increment_tp``'s expressions, element for element.

    Rows are zero-padded to the widest support.  Each is renormalized by the
    sum of its own support, the same sum as the one-row builder's: a copy of
    the rows sorted by end (one stable argsort) is summed one run of equal
    ends at a time, by a reduction over the last axis, which runs numpy's
    pairwise sum on each row's contiguous support as on the 1-d one.
    """
    ends = np.asarray(ends)
    masses = _poisson_masses(mu[:, None], int(ends.max()) + 1)
    masses[np.arange(masses.shape[1]) > ends[:, None]] = 0.0
    order = np.argsort(ends, kind="stable")
    ranked, rows = ends[order], masses[order]
    starts = (np.flatnonzero(np.diff(ranked)) + 1).tolist()
    totals = np.empty(mu.size)
    totals[order] = np.concatenate([
        np.add.reduce(rows[lo:hi, :end + 1], axis=1)
        for lo, hi, end in zip([0, *starts], [*starts, mu.size], ranked[[0, *starts]].tolist())])
    masses /= totals[:, None]
    return masses


def build_increment_hp(rate: float, q: int, period: float) -> IncrementDist:
    """Load distribution under a hybrid policy: min(X, q), X ~ Poisson(rate*period).

    It has q + 1 masses.  The evaluation paths build its masses, unchecked
    (``_hp_load``), at the cap of ``_hp_window`` in place of q, which bounds
    them by the table's level, and from a load mean of ~122.8 on take the
    floored row of ``_hp_masses`` (``load_table``).
    """
    return IncrementDist(_hp_load(_load_mean(rate, period), q))


def build_increment_tp(rate: float, period: float,
                       tail_eps: float = DEFAULT_TAIL_EPS) -> IncrementDist:
    """Load distribution under a time policy: Poisson(rate*period), tail-cut.

    The support is cut at the smallest point whose residual upper tail falls
    below ``tail_eps`` and the remaining masses are renormalized.
    """
    mu = _load_mean(rate, period)
    if not 0.0 < tail_eps <= 1e-10:
        raise ValueError(f"tail_eps must be in (0, 1e-10], got {tail_eps}")
    return IncrementDist(_tp_load(mu, tail_eps))


def _hp_load(mu: float, q: int) -> np.ndarray:
    """The masses of ``build_increment_hp`` at the load mean mu, unchecked."""
    masses = _poisson_masses(mu, q + 1)
    masses[q] = poisson_tail(mu, q)
    return masses


def _tp_load(mu: float, tail_eps: float = DEFAULT_TAIL_EPS) -> np.ndarray:
    """The masses of ``build_increment_tp`` at the load mean mu, unchecked."""
    masses = _poisson_masses(mu, _tp_support_end(mu, tail_eps) + 1)
    masses /= masses.sum()
    return masses


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
    diverges when g(0) -> 1.  A table to Q >= 2 * BLOCK carries Lorden's
    certificate, and its solve stops once its state settles (``_stop``) if
    the load's defect is at most SETTLE_TOL; a smaller table solves every
    level and carries no certificate.
    """
    return _table(inc.masses, _check_order_up_to(order_up_to))


def _table(g: np.ndarray, order_up_to: int) -> RenewalTable:
    """``renewal_table`` on the masses g of a load, which the caller built or
    checked, to a checked level Q."""
    _check_converges(g[0])
    m = np.empty(order_up_to + 1)
    m[0] = 1.0 / (1.0 - g[0])
    terms = (*_lorden_row(g), _mass_defect(g)) if order_up_to >= 2 * BLOCK else None
    settle = terms is not None and terms[2] <= SETTLE_TOL
    if g[1] == 0.0 and (first := _first_load(g, order_up_to)) >= BLOCK:
        stop = _explicit_solve(m, g, first, settle)
    else:
        stop = _blocked_solve(m, g, settle)
    if stop > order_up_to:
        M = np.cumsum(m)
    else:
        # M(b + k) = M(b - 1) + (k + 1) m(b) on the filled levels: a running
        # sum of one repeated value would round the same way at every level.
        M = np.empty(order_up_to + 1)
        np.cumsum(m[:stop], out=M[:stop])
        M[stop:] = M[stop - 1] + m[stop] * np.arange(1.0, order_up_to + 2 - stop)
    table = RenewalTable(m=m, M=M, order_up_to=order_up_to)
    if terms is not None:
        _check_lorden_row(*terms, order_up_to, float(table.M[-1]))
    return table


def _first_load(g: np.ndarray, order_up_to: int) -> int:
    """The first load in 1..Q with positive mass, or Q + 1 if there is none."""
    loads = np.flatnonzero(g[1:order_up_to + 1])
    return int(loads[0]) + 1 if loads.size else order_up_to + 1


def _settled(m: np.ndarray, b: int, width: int):
    """The midpoint of the state m(b-w..b-1) of a load of support end
    w <= b if the state spans at most SETTLE_TOL of its largest level (the
    module docstring shows it stands for every later level), else None.  Two
    levels of the state that differ by more rule it out before the scan."""
    x, y = m[b - 1], m[b - 1 - width // 2]
    if abs(x - y) > SETTLE_TOL * max(x, y):
        return None
    state = m[b - width:b]
    lo, hi = np.minimum.reduce(state), np.maximum.reduce(state)
    return 0.5 * (lo + hi) if hi - lo <= SETTLE_TOL * hi else None


def _scheduled(b: int, n: int) -> bool:
    """Whether a solve tests its state at the block start b, after a block
    of n levels: b >= 2 * BLOCK and the levels b - n + 1..b hold a power of
    two.  That is b = 2^k itself when the blocks are BLOCK levels or one,
    and otherwise the first block start at or past each 2^k: the one stop
    schedule of every route."""
    return b >= 2 * BLOCK and (b - n).bit_length() < b.bit_length()


def _stop(m: np.ndarray, b: int, n: int, w: int):
    """The value that fills a solve's levels from b on, or None: ``_settled``
    on the levels m of a load of support end w at b >= w, if ``_scheduled``."""
    return _settled(m, b, w) if b >= w and _scheduled(b, n) else None


def _blocked_solve(m: np.ndarray, g: np.ndarray, settle: bool) -> int:
    """m(1..Q) in blocks: a correlation and a convolution each, doubling from
    level 1 up to BLOCK.  A table of MATVEC_MIN_BLOCKS full blocks or more
    solves its blocks from level BLOCK on as BLAS matvecs (the jump matrix of
    a narrow load, the block inverse of a wide one): the gate picks the
    kernel, nothing else.  With ``settle``, every block start past the
    doubling warm-up goes to ``_stop``.  Returns the level from which the
    levels are filled, or Q + 1."""
    order_up_to = m.size - 1
    smax = g.size - 1
    matvec = order_up_to // BLOCK >= MATVEC_MIN_BLOCKS
    # g(j + 1) at index j, zero past the support: the correlation kernel.
    kernel = np.zeros(order_up_to)
    kernel[:min(smax, order_up_to)] = g[1:order_up_to + 1]
    lower = None
    # The first block is level 1 alone: (g(1) m(0)) m(0), its convolution's
    # only product.
    if order_up_to:
        m[1] = kernel[0] * m[0] * m[0]
    b, n = 2, 1
    while b <= order_up_to:
        # no test falls in the doubling warm-up, which ends at b = BLOCK
        if settle and n == BLOCK and (value := _stop(m, b, n, smax)) is not None:
            m[b:] = value
            return b
        if matvec and b >= BLOCK and lower is None:
            if smax <= BLOCK:
                break
            lower = _block_inverse(m, BLOCK)
        n = min(b, BLOCK, order_up_to + 1 - b)
        lo = max(0, b - smax)
        known = np.correlate(kernel[:b - lo + n - 1], m[lo:b][::-1], "valid")
        if n == 1:
            m[b] = known[0] * m[0]   # one level: the convolution's (or L's) only product
        elif lower is None:
            # np.convolve(known, m[:n]) bit for bit, without its argument checks
            m[b:b + n] = np.correlate(known, m[n - 1::-1], "full")[:n]
        else:
            np.matmul(lower[:n, :n], known, out=m[b:b + n])
        b += n
    if b > order_up_to:
        return order_up_to + 1
    jump = _jump_matrix(m, kernel, smax)
    for b in range(b, order_up_to + 1, BLOCK):
        if settle and (value := _stop(m, b, BLOCK, smax)) is not None:
            m[b:] = value
            return b
        n = min(BLOCK, order_up_to + 1 - b)
        np.matmul(jump[:n], m[b - smax:b], out=m[b:b + n])
    return order_up_to + 1


def _explicit_solve(m: np.ndarray, g: np.ndarray, first: int, settle: bool) -> int:
    """m(1..Q) of a load with no mass on 1..first-1, first >= BLOCK: the
    levels of a block of up to ``first`` levels read only levels below it,
    so each block is one correlation of the load's window g(first..w),
    w = min(smax, Q), with no block inverse.  With ``settle``, every block
    start goes to ``_stop``; levels 0..first-1 count as the first block.
    Returns the level from which the levels are filled, or Q + 1."""
    order_up_to = m.size - 1
    smax = g.size - 1
    width = min(smax, order_up_to)
    window = g[first:width + 1][::-1]    # g(w), ..., g(first)
    # m(-w..Q), zero below level 0, so that every block reads a whole window
    ext = np.zeros(width + order_up_to + 1)
    ext[width] = m[0]
    levels = ext[width:]    # m(0..Q), indexed by level
    b = n = first
    while b <= order_up_to:
        if settle and (value := _stop(levels, b, n, smax)) is not None:
            ext[width + b:] = value
            break
        n = min(first, order_up_to + 1 - b)
        ext[width + b:width + b + n] = np.correlate(ext[b:b + n - first + width], window,
                                                    "valid") * m[0]
        b += n
    m[1:] = ext[width + 1:]
    return b


def _toeplitz(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """T[i, j] = x[cols - 1 + i - j], copied from a strided view of x."""
    view = np.ndarray((rows, cols), x.dtype, buffer=x, offset=(cols - 1) * x.itemsize,
                      strides=(x.itemsize, -x.itemsize))
    return view.copy()


def _block_inverse(m: np.ndarray, cols: int) -> np.ndarray:
    """The first ``cols`` columns of L = Toeplitz(m(0..BLOCK-1)), lower
    triangular: the inverse of every block's system, m(b..b+n-1) =
    L[:n, :n] @ known."""
    head = np.zeros(cols - 1 + BLOCK)
    head[cols - 1:] = m[:BLOCK]
    return _toeplitz(head, BLOCK, cols)


def _jump_matrix(m: np.ndarray, kernel: np.ndarray, width: int) -> np.ndarray:
    """P = L H for a load of support end ``width`` <= BLOCK, with
    H[t, c] = g(width + t - c): m(b..b+BLOCK-1) = P @ m(b-width..b-1) for
    every b >= width, since the recursion is homogeneous above level 0.
    Only the first ``width`` levels of a block read the window, so H has
    ``width`` nonzero rows.  P is built in row chunks of gemms of at most
    _SERIAL_GEMM multiply-adds; a chunk reads L only up to the column of its
    last row, since L is zero to the right of it."""
    lower = _block_inverse(m, width)
    band = _toeplitz(kernel[:2 * width - 1], width, width)
    jump = np.empty((BLOCK, width))
    rows = max(1, _SERIAL_GEMM // (width * width))
    for r in range(0, BLOCK, rows):
        np.matmul(lower[r:r + rows, :r + rows], band[:r + rows], out=jump[r:r + rows])
    return jump


def _renewal_levels(g: np.ndarray, levels: np.ndarray, stops: dict):
    """Yield (rows, m(i)), i = 0, 1, ..., of the live rows of increment
    masses g, each to its own level levels[r], not increasing along the
    rows: at level i, the array of m(i) of the live rows that reach it, and
    their indices in g (a slice until a row stops), valid until the next is
    taken.

    A level is summed as ``renewal_table`` sums it, (sum_{j=1..i} g(j)
    m(i-j), in j order) m(0): bit for bit up to level 2, within rounding
    above.  A row stops by the table's rule: at the levels b of
    ``_scheduled`` (blocks of one level) up to its level once b is at least
    its support end w, its defect at most SETTLE_TOL and its state passes
    ``_settled``, so it depends neither on the rows solved with it nor on
    the top level.  A row r that stops leaves the live rows, and
    stops[r] = (b, value) records that its levels from b on are all that
    value; the solve ends when no live row is left.  The live rows' last
    w + BLOCK levels are kept level-major; the stop's support ends and
    defects are built at its first test.  Columns of g past a row's level
    are not read; the divergence check is the caller's.
    """
    start = 1.0 / (1.0 - g[:, 0])
    yield slice(None), start
    reach = levels.tolist()
    top = reach[0] if reach else 0
    width = min(g.shape[1] - 1, top)
    kernel = np.ascontiguousarray(g[:, 1:width + 1].T)    # g(1), ..., g(width)
    span = min(top + 1, width + BLOCK)
    m = np.empty((span, g.shape[0]))    # level base + k at row k
    m[0], base, n = start, 0, len(reach)
    ends = live = None
    for i in range(1, top + 1):
        if i - base == span:
            m[:width] = m[span - width:]
            base = i - width
        while n and reach[n - 1] < i:    # the live rows whose level is at least i
            n -= 1
        at = i - base
        if n and _scheduled(i, 1):
            if ends is None:
                ends = g.shape[1] - 1 - np.argmax(g[:, :0:-1] > 0.0, axis=1)
                steady = _lorden_terms(g)[2] <= SETTLE_TOL
            rows = np.arange(n) if live is None else live[:n]
            keep = np.ones(n, bool)
            for r in np.flatnonzero(steady[rows] & (ends[rows] <= i)).tolist():
                if (value := _settled(m[:at, r], at, int(ends[rows[r]]))) is not None:
                    stops[int(rows[r])], keep[r] = (i, value), False
            if not keep.all():
                live, start = rows[keep], start[:n][keep]
                m, kernel = m[:, :n].compress(keep, 1), kernel[:, :n].compress(keep, 1)
                reach = [reach[k] for k in np.flatnonzero(keep).tolist()]
                n = len(reach)
        if not n:
            return
        j = min(i, width)
        terms = kernel[:j, :n] * m[at - j:at, :n][::-1]
        # sums over j = 1, 2, ... in order: numpy reduces a C-ordered batch
        # across its rows in order, but a single row pairwise
        sums = np.add.reduce(terms, axis=0) if n > 1 else np.add.accumulate(terms, axis=0)[-1]
        level = np.multiply(sums, start[:n], out=m[at, :n])
        yield (slice(0, n) if live is None else live[:n]), level


def _tp_renewal_rows(mu: np.ndarray, order_up_to: int) -> np.ndarray:
    """m(0..Q) of the untruncated time-policy load Poisson(mu[r]), per row,
    for mu >= TP_CLOSED_FORM_MU.

    The load of k cycles is Poisson(k mu), so m(i) = sum_{k>=0} P(Poisson(k mu)
    = i) exactly, with m(0) = 1/(1 - e^-mu).  Cycle k >= 1 adds its masses on
    the window lam +- r, lam = k mu, cut at Q, with r = ``_bernstein_radius(lam)``:
    each side outside holds less than _WINDOW_TAIL.  The windows run in
    order of k until one starts above Q; every window starts above 80 for
    these means.  A mass is evaluated in the saddle-point form (Loader 2000)

        log P(Poisson(lam) = i) = d - i log1p(d / lam) - gap(i),  d = i - lam,

    with gap(i) = log(i!) - (i log i - i) from ``_stirling_gaps``.  Its terms
    stay small, while the plain ``-lam + i log(lam) - log(i!)`` cancels terms
    of size lam log(lam) and errs by up to ~1e-12 per mass.  No mass depends
    on Q, so a row's prefix m(0..Q') equals the row to Q' bit for bit.  Each
    row takes O(Q) memory.
    """
    m = np.zeros((mu.size, order_up_to + 1))
    for row, mean in zip(m, mu.tolist()):
        row[0] = 1.0 / -math.expm1(-mean)
        windows = []
        while True:
            lam = (len(windows) + 1) * mean
            r = _bernstein_radius(lam)
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


def load_table(mu: float, q: int | None, order_up_to) -> RenewalTable:
    """The renewal table to level Q of one system's load of mean mu: the time
    load Poisson(mu) when q is None, else the hybrid load min(X, q).

    A time load takes the closed form from TP_CLOSED_FORM_MU on, certified
    by Lorden's bracket, and below it the recursion on its tail-cut load.  A
    hybrid load takes the recursion on its window (``_hp_window``), from
    ``build_increment_hp``'s masses at the cap (``_hp_load``) or, once
    floored, from its row of ``_hp_masses``; no mass is checked again.  The
    route depends on mu alone, never on Q.
    """
    order_up_to = _check_order_up_to(order_up_to)
    if q is None and mu >= TP_CLOSED_FORM_MU:
        m = _tp_renewal_rows(np.array([mu]), order_up_to)[0]
        table = RenewalTable(m=m, M=np.cumsum(m), order_up_to=order_up_to)
        _check_lorden_row(*_tp_lorden_terms(mu), order_up_to, float(table.M[-1]))
        return table
    mu = _load_mean(1.0, mu)
    if q is None:
        return _table(_tp_load(mu), order_up_to)
    floor, cap = _hp_window(mu, q, order_up_to)
    return _table(_hp_masses(np.array([mu]), np.array([floor]), np.array([cap]))[0]
                  if floor else _hp_load(mu, cap), order_up_to)


def load_sums(mu: float, q: int | None, order_up_to) -> tuple[float, float]:
    """E[K] = M(Q) and the holding factor sum_{i<=Q} (Q - i) m(i) of the
    load of ``load_table``.  A time load of mean in [_POLE_MIN_MU,
    TP_CLOSED_FORM_MU) at a level Q >= i0 = ``_pole_head(mu)`` sums its table
    to i0 - 1 and adds levels i0..Q from its poles (``_pole_tail``),
    certified by Lorden's bracket on the untruncated load.  Below i0, and for
    every other load, the sums are those of ``load_table``, bit for bit."""
    order_up_to = _check_order_up_to(order_up_to)
    if (q is None and _POLE_MIN_MU <= mu < TP_CLOSED_FORM_MU
            and order_up_to >= (head := _pole_head(mu))):
        table = load_table(mu, None, head - 1)
        n = order_up_to - head + 1
        cycles, holding = _pole_tail(mu, head, n)
        cycles += expected_k(table)
        _check_lorden_row(*_tp_lorden_terms(mu), order_up_to, cycles)
        return cycles, holding_sum(table) + n * expected_k(table) + holding
    table = load_table(mu, q, order_up_to)
    return expected_k(table), holding_sum(table)


def _pole_head(mu):
    """The first level i0 = max(ceil(2 mu), _POLE_HEAD) that a time load of
    mean mu takes from its poles; for a float, or elementwise as integers."""
    if isinstance(mu, np.ndarray):
        return np.maximum(np.ceil(2.0 * mu), _POLE_HEAD).astype(int)
    return max(math.ceil(2.0 * mu), _POLE_HEAD)


def _pole_pairs(mu, head):
    """K = ceil(mu/(2 pi) sqrt(expm1(2 _POLE_LOG/(i0 + 1)))), the pole pairs
    of a pole sum from level i0 on: |z_k|^2 = 1 + (2 pi k/mu)^2, so
    |z_K|^-(i0+1) <= 1e-18, and every later pair is smaller.  K <= 18 below
    TP_CLOSED_FORM_MU.  For floats, or elementwise as integers."""
    if isinstance(mu, np.ndarray):
        return np.ceil(mu / (2.0 * math.pi)
                       * np.sqrt(np.expm1(2.0 * _POLE_LOG / (head + 1)))).astype(int)
    return math.ceil(mu / (2.0 * math.pi) * math.sqrt(math.expm1(2.0 * _POLE_LOG / (head + 1))))


def _pole_tail(mu, head, n):
    """The levels i0..Q, i0 = head and n = Q - i0 + 1, of the renewal masses
    of the untruncated load Poisson(mu), summed in closed form:
    (sum_i m(i), sum_i (Q - i) m(i)).  For floats, in Python complex, or
    elementwise for arrays, where a row's pairs past its own K weigh 0.

    1/(1 - e^{mu (z - 1)}) has simple poles z_k = 1 + 2 pi i k/mu of weight
    1/mu, so for i >= 1, m(i) = (1/mu)(1 + 2 Re sum_{k>=1} w_k^(i+1)),
    w_k = 1/z_k.  Over the n levels from i0 the sums are geometric:

        sum m(i) = n/mu + (2/mu) Re sum_k w^(i0+1) (1 - w^n)/(1 - w),
        sum (Q - i) m(i) = n (n - 1)/(2 mu)
            + (2/mu) Re sum_k w^(i0+1) [(n - 1)(1 - w) - (w - w^n)]/(1 - w)^2,

    over the ``_pole_pairs`` pairs, added in order of k.  Each power is
    exp(p log w) with log w = -log1p(t^2)/2 - i atan(t), t = 2 pi k/mu, and
    1 - w = i t/(1 + i t): neither cancels when t is small."""
    rows = isinstance(mu, np.ndarray)
    log1p, atan, exp = (np.log1p, np.arctan, np.exp) if rows else (math.log1p, math.atan,
                                                                     cmath.exp)
    pairs = _pole_pairs(mu, head)
    cycles = holding = 0j
    for k in range(1, (pairs.max() if rows else pairs) + 1):
        t = 2.0 * math.pi * k / mu
        radius, angle = -0.5 * log1p(t * t), -atan(t)
        lead = exp((head + 1) * radius + 1j * ((head + 1) * angle))
        last = exp(n * radius + 1j * (n * angle))
        z = 1.0 + 1j * t
        gap = 1j * t / z
        more = lead * (1.0 - last) / gap, lead * ((n - 1) * gap - (1.0 / z - last)) / (gap * gap)
        if rows:
            more = np.where(k <= pairs, more, 0.0)
        cycles, holding = cycles + more[0], holding + more[1]
    return (n + 2.0 * cycles.real) / mu, (n * (n - 1) / 2 + 2.0 * holding.real) / mu


def _pole_masses(mu: float, head: int, top: int) -> np.ndarray:
    """m(i0..Q), i0 = head and Q = top, of the untruncated load Poisson(mu)
    from its ``_pole_pairs`` pole pairs (see ``_pole_tail``), added in order
    of k.  The power w^(i+1) of a level i = i0 + b BLOCK + j is
    w^(i0+1+b BLOCK) w^j: (BLOCK + (Q - i0)/BLOCK) K exponentials and K outer
    products.  No level depends on Q."""
    count = top - head + 1
    j = np.arange(min(count, BLOCK))
    p = head + 1 + BLOCK * np.arange(-(-count // BLOCK))
    powers = np.zeros((p.size, j.size))
    for k in range(1, _pole_pairs(mu, head) + 1):
        t = 2.0 * math.pi * k / mu
        radius, angle = -0.5 * math.log1p(t * t), -math.atan(t)
        steps = np.exp(j * radius + 1j * (j * angle))
        powers += (np.exp(p * radius + 1j * (p * angle))[:, None] * steps).real
    return (1.0 + 2.0 * powers.ravel()[:count]) / mu


def _mass_rows(mu: np.ndarray, q, levels: np.ndarray):
    """Yield (part, g), slices part of the rows and the masses g of the loads
    mu[part] by their scalar builders' expressions: time loads (q None) cut
    at their support ends, or hybrid loads of cap q (or q[r]) on their
    windows to the levels.  A chunk holds about _CHUNK_CELLS cells, 2 w +
    BLOCK + 2 a row for w the widest support end; no row depends on it."""
    if q is None:
        ends = _tp_support_ends(mu)
    else:
        floors, ends = _hp_window(mu, q, levels)
    size = max(1, _CHUNK_CELLS // (2 * int(ends.max(initial=0)) + BLOCK + 2))
    for part in (slice(start, start + size) for start in range(0, mu.size, size)):
        yield part, (_tp_masses(mu[part], ends[part]) if q is None
                     else _hp_masses(mu[part], floors[part], ends[part]))


def _level_table(mu: np.ndarray, q: int | None, order_up_to: int):
    """E[K] = M(Q) at each level Q (row) of the time (q None) or cap-q hybrid
    load of each mean (column), and the columns' ``_lorden_terms`` as three
    rows.  The masses m(0..Q) do not depend on the level they are solved to,
    so M, their running sum down the levels, serves every level.  A time
    column past its head i0 (``_heads``) is solved to i0 - 1 and takes
    m(i0..Q) from its poles (``_pole_masses``) and the untruncated load's
    terms.  Raises where the scalar table's divergence check raises;
    Lorden's check is the caller's."""
    closed = mu >= TP_CLOSED_FORM_MU if q is None else np.zeros(mu.size, bool)
    cycles = np.empty((order_up_to + 1, mu.size))
    terms = np.empty((3, mu.size))
    terms[:, closed] = _tp_lorden_terms(mu[closed])
    for r in np.flatnonzero(closed).tolist():
        cycles[:, r] = _tp_renewal_rows(mu[r:r + 1], order_up_to)[0]
    cut, head, reach = _heads(np.flatnonzero(~closed), mu, q, np.full(mu.size, order_up_to))
    for part, g in _mass_rows(mu[cut], q, np.full(cut.size, order_up_to)):
        _check_converges(g[:, 0].max())
        rows, stops = cut[part], {}
        terms[:, rows] = _lorden_terms(g)
        for i, (live, level) in enumerate(_renewal_levels(g, reach[part], stops)):
            cycles[i, rows[live]] = level
        for r, (b, value) in stops.items():
            cycles[b:reach[part][r] + 1, rows[r]] = value
    for r, i0 in zip(cut[reach < order_up_to].tolist(), head[reach < order_up_to].tolist()):
        cycles[i0:, r] = _pole_masses(float(mu[r]), i0, order_up_to)
        terms[:, r] = _tp_lorden_terms(mu[r])
    np.cumsum(cycles, axis=0, out=cycles)
    return cycles, terms


def _heads(rows: np.ndarray, mu: np.ndarray, q, levels: np.ndarray):
    """The rows, their heads i0 and the levels min(L, i0 - 1) their
    recursion reaches, sorted by reach, highest first (stably): a time row
    (q None) of mean from _POLE_MIN_MU on takes levels i0..L from its poles,
    i0 = ``_pole_head``; any other row reaches its level L, as its head is
    L + 1."""
    level = levels[rows]
    if q is None:
        head = np.where(mu[rows] >= _POLE_MIN_MU, _pole_head(mu[rows]), level + 1)
        if (level >= head).any():
            reach = np.minimum(level, head - 1)
            order = np.argsort(-reach, kind="stable")
            return rows[order], head[order], reach[order]
        return rows, head, level
    return rows, level + 1, level


def _row_sums(mu: np.ndarray, q, levels: np.ndarray):
    """E[K], the holding factor and a solved-and-checked mask of independent
    rows: the time load (q None) or cap-q[r] hybrid load of mean mu[r] at
    level levels[r], not increasing along the rows.  A row's levels are
    summed in order up to its stop and in closed form from there; a time
    row past its head i0 (``_heads``) sums its levels to i0 - 1 so, and adds
    the rest from its poles (``_pole_tail``), certified on the untruncated
    load's terms.  Time loads from TP_CLOSED_FORM_MU on and means that are
    not positive and finite are left unchecked, for the scalar path."""
    top = math.inf if q is not None else TP_CLOSED_FORM_MU
    rows, head, reach = _heads(((mu > 0.0) & (mu < top)).nonzero()[0], mu, q, levels)
    cycles, holding_sum = np.full((2, mu.size), np.nan)
    checked = np.zeros(mu.size, bool)
    for part, g in _mass_rows(mu[rows], None if q is None else q[rows], levels[rows]):
        at, stops = rows[part], {}
        level, solved = levels[at], reach[part]
        solve = _renewal_levels(g, solved, stops)
        m = next(solve)[1]    # level 0, of every row
        k, h = m.copy(), level * m
        for i, (live, m) in enumerate(solve, 1):
            k[live] += m
            h[live] += (level[live] - i) * m
        # a stopped row's levels b..R are one value, of weights L - b, ..., L - R
        for r, (b, value) in stops.items():
            k[r] += (solved[r] - b + 1) * value
            h[r] += ((solved[r] - b + 1) * (level[r] - solved[r])
                     + (solved[r] - b) * (solved[r] - b + 1) // 2) * value
        terms = _lorden_terms(g)
        if q is None and (tail := solved < level).any():
            start = head[part][tail]
            more = _pole_tail(mu[at][tail], start, level[tail] - start + 1)
            k[tail] += more[0]
            h[tail] += more[1]
            terms = np.stack(terms)
            terms[:, tail] = _tp_lorden_terms(mu[at][tail])
        lower, upper = _lorden_bracket(*terms, level)
        cycles[at], holding_sum[at] = k, h
        checked[at] = (g[:, 0] < 1.0 - 1e-12) & (lower <= k) & (k <= upper)
    return cycles, holding_sum, checked


def _lorden_terms(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's mean E[X], overshoot bound E[X^2]/E[X] and relative mass
    defect d (see ``_check_lorden``), from its masses g."""
    support = np.arange(g.shape[1], dtype=float)
    mean = g @ support
    above = 1.0 - g[:, 0]
    defect = np.abs(np.add.reduce(g[:, 1:], axis=1) - above) / above
    return mean, g @ (support * support) / mean, defect


def _lorden_row(g: np.ndarray) -> tuple[float, float]:
    """The mean and overshoot of ``_lorden_terms`` for one load's masses g, as floats."""
    support = np.arange(g.size, dtype=float)
    mean = float(np.dot(g, support))
    return mean, float(np.dot(g, support * support)) / mean


def _mass_defect(g: np.ndarray) -> float:
    """The relative mass defect d of one load's masses (``_check_lorden``)."""
    above = 1.0 - float(g[0])
    return abs(float(np.add.reduce(g[1:])) - above) / above


def _tp_lorden_terms(mu):
    """The terms of ``_lorden_terms`` for untruncated Poisson(mu) loads, the
    closed-form rows: E[X] = mu, E[X^2]/E[X] = mu + 1 and no mass defect;
    for an array of means or a float."""
    return mu, mu + 1.0, 0.0 * mu


def _lorden_bracket(mean, overshoot, defect, order_up_to):
    """Lorden's bracket on E[K] with its slack (see ``_check_lorden``), for
    floats or elementwise for arrays."""
    slack = WALD_SLACK + (order_up_to + 2) * defect
    return ((order_up_to + 1) / mean * (1.0 - slack),
            (order_up_to + overshoot) / mean * (1.0 + slack))


def _lorden_error(cycles: float, lower: float, upper: float, level: int) -> ArithmeticError:
    return ArithmeticError(
        f"renewal E[K] = {cycles!r} outside the Lorden bracket "
        f"[{lower!r}, {upper!r}] at order-up-to level {level}"
    )


def _check_lorden(mean: np.ndarray, overshoot: np.ndarray, defect: np.ndarray,
                  order_up_to, cycles: np.ndarray) -> None:
    """Certify E[K] = M(Q) of each row against Lorden's bracket.

    The load S_K of the cycle that first passes Q is at least Q + 1, and
    Lorden (1970) bounds its mean overshoot past Q by E[X^2]/E[X], so by
    Wald's identity E[S_K] = E[K] E[X],
    (Q + 1)/E[X] <= E[K] <= (Q + E[X^2]/E[X])/E[X].  For a Poisson(mu) load
    the terms are mu and mu + 1 (``_tp_lorden_terms``).  The recursion sees
    the masses above zero as a distribution of total mass
    (sum_{j>=1} g(j))/(1 - g(0)), which rounding moves off 1 by a relative
    defect d (large when g(0) is near 1); over at most Q + 1 nonzero loads
    that scales E[K] by up to (1 + d)^(Q+1), so the bracket widens by
    (Q + 2) d on top of WALD_SLACK, a relative slack that keeps the two ends
    apart at q = 1, where both are equalities.
    ``order_up_to`` may also be a column of levels, one per row of ``cycles``;
    then a violation raises at the lowest failing level, at its first failing
    row.  Raises ArithmeticError on a violation.  ``_check_lorden_row`` is
    the same check for one table, on floats, which ``renewal_table`` runs on
    every table to Q >= 2 * BLOCK, whatever its kernel and its stop.
    """
    lower, upper = _lorden_bracket(mean, overshoot, defect, order_up_to)
    bad = ~((lower <= cycles) & (cycles <= upper))
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        level = np.broadcast_to(order_up_to, bad.shape)[at]
        raise _lorden_error(float(cycles[at]), float(lower[at]), float(upper[at]), int(level))


def _check_lorden_row(mean: float, overshoot: float, defect: float, order_up_to: int,
                      cycles: float) -> None:
    """``_check_lorden`` of one table's E[K] at level Q, on floats."""
    lower, upper = _lorden_bracket(mean, overshoot, defect, order_up_to)
    if not lower <= cycles <= upper:
        raise _lorden_error(cycles, lower, upper, order_up_to)


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
