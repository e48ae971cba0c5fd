"""A 40-digit oracle for the exact costs of quantity, time and hybrid policies.

Under Poisson demand of rate lambda a policy dispatches one load a cycle: q
orders under a quantity policy of q, a Poisson(mu) load under a time policy
of period T, mu = lambda T, and min(X, q), X ~ Poisson(mu), under a hybrid
policy of q and T.  ``load_levels`` solves the renewal recursion

    m(i) = m(0) sum_{j=1..i} g(j) m(i - j),   m(0) = 1/P(X > 0),

on the exact masses g(j) of the load, in 40-digit ``mpmath`` arithmetic:
e^-mu mu^j / j!, with the cap mass of min(X, q) as the 40-digit complement
of the masses below it, and P(X > 0) taken as -expm1(-mu), which does not
cancel at small mu (1 for a quantity load).  Masses past the mode below
1e-60 end the list; the mass they drop is below 1e-58.  ``load_sums`` reads
E[K] = M(Q) and the holding factor sum_{i<=Q} (Q - i) m(i) off those
levels, and ``oracle_eval`` combines them with the cycle forms of
``metrics.cycle_metrics`` (the hybrid ones summed over the same masses) and
the cost components of ``metrics._components`` into the average cost ``ac``
under either delay, the delay and squared delay per order ``aod`` and
``aosd`` and the inventory rate ``air``.

Run as a script, it prints every time- and hybrid-policy value behind
``tests/data/compare_pins.json`` whose pinned bits differ from what the
code computes now, with each one's relative error against the oracle before
(pinned) and after (computed):

    PYTHONPATH=src python tests/oracle.py
"""

import mpmath

DIGITS = 40


def load_masses(mu, q: int | None = None) -> list:
    """g(0), g(1), ... of Poisson(mu) (q None) or of min(X, q), as mpmath
    numbers of DIGITS digits."""
    with mpmath.workdps(DIGITS):
        mu = mpmath.mpf(mu)
        g = [mpmath.exp(-mu)]
        while q is None or len(g) < q:
            g.append(g[-1] * mu / len(g))
            if len(g) > mu + 1 and g[-1] < mpmath.mpf(10) ** -60:
                return g
        g.append(1 - mpmath.fsum(g))
        return g


def load_levels(mu, order_up_to: int, q: int | None = None) -> list:
    """m(0..Q) of the load Poisson(mu) (q None), min(X, q), or q orders
    (mu None), as mpmath numbers of DIGITS digits."""
    with mpmath.workdps(DIGITS):
        if mu is None:
            g, start = [mpmath.mpf(0)] * q + [mpmath.mpf(1)], mpmath.mpf(1)
        else:
            g, start = load_masses(mu, q), 1 / -mpmath.expm1(-mpmath.mpf(mu))
        m = [start]
        for i in range(1, order_up_to + 1):
            j = min(i, len(g) - 1)
            m.append(start * mpmath.fdot(g[1:j + 1], m[i - 1::-1][:j]))
        return m


def load_sums(mu, order_up_to: int, q: int | None = None) -> tuple[list, list]:
    """E[K] = M(Q) and the holding factor sum_{j<Q} M(j) at every level
    Q = 0..order_up_to of the load of ``load_levels``, as two lists of
    mpmath numbers."""
    with mpmath.workdps(DIGITS):
        cycles, holding = [], []
        total = held = mpmath.mpf(0)
        for x in load_levels(mu, order_up_to, q):
            held += total
            total += x
            cycles.append(total)
            holding.append(held)
        return cycles, holding


def factorial_moment(masses: list, k: int):
    """E[Y (Y - 1) ... (Y - k + 1)] of the load of ``masses``."""
    return mpmath.fsum(g * mpmath.ff(j, k) for j, g in enumerate(masses))


def cycle_forms(rate, q: int | None, period) -> tuple:
    """(orders, delay, sq_delay) of one consolidation cycle: the forms of
    ``metrics.cycle_metrics``, with the hybrid load's moments summed over its
    masses, min(X, q + 1) for the squared delay."""
    if period is None:
        return q, q * (q - 1) / (2 * rate), (q**3 - q) / (3 * rate**2)
    if q is None:
        return rate * period, rate * period**2 / 2, rate * period**3 / 3
    mu = rate * period
    masses = load_masses(mu, q)
    return (factorial_moment(masses, 1), factorial_moment(masses, 2) / (2 * rate),
            factorial_moment(load_masses(mu, q + 1), 3) / (3 * rate**2))


def oracle_eval(cfg, delay: str = "linear") -> dict:
    """The exact evaluation of ``cfg`` (a ``SystemConfig``): ``ac`` under
    ``delay``, ``aod``, ``aosd`` and ``air`` as mpmath numbers, from the float
    inputs taken exactly."""
    q, period = getattr(cfg.policy, "q", None), getattr(cfg.policy, "period", None)
    with mpmath.workdps(DIGITS):
        rate = mpmath.mpf(cfg.demand_rate)
        period = None if period is None else mpmath.mpf(period)
        orders, delay_sum, sq_delay_sum = cycle_forms(rate, q, period)
        mu = None if period is None else rate * period
        cycles, holding = (x[-1] for x in load_sums(mu, cfg.order_up_to, q))
        aod, aosd = delay_sum / orders, sq_delay_sum / orders
        air = holding / cycles    # (length * holding factor) / (E[K] * length)
        costs = cfg.costs
        waiting = (costs.wait_linear * rate * aod if delay == "linear"
                   else costs.wait_squared * rate * aosd)
        ac = (rate * (costs.replenish_fixed / (cycles * orders) + costs.replenish_unit)
              + costs.holding * air
              + rate * (costs.dispatch_fixed / orders + costs.dispatch_unit)
              + waiting)
        return {"ac": ac, "aod": aod, "aosd": aosd, "air": air}


def relative_error(value: float, exact) -> float:
    """|value - exact| / |exact|, or |value| where the exact value is 0."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact) / (abs(exact) or 1))


def report() -> None:
    """Print each moved time- and hybrid-policy pin with its oracle error
    before and after, and the largest error of every such pin after."""
    import json
    import test_compare_pins as cases

    pinned = json.loads(cases.PINS.read_text())
    computed = cases.compute_pins()
    rows = list(zip(cases.pin_values(pinned, ("TP", "HP")),
                    cases.pin_values(computed, ("TP", "HP"))))
    worst = 0.0
    for (where, before, old), (_, after, new) in rows:
        error = relative_error(after, new)
        worst = max(worst, error)
        if before != after:
            print(f"{where}: {before!r} -> {after!r}, error "
                  f"{relative_error(before, old):.2e} -> {error:.2e}")
    print(f"{len(rows)} time- and hybrid-policy values; largest error now {worst:.2e}")


if __name__ == "__main__":
    report()
