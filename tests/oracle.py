"""A 40-digit oracle for the exact costs of time policies.

A time policy of period T under Poisson demand of rate lambda dispatches a
Poisson(mu) load each cycle, mu = lambda T.  ``time_levels`` solves the
renewal recursion

    m(i) = m(0) sum_{j=1..i} g(j) m(i - j),   m(0) = 1/(1 - g(0)),

on the exact Poisson masses g(j) = e^-mu mu^j / j!, in 40-digit ``mpmath``
arithmetic, with 1 - g(0) taken as -expm1(-mu), which does not cancel at
small mu.  Masses past the mode below 1e-60 end the list; the mass they drop
is below 1e-58.  ``time_sums`` reads E[K] = M(Q) and the holding factor
sum_{i<=Q} (Q - i) m(i) off those levels, and ``time_eval`` combines them with
the closed-form time cycle forms (``metrics.cycle_metrics``) and the cost
components of ``metrics._components`` into the linear-delay average cost
``ac``, the delay per order ``aod`` and the inventory rate ``air``.

Run as a script, it prints every time-policy value behind
``tests/data/compare_pins.json`` whose pinned bits differ from what the
code computes now, with each one's relative error against the oracle before
(pinned) and after (computed):

    PYTHONPATH=src python tests/oracle.py
"""

import mpmath

DIGITS = 40


def time_levels(mu: float, order_up_to: int) -> list:
    """m(0..Q) of the load Poisson(mu), as mpmath numbers of DIGITS digits."""
    with mpmath.workdps(DIGITS):
        mu = mpmath.mpf(mu)
        g = [mpmath.exp(-mu)]
        for j in range(1, order_up_to + 1):
            g.append(g[-1] * mu / j)
            if j > mu and g[-1] < mpmath.mpf(10) ** -60:
                break
        start = 1 / -mpmath.expm1(-mu)
        m = [start]
        for i in range(1, order_up_to + 1):
            j = min(i, len(g) - 1)
            m.append(start * mpmath.fdot(g[1:j + 1], m[i - 1::-1][:j]))
        return m


def time_sums(mu: float, order_up_to: int) -> tuple[list, list]:
    """E[K] = M(Q) and the holding factor sum_{j<Q} M(j) at every level
    Q = 0..order_up_to, as two lists of mpmath numbers."""
    with mpmath.workdps(DIGITS):
        cycles, holding = [], []
        total = held = mpmath.mpf(0)
        for x in time_levels(mu, order_up_to):
            held += total
            total += x
            cycles.append(total)
            holding.append(held)
        return cycles, holding


def time_eval(rate: float, period: float, order_up_to: int, costs) -> dict:
    """The exact evaluation of the time policy of ``period`` at level Q:
    ``ac``, ``aod`` and ``air`` as mpmath numbers, from the float inputs
    taken exactly."""
    with mpmath.workdps(DIGITS):
        rate, period = mpmath.mpf(rate), mpmath.mpf(period)
        cycles, holding = (x[-1] for x in time_sums(rate * period, order_up_to))
        orders = rate * period
        aod = period / 2
        air = holding / cycles    # (T * holding factor) / (E[K] * T)
        ac = (rate * (costs.replenish_fixed / (cycles * orders) + costs.replenish_unit)
              + costs.holding * air
              + rate * (costs.dispatch_fixed / orders + costs.dispatch_unit)
              + costs.wait_linear * rate * aod)
        return {"ac": ac, "aod": aod, "air": air}


def relative_error(value: float, exact) -> float:
    """|value - exact| / |exact|, or |value| where the exact value is 0."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact) / (abs(exact) or 1))


def report() -> None:
    """Print each moved time-policy pin with its oracle error before and
    after, and the largest error of every time-policy pin after."""
    import json
    import test_compare_pins as cases

    pinned = json.loads(cases.PINS.read_text())
    computed = cases.compute_pins()
    rows = list(zip(cases.time_pin_values(pinned), cases.time_pin_values(computed)))
    worst = 0.0
    for (where, before, old), (_, after, new) in rows:
        error = relative_error(after, new)
        worst = max(worst, error)
        if before != after:
            print(f"{where}: {before!r} -> {after!r}, error "
                  f"{relative_error(before, old):.2e} -> {error:.2e}")
    print(f"{len(rows)} time-policy values; largest error now {worst:.2e}")


if __name__ == "__main__":
    report()
