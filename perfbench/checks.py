"""Output checks, computed apart from the library.

Each check returns a list of error strings, empty when the output passes.
The trace audit re-derives every packet count from the per-slot records
(buffers, sends, drops) and the GOP templates' deadlines; it does not read
the library's own running totals except to compare against them. The
per-DU reference is a plain backward induction over Python lists.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

BAND_SLACK = 1e-9
TABLE_TOL = 1e-9


@dataclass
class TraceAudit:
    """What the benchmark recomputed from one episode trace."""

    errors: list[str] = field(default_factory=list)
    network_payoff: float = 0.0      # (1 - delta) * sum_t delta^t * sum_i payoff
    late_i_loss: int = 0             # I-frame packets dropped after slot 1


def audit_trace(trace, scenario) -> TraceAudit:
    """Sends fit buffers and the band, packets are conserved, drops and
    payoffs match the records."""
    audit = TraceAudit()
    err = audit.errors
    delta = scenario.discount
    b, band = scenario.bits_per_packet, scenario.bandwidth
    n_users = len(scenario.users)
    # per user: instance (du_id, absolute deadline) -> packets left after sends
    left: list[dict] = [{} for _ in range(n_users)]
    arrived = [Counter() for _ in range(n_users)]
    sent = [Counter() for _ in range(n_users)]
    dropped = [Counter() for _ in range(n_users)]
    disc = 1.0
    for t, rec in enumerate(trace.records):
        if len(rec.users) != n_users:
            err.append(f"slot {t + 1}: {len(rec.users)} user records")
            return audit
        usage = 0.0
        slot_payoff = 0.0
        for i, (user, ur) in enumerate(zip(scenario.users, rec.users)):
            tpl = user.template
            ctx = tpl.context(t % tpl.period)
            names = [s.du.name for s in ctx.slots]
            if [n for n, _ in ur.traffic] != names or len(ur.sent) != len(names):
                err.append(f"slot {t + 1} user {i}: record does not match the context")
                continue
            now: dict = {}
            gain = 0.0
            slot_drop = Counter()
            for slot, (name, x), y in zip(ctx.slots, ur.traffic, ur.sent):
                inst = (slot.du.du_id, t + slot.remaining)
                if inst in left[i]:
                    if x != left[i][inst]:
                        err.append(f"slot {t + 1} user {i} {name}: buffer {x}, "
                                   f"but {left[i][inst]} were left last slot")
                else:
                    arrived[i][name] += x
                if not 0 <= y <= x:
                    err.append(f"slot {t + 1} user {i} {name}: sends {y} of {x}")
                sent[i][name] += y
                gain += slot.du.distortion_impact * y
                if slot.remaining == 0:
                    if x - y:
                        slot_drop[name] += x - y
                else:
                    now[inst] = x - y
            lost = set(left[i]) - {(s.du.du_id, t + s.remaining) for s in ctx.slots}
            if lost:
                err.append(f"slot {t + 1} user {i}: instances {sorted(lost)} vanished")
            left[i] = now
            dropped[i] += slot_drop
            if dict(slot_drop) != {k: v for k, v in ur.dropped.items() if v}:
                err.append(f"slot {t + 1} user {i}: dropped {dict(ur.dropped)}, "
                           f"expected {dict(slot_drop)}")
            h = rec.s0[i]
            total = sum(ur.sent)
            usage += total * b / float(user.channel.rate[h])
            energy = (2.0 ** total - 1.0) / float(user.channel.gain[h])
            pay = gain - user.beta * energy
            if not math.isclose(pay, ur.payoff, rel_tol=1e-9, abs_tol=1e-9):
                err.append(f"slot {t + 1} user {i}: payoff {ur.payoff}, expected {pay}")
            slot_payoff += pay
            if t > 0:
                audit.late_i_loss += slot_drop.get("I", 0)
        if usage > band + BAND_SLACK:
            err.append(f"slot {t + 1}: sends use {usage:.6g} of band {band}")
        audit.network_payoff += disc * slot_payoff
        disc *= delta
    audit.network_payoff *= 1.0 - delta
    for i in range(n_users):
        remaining = Counter()
        for (du_id, _), x in left[i].items():
            remaining[scenario.users[i].template.du(du_id).name] += x
        for name in set(arrived[i]) | set(sent[i]) | set(dropped[i]) | set(remaining):
            if arrived[i][name] != sent[i][name] + dropped[i][name] + remaining[name]:
                err.append(f"user {i} {name}: arrived {arrived[i][name]} != sent "
                           f"{sent[i][name]} + dropped {dropped[i][name]} "
                           f"+ remaining {remaining[name]}")
            # the library's totals also count the sizes drawn after the last slot
            lib_net = trace.arrived[i].get(name, 0) - trace.remaining[i].get(name, 0)
            if lib_net != arrived[i][name] - remaining[name]:
                err.append(f"user {i} {name}: library arrived-remaining {lib_net}, "
                           f"counted {arrived[i][name] - remaining[name]}")
            if trace.sent_totals[i].get(name, 0) != sent[i][name]:
                err.append(f"user {i} {name}: library sent {trace.sent_totals[i].get(name, 0)},"
                           f" counted {sent[i][name]}")
            if trace.dropped_totals[i].get(name, 0) != dropped[i][name]:
                err.append(f"user {i} {name}: library dropped "
                           f"{trace.dropped_totals[i].get(name, 0)}, counted {dropped[i][name]}")
    return audit


def reference_du_tables(du, window: int, transition, price, discount: float):
    """Backward induction for one DU instance over its ages, in plain Python.

    Returns (values[age][x][v], post[age][x][v]) with values[window] == 0 and
    post[age] the channel expectation of values[age + 1] (0 at the last age).
    """
    n = len(price)
    cap = du.max_size
    margin = [(1.0 - discount) * (du.distortion_impact - p) for p in price]
    values = [[[0.0] * n for _ in range(cap + 1)] for _ in range(window + 1)]
    post = [[[0.0] * n for _ in range(cap + 1)] for _ in range(window)]
    for age in range(window - 1, -1, -1):
        if age < window - 1:
            for x in range(cap + 1):
                for v in range(n):
                    post[age][x][v] = sum(transition[v][w] * values[age + 1][x][w]
                                          for w in range(n))
        for x in range(cap + 1):
            for v in range(n):
                values[age][x][v] = max(margin[v] * y + discount * post[age][x - y][v]
                                        for y in range(x + 1))
    return values, post


def du_table_errors(agent, scenario, prices: dict, user: int) -> list[str]:
    """Compare one user's per-DU tables with the plain backward induction at
    the settled prices (common channel: joint state (h, ..., h))."""
    if scenario.channel_correlation != "common":
        return ["per-DU reference covers the common channel only"]
    u = scenario.users[user]
    n_users = len(scenario.users)
    chan = u.channel
    price = [prices.get((h,) * n_users, 0.0) * scenario.bits_per_packet / float(chan.rate[h])
             for h in range(len(chan))]
    transition = [[float(p) for p in row] for row in chan.transition]
    errors = []
    for du in u.template.dus:
        tab = agent.tables[du.du_id]
        values, post = reference_du_tables(du, u.template.window, transition, price,
                                           scenario.discount)
        worst = 0.0
        for age in range(u.template.window):
            for x in range(du.max_size + 1):
                for v in range(len(price)):
                    worst = max(worst, abs(values[age][x][v] - tab.values[age, x, v]),
                                abs(post[age][x][v] - tab.post[age, x, v]))
        if worst > TABLE_TOL:
            errors.append(f"user {user} DU {du.du_id}: per-DU table differs from the "
                          f"reference by {worst:.3g}")
    return errors


def coordination_errors(label: str, report, prices: dict) -> list[str]:
    """The price coordination settled and every price is nonnegative."""
    errors = [] if report.converged else [f"{label}: coordination did not converge"]
    negative = {k: v for k, v in prices.items() if not v >= 0.0}
    if negative:
        errors.append(f"{label}: negative prices {negative}")
    return errors


def uniform_usage_errors(usage_by_state: dict, bandwidth: float) -> list[str]:
    """The uniform price keeps expected usage within the band in every state."""
    worst = max(usage_by_state.values())
    if worst > bandwidth + 1e-12:
        return [f"uniform price: worst-state usage {worst} exceeds band {bandwidth}"]
    return []


def better_errors(what: str, hi_name: str, hi: float, lo_name: str, lo: float) -> list[str]:
    """hi must exceed lo strictly."""
    return [] if hi > lo else [f"{what}: {hi_name} {hi} is not above {lo_name} {lo}"]


def replay_errors(late_i_loss: dict) -> list[str]:
    """Pinned replay: proposed keeps every I packet after slot 1, myopic does not."""
    errors = []
    if late_i_loss["proposed"] != 0:
        errors.append(f"replay: proposed lost {late_i_loss['proposed']} I packets after slot 1")
    if late_i_loss["myopic"] <= 0:
        errors.append("replay: myopic lost no I packet after slot 1")
    return errors


def binding_price_errors(prices: dict, good: tuple, bad: tuple) -> list[str]:
    """The band binds only in the bad state: price 0 in good, > 0 in bad."""
    if prices.get(good, 0.0) == 0.0 and prices.get(bad, 0.0) > 0.0:
        return []
    return [f"settled prices {prices}: expected 0 at {good} and > 0 at {bad}"]


def oracle_bound_errors(oracle_value: float, policy_value: float, name: str) -> list[str]:
    """No deterministic slot rule beats the constrained joint optimum."""
    if oracle_value >= policy_value - 1e-9:
        return []
    return [f"oracle value {oracle_value} is below the exact value {policy_value} of {name}"]
