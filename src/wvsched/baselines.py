"""Reference solutions: myopic static allocation with EDF, queue-drift
scheduling, and the single uniform price.

The uniform-price solution searches for the smallest common packet price
that keeps expected usage feasible in every joint channel state; realized
allocations are then inflated to full utilization at simulation time. The
drift scheduler sizes its transmission against the quadratic backlog drift
and is blind to distortion impacts and deadlines by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wvsched.model import (
    Context,
    GopTemplate,
    ModelError,
    ScheduleAction,
    bandwidth_usage,
    check_buffer,
    transmit_energy,
)
from wvsched.scheduling import PriceResponse, fill, fill_rows


# ---------------------------------------------------------------------------
# Myopic static allocation
# ---------------------------------------------------------------------------

def myopic_static_shares(templates: Sequence[GopTemplate]) -> np.ndarray:
    """Bandwidth shares proportional to each user's per-GOP distortion impact."""
    weights = np.array([t.total_impact for t in templates], dtype=float)
    if weights.sum() <= 0:
        return np.full(len(templates), 1.0 / len(templates))
    return weights / weights.sum()


# ---------------------------------------------------------------------------
# Queue-drift scheduling
# ---------------------------------------------------------------------------

def drift_response(buffer: Sequence[int], beta: float, gain_to_noise: float,
                   delta: float, expected_arrivals: float) -> PriceResponse:
    """The drift-greedy action at this buffer as a function of the price.

    Each total m = 0..backlog scores
    (1-delta)(-beta*energy(m) - price*m) + delta * (-(backlog - m + arrivals)^2);
    the price-free terms are computed once, and `totals` scores every price
    at once. The objective depends on the action only through its total, so
    the send vector is the lexicographically largest split of the best total
    (earliest buffer positions drain first; ties across totals go to the
    larger total). The marginal price of the m-th packet is
    du_m + dcont_m / (1-delta), the price-free terms' steps, each followed
    by the running minimum over m. Blind to per-DU impacts and deadlines.
    """
    backlog = int(sum(buffer))
    m = np.arange(backlog + 1)
    u = -beta * transmit_energy(gain_to_noise, m)
    after = (backlog - m) + expected_arrivals
    cont = delta * -(after * after)
    keep = 1.0 - delta

    def at(price: float) -> ScheduleAction:
        vals = keep * (u - price * m) + cont
        return fill(buffer, backlog - int(vals[::-1].argmax()), range(len(buffer)))

    def totals(prices: np.ndarray) -> np.ndarray:
        vals = keep * (u - prices[:, None] * m) + cont
        return backlog - vals[:, ::-1].argmax(axis=1)

    def marginals() -> np.ndarray:
        return np.minimum.accumulate(np.diff(u) + np.diff(cont) / keep)

    return PriceResponse(at, totals, marginals)


def lyapunov_action(context: Context, buffer: Sequence[int], price: float,
                    beta: float, gain_to_noise: float, delta: float,
                    expected_arrivals: float) -> ScheduleAction:
    """`drift_response` at one price. The context only checks the buffer:
    `check_buffer`'s `ModelError` unless it fits the context's caps."""
    check_buffer(context, buffer)
    return drift_response(buffer, beta, gain_to_noise, delta, expected_arrivals)(price)


# ---------------------------------------------------------------------------
# Uniform price
# ---------------------------------------------------------------------------

@dataclass
class UniformPriceResult:
    """Smallest feasible common price and the per-state usage it induces."""

    price: float
    usage_by_state: dict[tuple[int, ...], float]
    iterations: int
    curve: list[tuple[float, float]]  # (lambda, worst-state usage)


def uniform_price_solve(estimate_usage, s0_states: Sequence[tuple[int, ...]],
                        bandwidth: float, tol: float = 1e-4,
                        max_doublings: int = 60) -> UniformPriceResult:
    """Bisection for the smallest uniform price with feasible expected usage.

    `estimate_usage(lam)` must return {joint channel state: expected usage}
    under every user solving its priced problem at the common packet price
    lam (before any utilization scaling). The bracket starts at lam = 1 and
    doubles; raises with the usage-vs-price curve if none is found. Bisects
    until the bracket is at most `tol` wide, or no double lies inside it;
    raises ModelError, before any estimate, unless 0 < tol < inf.
    """
    if not 0.0 < tol < float("inf"):
        raise ModelError(f"uniform price: tol must be finite and > 0; got {tol!r}")
    curve: list[tuple[float, float]] = []

    def worst(lam: float) -> tuple[float, dict]:
        usage = estimate_usage(lam)
        w = max(usage.values())
        curve.append((lam, w))
        return w, usage

    iterations = 0
    w0, usage0 = worst(0.0)
    if w0 <= bandwidth + 1e-12:
        return UniformPriceResult(0.0, usage0, 1, curve)
    hi = 1.0
    w_hi, usage_hi = worst(hi)
    iterations += 1
    while w_hi > bandwidth + 1e-12:
        hi *= 2.0
        w_hi, usage_hi = worst(hi)
        iterations += 1
        if iterations > max_doublings:
            raise ModelError(
                "uniform price: no feasible bracket found; usage-vs-price curve: "
                + ", ".join(f"({l:.4g}: {u:.4g})" for l, u in curve))
    lo = 0.0
    usage = usage_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        w_mid, usage_mid = worst(mid)
        iterations += 1
        if w_mid <= bandwidth + 1e-12:
            hi, usage = mid, usage_mid
        else:
            lo = mid
    return UniformPriceResult(hi, usage, iterations, curve)


def scale_up_to_budget(contexts, actions: Sequence[ScheduleAction],
                       buffers, rates: Sequence[float], bits_per_packet: float,
                       bandwidth: float) -> list[ScheduleAction]:
    """Inflate conservative requests to full utilization, buffer-capped: each
    user adds its high-impact, near-deadline packets first."""
    usage = bandwidth_usage([a.total for a in actions], rates, bits_per_packet)
    if usage <= 0 or usage >= bandwidth - 1e-12:
        return list(actions)
    gamma = bandwidth / usage
    out = []
    for ctx, act, buf in zip(contexts, actions, buffers):
        budget = int(np.floor(gamma * act.total + 1e-9))
        if budget != act.total:
            extra = fill([x - y for x, y in zip(buf, act.sends)], budget - act.total,
                         ctx.impact_order())
            act = ScheduleAction(tuple(y + e for y, e in zip(act.sends, extra.sends)))
        out.append(act)
    return out


def scale_rows_up_to_budget(contexts, sends: Sequence[np.ndarray],
                            buffers: Sequence[np.ndarray], rates: Sequence[np.ndarray],
                            bits_per_packet: float, bandwidth: float) -> list[np.ndarray]:
    """`scale_up_to_budget` of many slots at once: row k of every user's
    sends, buffers (rows, slots) and rates is one slot at `contexts`. Each
    row's usage and budget take the scalar inflate's float operations in its
    order, and rows it leaves alone get no room."""
    totals = [s.sum(axis=1) for s in sends]
    usage = sum(t * bits_per_packet / r for t, r in zip(totals, rates))
    gamma = np.divide(bandwidth, usage, out=np.ones(len(usage)),
                      where=(usage > 0) & (usage < bandwidth - 1e-12))
    return [s + fill_rows(buf - s, np.floor(gamma * t + 1e-9).astype(np.int64) - t,
                          ctx.impact_order())
            for ctx, s, buf, t in zip(contexts, sends, buffers, totals)]
