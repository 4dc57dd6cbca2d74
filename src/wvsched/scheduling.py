"""Packet scheduling within one slot.

Two families: the decomposed sequential scheduler, which walks the context
DAG root-by-root and sizes each DU's transmission against a per-DU
continuation value, and the simple reference schedulers (EDF, FIFO, HDF)
that fill a fixed packet capacity in a static order.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from wvsched.model import Context, GopTemplate, ModelError, ScheduleAction
from wvsched.mdp import ChannelView


def dependency_order_check(edges: Sequence[tuple[int, int]],
                           order: Sequence[int]) -> bool:
    """True iff no slot index appears in `order` before one of its ancestors."""
    pos = {idx: k for k, idx in enumerate(order)}
    return all(pos[p] < pos[c] for p, c in edges)


# ---------------------------------------------------------------------------
# Per-DU continuation tables
# ---------------------------------------------------------------------------

class SingleDuModel:
    """One DU instance's scheduling problem over its lifetime in the window.

    State: (age since entering the context, remaining packets, channel-view
    state). Per-slot payoff is (1-delta) * (q - price) * sends; the value of
    later recurrences of the same DU does not depend on today's sends, so the
    instance is solved with terminal value zero.
    """

    def __init__(self, du, window: int, view: ChannelView, discount: float):
        self.du = du
        self.window = int(window)
        self.view = view
        self.discount = float(discount)
        self.cap = du.max_size

    def solve(self, price: np.ndarray) -> "DuValueTable":
        """Backward induction over ages at a per-view-state price.

        Each age takes one masked max over the (send y, buffer x, view) grid
        of q = y * margin + delta * post[age, x - y]; cells with y > x are
        -inf. Returns the value and post-decision tables, the smallest
        maximising send per (age, x, view) and the per-view margins
        (1-delta)(impact - price) they were solved at.
        """
        n_view = len(self.view)
        w, cap, delta = self.window, self.cap, self.discount
        values = np.zeros((w + 1, cap + 1, n_view))       # values[w] == 0 terminal
        post = np.zeros((w, cap + 1, n_view))
        best_send = np.zeros((w, cap + 1, n_view), dtype=np.intp)
        margin = (1.0 - delta) * (self.du.distortion_impact - np.asarray(price))
        ys = np.arange(cap + 1)[:, None]
        infeasible = ys > ys.T                            # [y, x]: y > x
        after = np.where(infeasible, 0, ys.T - ys)        # x - y, 0 where masked
        gain = ys[:, :, None] * margin                    # [y, 1, v]
        for age in range(w - 1, -1, -1):
            if age < w - 1:
                post[age] = values[age + 1] @ self.view.transition.T
            q = gain + delta * post[age][after]
            q[infeasible] = -np.inf
            best_send[age] = q.argmax(axis=0)
            values[age] = q.max(axis=0)
        return DuValueTable(self, values, post, best_send, margin)


@dataclass
class DuValueTable:
    """Solved per-DU tables: values[age, x, view], post[age, x_after, view],
    the smallest maximising send best_send[age, x, view] and the per-view
    margins the tables were solved at."""

    model: SingleDuModel
    values: np.ndarray
    post: np.ndarray
    best_send: np.ndarray
    margin: np.ndarray

    def copy_for(self, model: SingleDuModel) -> "DuValueTable":
        """The same solution under another DU's model, with its own arrays."""
        return DuValueTable(model, self.values.copy(), self.post.copy(),
                            self.best_send.copy(), self.margin.copy())

    def post_slice(self, age: int, x: int, view_state: int) -> np.ndarray:
        """Continuations for sends y = 0..x, i.e. post[age, x - y] vectorized."""
        if age >= self.model.window - 1:
            return np.zeros(x + 1)
        return self.post[age, x::-1, view_state]

    def best(self, age: int, x: int, view_state: int, margin: float,
             discount: float) -> tuple[float, int]:
        """max over y = 0..x of margin * y + discount * post[age, x - y] (post
        is 0 at the last age) and its smallest maximiser. At the margin and
        discount the tables were solved at this is a lookup; otherwise it is
        evaluated from `post`."""
        if discount == self.model.discount and margin == self.margin[view_state]:
            return (float(self.values[age, x, view_state]),
                    int(self.best_send[age, x, view_state]))
        vals = margin * np.arange(x + 1) + discount * self.post_slice(age, x, view_state)
        y = int(np.argmax(vals))
        return float(vals[y]), y


def build_du_tables(template: GopTemplate, view: ChannelView, discount: float,
                    price: np.ndarray) -> dict[int, DuValueTable]:
    """Per-DU tables at the given per-view-state price, keyed by du_id.

    The solve reads only a DU's distortion impact and maximum size, so each
    distinct (distortion_impact, max_size) is solved once; every du_id still
    gets its own SingleDuModel and its own copy of the arrays.
    """
    solved: dict[tuple[float, int], DuValueTable] = {}
    tables = {}
    for du in template.dus:
        model = SingleDuModel(du, template.window, view, discount)
        kind = (du.distortion_impact, du.max_size)
        if kind in solved:
            tables[du.du_id] = solved[kind].copy_for(model)
        else:
            tables[du.du_id] = solved[kind] = model.solve(price)
    return tables


# ---------------------------------------------------------------------------
# Decomposed sequential scheduling
# ---------------------------------------------------------------------------

def decomposed_schedule(context: Context, buffer: Sequence[int], view_state: int,
                        price: float | Sequence[float], tables: Mapping,
                        discount: float) -> tuple[ScheduleAction, list[int]]:
    """Sequential per-DU scheduling over the context DAG.

    Each round picks, among current roots (DUs whose parents are all
    scheduled), the DU and send count maximizing
    (1-delta) * (q - price) * y + delta * continuation(age, x - y), then
    removes that DU. Returns the assembled action and the processing order.
    `price` may be a scalar reused every round or a 1-d per-round sequence
    (list, tuple or ndarray; the last entry repeats). Ties: a candidate
    replaces the round's best only if it is larger by more than 1e-12, so
    lower send counts, then lower slot indices, win.

    Tables with a `best` method (DuValueTable) offer one candidate per DU,
    their best send; under a scalar price it is evaluated once per call and
    read off the solved tables at the solved margin. Other tables (anything
    with `continuation`, e.g. DuPdsLearner) offer every send y = 0..x.
    """
    n = len(context)
    sends = [0] * n
    order: list[int] = []
    if n == 0:
        return ScheduleAction(()), order
    per_round = not isinstance(price, (int, float)) and np.ndim(price) > 0
    if per_round and np.ndim(price) != 1:
        raise ModelError("price must be a scalar or a 1-d per-round sequence")
    children: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n                          # unscheduled parents per DU
    for p, c in context.edges:
        children[p].append(c)
        waiting[c] += 1

    def offers(i: int, lam: float) -> list[tuple[float, int]]:
        """DU i's (value, send) candidates in scan order."""
        slot = context.slots[i]
        tab = tables[slot.du.du_id]
        age = context.age_of(i)
        margin = (1.0 - discount) * (slot.du.distortion_impact - lam)
        x = buffer[i]
        lookup = getattr(tab, "best", None)
        if lookup is not None:
            return [lookup(age, x, view_state, margin, discount)]
        return [(margin * y + discount * tab.continuation(age, x - y, view_state), y)
                for y in range(x + 1)]

    cand = [None] * n if per_round else [offers(i, price) for i in range(n)]
    roots = [i for i in range(n) if not waiting[i]]          # ascending
    for k in range(n):
        best = None
        for i in roots:
            if per_round:
                cand[i] = offers(i, price[min(k, len(price) - 1)])
            for val, y in cand[i]:
                if best is None or val > best[0] + 1e-12:
                    best = (val, i, y)
        _, i, y = best
        sends[i] = y
        order.append(i)
        roots.remove(i)
        for c in children[i]:
            waiting[c] -= 1
            if not waiting[c]:
                insort(roots, c)
    return ScheduleAction(tuple(sends)), order


# ---------------------------------------------------------------------------
# Simple schedulers
# ---------------------------------------------------------------------------

def _fill(context: Context, buffer: Sequence[int], capacity: int,
          ranked: Sequence[int]) -> ScheduleAction:
    if capacity < 0:
        raise ModelError("capacity must be >= 0")
    sends = [0] * len(context)
    room = capacity
    for i in ranked:
        take = min(buffer[i], room)
        sends[i] = take
        room -= take
        if room == 0:
            break
    return ScheduleAction(tuple(sends))


def edf_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity in ascending deadline order; ties prefer higher impact."""
    ranked = sorted(range(len(context)),
                    key=lambda i: (context.slots[i].remaining,
                                   -context.slots[i].du.distortion_impact, i))
    return _fill(context, buffer, capacity, ranked)


def fifo_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity in arrival order (earlier GOP first, then DU id)."""
    ranked = sorted(range(len(context)),
                    key=lambda i: (context.slots[i].key[0], context.slots[i].key[1]))
    return _fill(context, buffer, capacity, ranked)


def hdf_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity by highest distortion impact; equal impacts fall back to
    deadline order."""
    ranked = sorted(range(len(context)),
                    key=lambda i: (-context.slots[i].du.distortion_impact,
                                   context.slots[i].remaining, i))
    return _fill(context, buffer, capacity, ranked)


SIMPLE_SCHEDULERS = {
    "edf": edf_schedule,
    "fifo": fifo_schedule,
    "hdf": hdf_schedule,
}


def packet_capacity(share: float, bandwidth: float, rate: float,
                    bits_per_packet: float) -> int:
    """Packets a user can push through its allocated bandwidth share."""
    return int(np.floor(share * bandwidth * rate / bits_per_packet + 1e-9))
