"""Packet scheduling within one slot.

Two families: the decomposed scheduler, which sizes each DU's transmission
against its own per-DU continuation value, and the simple reference
schedulers (EDF, FIFO, HDF) that fill a fixed packet capacity in a static
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from wvsched.model import Context, GopTemplate, ModelError, ScheduleAction
from wvsched.mdp import ChannelView


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
# Decomposed scheduling
# ---------------------------------------------------------------------------

def decomposed_schedule(context: Context, buffer: Sequence[int], view_state: int,
                        price: float, tables: Mapping,
                        discount: float) -> ScheduleAction:
    """Per-DU scheduling at a scalar price.

    Each DU sends its own best y = 0..x of
    (1-delta) * (q - price) * y + delta * continuation(age, x - y), the
    smallest exact maximiser, as `tables[du_id].best` reports it. Under a
    scalar price no DU's choice depends on another's, so the DAG order plays
    no part.
    """
    sends = []
    for i, slot in enumerate(context.slots):
        margin = (1.0 - discount) * (slot.du.distortion_impact - price)
        _, y = tables[slot.du.du_id].best(context.age_of(i), buffer[i], view_state,
                                          margin, discount)
        sends.append(y)
    return ScheduleAction(tuple(sends))


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


def fill_rows(buffers: np.ndarray, capacity: np.ndarray, ranked: Sequence[int]) -> np.ndarray:
    """`_fill` of every row at once: row k of `buffers` (rows, slots) filled
    in `ranked` order up to capacity[k], as the running sum in that order
    clipped to the capacity."""
    if (capacity < 0).any():
        raise ModelError("capacity must be >= 0")
    ranked = list(ranked)
    kept = np.minimum(np.cumsum(buffers[:, ranked], axis=1), capacity[:, None])
    sends = np.zeros_like(buffers)
    sends[:, ranked] = np.diff(kept, axis=1, prepend=0)
    return sends


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
    return _fill(context, buffer, capacity, context.impact_order())


SIMPLE_SCHEDULERS = {
    "edf": edf_schedule,
    "fifo": fifo_schedule,
    "hdf": hdf_schedule,
}


def packet_capacity(share: float, bandwidth: float, rate: float,
                    bits_per_packet: float) -> int:
    """Packets a user can push through its allocated bandwidth share."""
    return int(np.floor(share * bandwidth * rate / bits_per_packet + 1e-9))
