"""Packet scheduling within one slot.

Two families: the decomposed scheduler, which sizes each DU's transmission
against its own per-DU continuation value, and the simple reference
schedulers (EDF, FIFO, HDF) that fill a fixed packet capacity in a static
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from wvsched.model import Context, DuLayout, GopTemplate, ModelError, ScheduleAction
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
        """`backward_induction` of this DU's kind alone."""
        values, post, best_send, margin = backward_induction(
            DuLayout((self.du,)), self.window, self.view, self.discount, price)
        return DuValueTable(self, values, post, best_send, margin[0])


def backward_induction(layout: DuLayout, window: int, view: ChannelView,
                       discount: float, price) -> tuple[np.ndarray, ...]:
    """Backward induction over ages for every kind of `layout` at once, at a
    per-view-state price.

    Each age takes, over every cell (kind, x, y <= x) of the layout,
    q = y * margin + delta * post[age, x - y] with
    post[age] = values[age + 1] @ transition.T (0 at the last age), and the
    max of each row's cells. Returns values[age, row, view] (ages 0..window,
    values[window] == 0), post[age, row, view], the smallest exact maximiser
    best_send[age, row, view] (no tolerance on ties) and the per-kind margins
    margin[kind, view] = (1-delta)(impact - price).
    """
    delta = float(discount)
    n_rows, n_view = layout.row_start[-1], len(view)
    margin = (1.0 - delta) * (layout.impacts[:, None] - np.asarray(price))
    gain = layout.cell_y[:, None] * margin.take(layout.cell_kind, axis=0)
    values = np.zeros((window + 1, n_rows, n_view))
    post = np.zeros((window, n_rows, n_view))
    q = np.empty((window, len(gain), n_view))
    for age in range(window - 1, -1, -1):
        if age < window - 1:
            post[age] = values[age + 1] @ view.transition.T
        np.add(gain, delta * post[age].take(layout.cell_src, axis=0), out=q[age])
        values[age] = np.maximum.reduceat(q[age], layout.seg_start)
    hit = q == values[:window].take(layout.cell_row, axis=1)
    best_send = np.minimum.reduceat(np.where(hit, layout.cell_y[:, None], len(gain)),
                                    layout.seg_start, axis=1)
    return values, post, best_send, margin


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

    The solve reads only a DU's distortion impact and maximum size, so one
    `backward_induction` over the template's `du_layout` solves every
    (distortion_impact, max_size) kind. One gather per array then gives
    every DU its own rows, so each du_id gets its own SingleDuModel and
    arrays that share no element with another DU's.
    """
    layout = template.du_layout
    values, post, best_send, margin = backward_induction(
        layout, template.window, view, discount, price)
    values, post, best_send = (a.take(layout.du_rows, axis=1)
                               for a in (values, post, best_send))
    tables = {}
    for du, rows, du_margin in zip(template.dus, layout.du_slices,
                                   margin.take(layout.kind_of, axis=0)):
        tables[du.du_id] = DuValueTable(
            SingleDuModel(du, template.window, view, discount),
            values[:, rows], post[:, rows], best_send[:, rows], du_margin)
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


def decomposed_response(context: Context, buffer: Sequence[int], view_state: int,
                        tables: Mapping,
                        discount: float) -> Callable[[float], ScheduleAction]:
    """`decomposed_schedule` at this slot state as a function of the price.

    The continuations are gathered once, into one row per DU of
    discount * post_slice(...) padded with -inf past the DU's buffer; each
    price then takes `best`'s operations in its order on every row at once,
    and the first maximiser of a row is `best`'s smallest maximiser (also
    where `best` looks it up at the solved margin).
    """
    width = max(buffer, default=0) + 1
    cont = np.full((len(buffer), width), -np.inf)
    for i, slot in enumerate(context.slots):
        cont[i, :buffer[i] + 1] = discount * tables[slot.du.du_id].post_slice(
            context.age_of(i), buffer[i], view_state)
    impacts = np.array(context.impacts, dtype=float)
    ys = np.arange(width)
    keep = 1.0 - discount

    def at(price: float) -> ScheduleAction:
        margin = keep * (impacts - price)
        return ScheduleAction(tuple((margin[:, None] * ys + cont).argmax(axis=1).tolist()))

    return at


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


def edf_rank(context: Context) -> list[int]:
    """Ascending deadline; ties prefer higher impact, then position."""
    return sorted(range(len(context)),
                  key=lambda i: (context.slots[i].remaining,
                                 -context.slots[i].du.distortion_impact, i))


def fifo_rank(context: Context) -> list[int]:
    """Arrival order: earlier GOP first, then DU id."""
    return sorted(range(len(context)),
                  key=lambda i: (context.slots[i].key[0], context.slots[i].key[1]))


def edf_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity in `edf_rank` order."""
    return _fill(context, buffer, capacity, edf_rank(context))


def fifo_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity in `fifo_rank` order."""
    return _fill(context, buffer, capacity, fifo_rank(context))


def hdf_schedule(context: Context, buffer: Sequence[int], capacity: int) -> ScheduleAction:
    """Fill capacity by highest distortion impact; equal impacts fall back to
    deadline order."""
    return _fill(context, buffer, capacity, context.impact_order())


SIMPLE_SCHEDULERS = {
    "edf": edf_schedule,
    "fifo": fifo_schedule,
    "hdf": hdf_schedule,
}

# the fixed per-context rank each simple scheduler fills in, for `fill_rows`
SCHEDULER_RANKS = {
    edf_schedule: edf_rank,
    fifo_schedule: fifo_rank,
    hdf_schedule: Context.impact_order,
}


def packet_capacities(share: float, bandwidth: float, rates: np.ndarray,
                      bits_per_packet: float) -> np.ndarray:
    """Packets a user can push through its allocated bandwidth share, at
    each of `rates`."""
    return np.floor(share * bandwidth * rates / bits_per_packet + 1e-9).astype(np.int64)


def packet_capacity(share: float, bandwidth: float, rate: float,
                    bits_per_packet: float) -> int:
    """`packet_capacities` at one rate."""
    return int(packet_capacities(share, bandwidth, rate, bits_per_packet))
