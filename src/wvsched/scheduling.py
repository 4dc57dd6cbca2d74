"""Packet scheduling within one slot.

Two families: the decomposed scheduler, which sizes each DU's transmission
against its own per-DU continuation value, and the simple reference
schedulers (EDF, FIFO, HDF) that fill a fixed packet capacity in a static
order.

The per-DU continuations of one template at one price are a single
`DuTables`: one backward induction over the template's DU kinds. At the
price they were solved at, a DU's decomposed send is its kind's
`best_send` entry, so a decision there is a lookup (`decomposed_schedule`,
`harness.DecomposedAgent.table_sends`); at any other price it is
evaluated from the post-decision values.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wvsched.model import (
    DOUBLES,
    Context,
    DuLayout,
    GopTemplate,
    ModelError,
    ScheduleAction,
)
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


class DuTables(Mapping):
    """`backward_induction` of a template's whole `du_layout` at one price,
    as the du_id -> `DuValueTable` mapping the per-DU scheduler reads.

    Holds the solved price (a list, one float per view state), discount,
    values[age, row, view], post[age, row, view], best_send[age, row, view]
    and margin[kind, view] over the layout's kind rows. A DU's table is
    built on first access, with its own copies of its kind's rows, and then
    kept: no element is shared between two DUs, and a caller that only
    looks sends up (`solved_sends`) builds no per-DU object.
    """

    def __init__(self, template: GopTemplate, view: ChannelView, discount: float,
                 price: list[float], values: np.ndarray, post: np.ndarray,
                 best_send: np.ndarray, margin: np.ndarray):
        self.template, self.view, self.discount = template, view, float(discount)
        self.layout = template.du_layout
        self.price = price
        self.values, self.post, self.best_send, self.margin = values, post, best_send, margin
        self._tables: dict[int, DuValueTable] = {}
        self._sends: list | None = None

    def exact_at(self, discount) -> bool:
        """Whether, at a solved price and `discount`, every DU's margin in
        `decomposed_schedule`'s scalar arithmetic is its solved margin: the
        discount is the solved one, and it and every impact is a double or
        an int (`model.DOUBLES`)."""
        return type(discount) in DOUBLES and discount == self.discount and self.layout.exact

    def solved_sends(self, context: Context, buffer: Sequence[int], view_state: int,
                     price, discount) -> ScheduleAction | None:
        """`decomposed_schedule`'s action, looked up, where `price` (a double
        or an int) is the solved price of `view_state`, `exact_at(discount)`
        holds and `context` is the template's: there every DU's margin is
        the solved one, at which `DuValueTable.best` looks up too. Slot i
        sends best_send[age, row + x, view] at its `du_slot_rows` pair.
        Else None."""
        if (type(price) not in DOUBLES or price != self.price[view_state]
                or not self.exact_at(discount)
                or context is not self.template.context(context.phase)):
            return None
        if self._sends is None:
            self._sends = self.best_send.transpose(2, 0, 1).tolist()   # [view][age][row]
        sends = self._sends[view_state]
        return ScheduleAction(tuple([sends[age][row + x] for (age, row), x in zip(
            self.template.du_slot_rows[context.phase], buffer, strict=True)]))

    def __getitem__(self, du_id: int) -> DuValueTable:
        tab = self._tables.get(du_id)
        if tab is None:
            kind = self.layout.kind_of[du_id]
            rows = slice(self.layout.row_start[kind], self.layout.row_start[kind + 1])
            tab = self._tables[du_id] = DuValueTable(
                SingleDuModel(self.template.du(du_id), self.template.window, self.view,
                              self.discount),
                self.values[:, rows].copy(), self.post[:, rows].copy(),
                self.best_send[:, rows].copy(), self.margin[kind].copy())
        return tab

    def __iter__(self):
        return iter(self.layout.kind_of)

    def __len__(self) -> int:
        return len(self.layout.kind_of)


def build_du_tables(template: GopTemplate, view: ChannelView, discount: float,
                    price) -> DuTables:
    """Per-DU tables at the given per-view-state price, keyed by du_id.

    The solve reads only a DU's distortion impact and maximum size, so one
    `backward_induction` over the template's `du_layout` solves every
    (distortion_impact, max_size) kind. A price that is not one finite,
    nonnegative entry per view state raises `ModelError`.
    """
    price = np.asarray(price, dtype=float)
    if price.shape != (len(view),):
        raise ModelError(f"price vector must have shape ({len(view)},); got shape {price.shape}")
    listed = price.tolist()
    if not all(0.0 <= p < math.inf for p in listed):
        raise ModelError(f"prices must be finite and nonnegative; got {listed}")
    return DuTables(template, view, discount, listed,
                    *backward_induction(template.du_layout, template.window, view, discount,
                                        price))


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
    no part. At the price a `DuTables` was solved at, `best` would look
    every send up, so the whole action is looked up at once
    (`DuTables.solved_sends`), with no per-DU table.
    """
    if isinstance(tables, DuTables):
        act = tables.solved_sends(context, buffer, view_state, price, discount)
        if act is not None:
            return act
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
