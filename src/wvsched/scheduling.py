"""Packet scheduling within one slot.

Two families: the decomposed scheduler, which sizes each DU's transmission
against its own per-DU continuation value, and the simple reference
schedulers (EDF, FIFO, HDF), each a static per-context rank in which `fill`
spends a fixed packet capacity.

The per-DU continuations of one template at one price are a single
`DuTables`: one backward induction over the template's DU kinds. A planned
decision at the solved price and discount is a lookup of its kinds'
`best_send` entries (`DuTables.solved_sends`,
`harness.DecomposedAgent.table_sends`); at any other price
`decomposed_response` evaluates it from slices of the layout-wide `post`.
Prices and discounts enter as floats and margins are float64, as in the
induction, so the two agree wherever the values are equal.

The induction solves each kind's rows alone, so agents priced alike share
it (`TableShare`): the decomposed agents of one `harness.make_agents` call
hold one share, and a refresh whose priced problem (window, view
transition, discount and price vector) equals one the share has just solved
for a layout holding all of the agent's kinds takes that solve's arrays, or
gathers its kinds' row blocks, instead of solving. Users on one common
channel at equal rates get equal price vectors, so a refresh round of such
users whose kinds are all among the first user's costs one induction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from wvsched.model import (
    Context,
    DuLayout,
    GopTemplate,
    ModelError,
    ScheduleAction,
    check_buffer,
)
from wvsched.mdp import ChannelView, checked_price

if TYPE_CHECKING:
    from wvsched.learning import DuPdsLearner


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
        return DuValueTable(values, post, best_send, margin[0])


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
    """One DU kind's solved tables: values[age, x, view], post[age,
    x_after, view], the smallest maximising send best_send[age, x, view] and
    the per-view margins the tables were solved at."""

    values: np.ndarray
    post: np.ndarray
    best_send: np.ndarray
    margin: np.ndarray


class DuTables:
    """`backward_induction` of a template's whole `du_layout` at one price.

    Holds the solved price (a list, one float per view state), discount,
    values[age, row, view], post[age, row, view], best_send[age, row, view]
    and margin[kind, view] over the layout's kind rows. Decisions read these
    layout-wide arrays. Indexed by du_id, it gives a `DuValueTable` with its
    own copies of its kind's rows, built on first access and then kept; no
    decision builds one.
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

    def solved_sends(self, context: Context, buffer: Sequence[int],
                     view_state: int) -> ScheduleAction:
        """`decomposed_schedule`'s action at the solved price of `view_state`
        and the solved discount, looked up; `context` must be one of the
        template's. Slot i sends best_send[age, row + x, view] at its
        `du_slot_rows` pair. A buffer outside the context's caps raises
        `ModelError`."""
        check_buffer(context, buffer)
        if self._sends is None:
            self._sends = self.best_send.transpose(2, 0, 1).tolist()   # [view][age][row]
        sends = self._sends[view_state]
        return ScheduleAction(tuple([sends[age][row + x] for (age, row), x in zip(
            self.template.du_slot_rows[context.phase], buffer)]))

    def __getitem__(self, du_id: int) -> DuValueTable:
        tab = self._tables.get(du_id)
        if tab is None:
            kind = self.layout.kind_of[du_id]
            rows = slice(self.layout.row_start[kind], self.layout.row_start[kind + 1])
            tab = self._tables[du_id] = DuValueTable(
                self.values[:, rows].copy(), self.post[:, rows].copy(),
                self.best_send[:, rows].copy(), self.margin[kind].copy())
        return tab


def build_du_tables(template: GopTemplate, view: ChannelView, discount: float,
                    price) -> DuTables:
    """Per-DU tables at the given per-view-state price, keyed by du_id.

    The solve reads only a DU's distortion impact and maximum size, so one
    `backward_induction` over the template's `du_layout` solves every
    (distortion_impact, max_size) kind. A price that is not one finite,
    nonnegative entry per view state raises `ModelError` (`checked_price`).
    """
    price = checked_price(view, price)
    return DuTables(template, view, discount, price.tolist(),
                    *backward_induction(template.du_layout, template.window, view, discount,
                                        price))


def priced_problem(window: int, view: ChannelView, discount: float,
                   price: np.ndarray) -> tuple:
    """What `backward_induction` reads besides the layout, exactly: the
    window, the discount's bits, the dtype, shape, strides and bytes of the
    view's transition (the strides choose the matrix product's kernel) and
    the price array's dtype, shape and bytes."""
    t = view.transition
    return (int(window), float(discount).hex(), t.dtype.str, t.shape, t.strides, t.tobytes(),
            price.dtype.str, price.shape, price.tobytes())


class TableShare:
    """The `DuTables` solved at each window's last priced problem, shared
    by the agents that would solve the same rows.

    `backward_induction` solves each kind's rows alone, so a kind's rows of
    one solve are those of any other solve at the same `priced_problem` that
    holds the kind. `lookup` answers a template at its window's kept problem
    from the first kept solve whose layout holds all of its kinds: with that
    solve's arrays if the kinds are equal, in equal order, else with a
    gather of its kinds' row blocks. `keep` records a new solve, dropping
    the kept ones of its window if its problem differs. Agents of one
    coordination on a common channel differ in window but not in view or
    discount, so a user of another window refreshed in between leaves a
    kept solve in place. Kinds match on their impact's exact bits, as a
    0.0 and a -0.0 impact give margins of different bytes.
    """

    def __init__(self):
        self._kept: dict[int, tuple[tuple, list[DuTables]]] = {}  # window -> problem, solves
        self._picks: dict[tuple[DuLayout, DuLayout], tuple | None] = {}

    def lookup(self, problem: tuple, template: GopTemplate, view: ChannelView,
               discount: float, price: np.ndarray) -> DuTables | None:
        """`build_du_tables(template, view, discount, price)`, whose
        `priced_problem` is `problem`, from a kept solve, or None if no kept
        solve holds it."""
        kept = self._kept.get(template.window)
        if kept is None or kept[0] != problem:
            return None
        for solved in kept[1]:
            pick = self._pick(solved.layout, template.du_layout)
            if pick is None:
                continue
            arrays = solved.values, solved.post, solved.best_send, solved.margin
            if pick:
                kinds, rows = pick
                arrays = (*(a.take(rows, axis=1) for a in arrays[:3]),
                          solved.margin.take(kinds, axis=0))
            return DuTables(template, view, discount, price.tolist(), *arrays)
        return None

    def keep(self, problem: tuple, tables: DuTables) -> DuTables:
        """Record `tables`, solved at `problem`, and return it."""
        kept = self._kept.get(tables.template.window)
        if kept is None or kept[0] != problem:
            kept = self._kept[tables.template.window] = (problem, [])
        kept[1].append(tables)
        return tables

    def _pick(self, solved: DuLayout, layout: DuLayout) -> tuple | None:
        """`layout`'s kinds and rows within `solved`: () if the kinds are
        equal, in equal order, None if one is missing. Kept per pair."""
        key = (solved, layout)
        if key not in self._picks:
            have = {(float(q).hex(), cap): k for k, (q, cap) in enumerate(solved.kinds)}
            want = [have.get((float(q).hex(), cap)) for q, cap in layout.kinds]
            if None in want:
                pick = None
            elif want == list(range(len(solved.kinds))):
                pick = ()
            else:
                kinds = np.array(want, dtype=np.intp)
                pick = kinds, np.concatenate([np.arange(solved.row_start[k],
                                                        solved.row_start[k + 1])
                                              for k in kinds])
            self._picks[key] = pick
        return self._picks[key]


# ---------------------------------------------------------------------------
# Decomposed scheduling
# ---------------------------------------------------------------------------

def decomposed_schedule(context: Context, buffer: Sequence[int], view_state: int,
                        price: float, tables: DuTables | Mapping[int, DuPdsLearner],
                        discount: float) -> ScheduleAction:
    """Per-DU scheduling at a scalar price.

    Each DU sends its own best y = 0..x of
    (1-delta) * (q - price) * y + delta * continuation(age, x - y), the
    smallest exact maximiser. Under a scalar price no DU's choice depends on
    another's, so the DAG order plays no part. A `DuTables` looks the action
    up at its solved price and discount on the template's own contexts, and
    evaluates it by `decomposed_response` elsewhere; learned tables answer
    each DU's `best`.
    """
    if isinstance(tables, DuTables):
        price, discount = float(price), float(discount)
        if (price == tables.price[view_state] and discount == tables.discount
                and context is tables.template.context(context.phase)):
            return tables.solved_sends(context, buffer, view_state)
        return decomposed_response(context, buffer, view_state, tables, discount)(price)
    sends = []
    for i, slot in enumerate(context.slots):
        margin = (1.0 - discount) * (slot.du.distortion_impact - price)
        _, y = tables[slot.du.du_id].best(context.age_of(i), buffer[i], view_state,
                                          margin, discount)
        sends.append(y)
    return ScheduleAction(tuple(sends))


@dataclass(slots=True)
class PriceResponse:
    """An agent's action in one slot state as a function of its per-packet
    price, with an array form for many prices at once.

    Called at one price, it gives the action (`at`). `totals(prices)` gives
    the action's packet total at each price of a float64 vector, by the
    scalar call's float operations element by element, so entry k equals
    `at(prices[k]).total`. `marginals()` gives the agent's marginal prices,
    one per packet it may send, each series after its running minimum: it
    sends about as many packets as it has marginal prices above the price.
    The count is exact where every series was non-increasing already (its
    value concave in the send) and ties do not fall on the price; it is a
    prediction elsewhere, so a caller checks it against `totals`.
    """

    at: Callable[[float], ScheduleAction]
    totals: Callable[[np.ndarray], np.ndarray]
    marginals: Callable[[], np.ndarray]

    def __call__(self, price: float) -> ScheduleAction:
        return self.at(price)


def decomposed_response(context: Context, buffer: Sequence[int], view_state: int,
                        tables: DuTables, discount: float) -> PriceResponse:
    """`decomposed_schedule` at this slot state as a function of the price.

    Slot i's continuations discount * post[age, row + x - y, view],
    y = 0..x, are one reversed slice of the layout-wide `post` at its DU
    kind's rows, padded with -inf past x. Each price then takes
    `backward_induction`'s operations for `best_send` on every row at once:
    y * margin + continuation, float64 margins from the layout's impacts,
    and the first maximiser; `totals` takes them at every price at once.
    Slot i's marginal price of its y-th packet, y = 1..x, is
    q + (cont_y - cont_{y-1}) / (1 - delta), each followed by the running
    minimum over y. A buffer outside the caps raises `ModelError`.
    """
    check_buffer(context, buffer)
    discount = float(discount)
    lay = tables.layout
    kinds = [lay.kind_of[slot.du.du_id] for slot in context.slots]
    width = max(buffer, default=0) + 1
    ys = np.arange(width)
    cont = np.zeros((len(buffer), width))
    post = tables.post[..., view_state]
    for i, (k, x) in enumerate(zip(kinds, buffer)):
        row = lay.row_start[k]
        cont[i, :x + 1] = post[context.age_of(i), row:row + x + 1][::-1]
    cont *= discount
    past = ys > np.array(buffer, dtype=np.int64)[:, None]
    cont[past] = -np.inf
    impacts = lay.impacts[kinds]
    keep = 1.0 - discount

    def at(price: float) -> ScheduleAction:
        margin = keep * (impacts - float(price))
        return ScheduleAction(tuple((margin[:, None] * ys + cont).argmax(axis=1).tolist()))

    def totals(prices: np.ndarray) -> np.ndarray:
        margin = keep * (impacts - prices[:, None])
        return (margin[:, :, None] * ys + cont).argmax(axis=2).sum(axis=1)

    def marginals() -> np.ndarray:
        gaps = np.diff(np.where(past, 0.0, cont), axis=1)     # no -inf - -inf
        mu = np.minimum.accumulate(impacts[:, None] + gaps / keep, axis=1)
        return mu[~past[:, 1:]]

    return PriceResponse(at, totals, marginals)


# ---------------------------------------------------------------------------
# Simple schedulers
# ---------------------------------------------------------------------------

def fill(buffer: Sequence[int], capacity: int, ranked: Sequence[int]) -> ScheduleAction:
    """Up to `capacity` packets of `buffer`, each slot in `ranked` order
    sending all it holds or what room is left."""
    if capacity < 0:
        raise ModelError("capacity must be >= 0")
    sends = [0] * len(buffer)
    room = capacity
    for i in ranked:
        take = min(buffer[i], room)
        sends[i] = take
        room -= take
        if room == 0:
            break
    return ScheduleAction(tuple(sends))


def fill_rows(buffers: np.ndarray, capacity: np.ndarray, ranked: Sequence[int]) -> np.ndarray:
    """`fill` of every row at once: row k of `buffers` (rows, slots) filled
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


# each simple scheduler is a fixed per-context rank that `fill` (or
# `fill_rows`) fills a capacity in; HDF's is `Context.impact_order`
SIMPLE_SCHEDULERS = {
    "edf": edf_rank,
    "fifo": fifo_rank,
    "hdf": Context.impact_order,
}


def packet_capacities(share: float, bandwidth: float, rates: np.ndarray,
                      bits_per_packet: float) -> np.ndarray:
    """Packets a user can push through its allocated bandwidth share, at
    each of `rates`."""
    return np.floor(share * bandwidth * rates / bits_per_packet + 1e-9).astype(np.int64)

