"""Video traffic, channel, and payoff model for multi-user wireless transmission.

A video stream is a periodic sequence of GOPs; each GOP is a fixed set of
data units (DUs) with per-DU distortion impact, deadline, random size, and
dependency DAG. In each slot a user sees a context (the DUs whose deadlines
fall inside the scheduling time window), a buffer of remaining packets per
active DU, and a Markov channel state. Actions are per-DU packet counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from numbers import Integral
from operator import contains, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

QUALITY_EPS = 1e-9


class ModelError(ValueError):
    """Raised when a template, channel, or scenario violates an invariant."""


def _require_integer(value, what: str) -> None:
    """Raise `ModelError` naming `what` unless `value` is an integer
    (`numbers.Integral`, numpy's too, but not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ModelError(f"{what} must be an integer; got {value!r}")


def categorical_cdf(probs: Sequence[float]) -> np.ndarray:
    """Normalised cumulative sums of a PMF, as `Generator.choice` builds them."""
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw from a `categorical_cdf`: the same index, from the
    same single `rng.random()`, as `rng.choice(len(cdf), p=probs)`."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def uniforms(rng: np.random.Generator, k: int) -> Sequence[float]:
    """k uniforms from one generator call: the same doubles, and the same
    generator state after, as k `rng.random()` calls. One scalar call when
    k = 1 (cheaper than an array), none when k = 0."""
    if k == 1:
        return (rng.random(),)
    return rng.random(k).tolist() if k else ()


# ---------------------------------------------------------------------------
# Traffic templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataUnitSpec:
    """One DU of the GOP template.

    distortion_impact is per transmitted packet; deadline_offset counts slots
    from GOP start; size_pmf maps packet counts to probabilities.
    """

    du_id: int
    name: str
    distortion_impact: float
    deadline_offset: int
    size_pmf: tuple[tuple[int, float], ...]
    parents: tuple[int, ...] = ()

    def __post_init__(self):
        _require_integer(self.du_id, "du_id")
        _require_integer(self.deadline_offset, f"du {self.du_id}: deadline_offset")
        for v, _ in self.size_pmf:
            _require_integer(v, f"du {self.du_id}: a size_pmf size")
        for pid in self.parents:
            _require_integer(pid, f"du {self.du_id}: a parent")
        pmf = tuple(sorted((int(v), float(p)) for v, p in self.size_pmf))
        object.__setattr__(self, "size_pmf", pmf)
        if not (math.isfinite(self.distortion_impact) and self.distortion_impact >= 0):
            raise ModelError(f"du {self.du_id}: distortion_impact must be finite and >= 0")
        if self.deadline_offset < 0:
            raise ModelError(f"du {self.du_id}: deadline_offset must be >= 0")
        if not pmf:
            raise ModelError(f"du {self.du_id}: size_pmf is empty")
        if any(v < 0 for v, _ in pmf):
            raise ModelError(f"du {self.du_id}: size_pmf has negative support")
        if not all(math.isfinite(p) and p >= 0 for _, p in pmf):
            raise ModelError(f"du {self.du_id}: size_pmf has a negative or non-finite "
                             "probability")
        if len({v for v, _ in pmf}) != len(pmf):
            raise ModelError(f"du {self.du_id}: size_pmf has duplicate values")
        total = sum(p for _, p in pmf)
        if abs(total - 1.0) > 1e-9:
            raise ModelError(f"du {self.du_id}: size_pmf sums to {total!r}, expected 1")

    @cached_property
    def max_size(self) -> int:
        return max(v for v, _ in self.size_pmf)

    @cached_property
    def mean_size(self) -> float:
        return sum(v * p for v, p in self.size_pmf)

    @cached_property
    def size_cdf(self) -> list[float]:
        """The `categorical_cdf` of the sizes as a list: `bisect_right` on it
        picks the index `searchsorted(side="right")` would, without numpy's
        per-call overhead."""
        return categorical_cdf([p for _, p in self.size_pmf]).tolist()

    def size_at(self, u: float) -> int:
        """The size one uniform draw `u` in [0, 1) maps to."""
        return self.size_pmf[bisect_right(self.size_cdf, u)][0]

    def sample_size(self, rng: np.random.Generator) -> int:
        return self.size_at(rng.random())


@dataclass(frozen=True)
class ContextSlot:
    """A DU instance active in a context.

    key identifies the instance across consecutive slots: (gop_offset, du_id)
    relative to the GOP containing the current slot. remaining is the number
    of slots left before the deadline (0 = expires at the end of this slot).
    """

    key: tuple[int, int]
    du: DataUnitSpec
    remaining: int


class Context:
    """The set of DUs eligible for transmission at one GOP phase.

    Contexts are interned per (template, phase); identity comparison is safe.
    `names` and `impacts` hold each slot's DU name and distortion impact,
    `sizes` the range(max_size + 1) of buffers it may hold.
    """

    __slots__ = ("phase", "slots", "window", "names", "impacts", "sizes", "_index",
                 "_impact_order")

    def __init__(self, phase: int, slots: tuple[ContextSlot, ...], window: int):
        self.phase = phase
        self.slots = slots
        self.window = window
        self.names = tuple(s.du.name for s in slots)
        self.impacts = tuple(s.du.distortion_impact for s in slots)
        self.sizes = tuple(range(s.du.max_size + 1) for s in slots)
        self._index = {s.key: i for i, s in enumerate(slots)}
        self._impact_order = tuple(sorted(
            range(len(slots)),
            key=lambda i: (-slots[i].du.distortion_impact, slots[i].remaining, i)))

    def __len__(self) -> int:
        return len(self.slots)

    def index_of(self, key: tuple[int, int]) -> int:
        return self._index[key]

    def age_of(self, i: int) -> int:
        return self.window - 1 - self.slots[i].remaining

    def impact_order(self) -> tuple[int, ...]:
        """Slot indices by descending impact, then nearest deadline, then
        position: the order in which trims keep and fills add packets."""
        return self._impact_order

    def __repr__(self) -> str:
        names = ",".join(f"{s.du.name}@{s.remaining}" for s in self.slots)
        return f"Context(phase={self.phase}, [{names}])"


class DuLayout:
    """DUs grouped by (distortion impact, max size) kind and laid out as one
    flat triangle, so that one backward induction solves every kind.

    Rows are (kind, buffer x) pairs: kind k's x = 0..cap sit at rows
    row_start[k] + x. Cells are (kind, x, send y <= x) triples: row r's
    y = 0..x sit at cells seg_start[r] + y. Per cell, `cell_y` is its send,
    `cell_kind` its kind, `cell_row` its row and `cell_src` the row of the
    buffer x - y it leaves. `kind_of[du_id]` is the kind of DU du_id, in the
    DUs' order. Nothing here depends on prices, channel views or the discount.
    """

    __slots__ = ("kinds", "kind_of", "impacts", "row_start", "seg_start",
                 "cell_y", "cell_kind", "cell_row", "cell_src")

    def __init__(self, dus: Sequence[DataUnitSpec]):
        index: dict[tuple[float, int], int] = {}
        self.kind_of = {du.du_id: index.setdefault((du.distortion_impact, du.max_size),
                                                   len(index))
                        for du in dus}
        self.kinds = tuple(index)
        caps = np.array([cap for _, cap in self.kinds], dtype=np.intp)
        self.impacts = np.array([q for q, _ in self.kinds], dtype=float)
        self.row_start = np.concatenate(([0], np.cumsum(caps + 1)))
        xs = np.concatenate([np.arange(cap + 1) for cap in caps])
        self.seg_start = np.concatenate(([0], np.cumsum(xs + 1)[:-1]))
        self.cell_row = np.repeat(np.arange(len(xs)), xs + 1)
        self.cell_y = np.arange(len(self.cell_row)) - self.seg_start[self.cell_row]
        self.cell_kind = np.repeat(np.arange(len(caps)), caps + 1)[self.cell_row]
        self.cell_src = self.cell_row - self.cell_y


# most (phase, buffer, sends) steps one template memoises: about 10 MB at the
# ~630 bytes an entry holds, against under 2,000 entries in the perfbench
# workloads and 85,000 after 120,000 slots of random sends on illustration-2user
TRANSITION_MEMO = 1 << 14


class GopTemplate:
    """Periodic GOP structure: DUs, period T, and scheduling time window W."""

    def __init__(self, dus: Sequence[DataUnitSpec], period: int, window: int):
        _require_integer(period, "gop.period")
        _require_integer(window, "gop.window")
        self.dus = tuple(dus)
        self.period = int(period)
        self.window = int(window)
        self._by_id = {du.du_id: du for du in self.dus}
        self._validate()
        self._contexts: list[Context] = [self._build_context(p) for p in range(self.period)]
        self._steps: list[ContextStep] = [self._build_step(p) for p in range(self.period)]
        self._transitions: dict[tuple, Transition] = {}

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if self.period < 1:
            raise ModelError("gop.period must be >= 1")
        if self.window < 1:
            raise ModelError("gop.window must be >= 1")
        if not self.dus:
            raise ModelError("gop.dus is empty")
        if len(self._by_id) != len(self.dus):
            raise ModelError("gop.dus contains duplicate ids")
        max_deadline = max(du.deadline_offset for du in self.dus)
        if self.period < max_deadline:
            raise ModelError(
                f"gop.period={self.period} is below the largest deadline offset {max_deadline}")
        for du in self.dus:
            for pid in du.parents:
                if pid not in self._by_id:
                    raise ModelError(f"du {du.du_id}: unknown parent {pid}")
                parent = self._by_id[pid]
                if du.deadline_offset < parent.deadline_offset:
                    raise ModelError(
                        f"du {du.du_id}: deadline {du.deadline_offset} precedes "
                        f"parent {pid} deadline {parent.deadline_offset}")
                if du.distortion_impact > parent.distortion_impact + QUALITY_EPS:
                    raise ModelError(
                        f"du {du.du_id}: distortion impact {du.distortion_impact} exceeds "
                        f"parent {pid} impact {parent.distortion_impact}")
                if du.deadline_offset - parent.deadline_offset >= self.window:
                    raise ModelError(
                        f"du {du.du_id}: window {self.window} too short for dependency on "
                        f"{pid} (deadline gap {du.deadline_offset - parent.deadline_offset})")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm; report one cycle member list on failure.
        indeg = {du.du_id: len(du.parents) for du in self.dus}
        queue = [i for i, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            nid = queue.pop()
            seen += 1
            for du in self.dus:
                if nid in du.parents:
                    indeg[du.du_id] -= 1
                    if indeg[du.du_id] == 0:
                        queue.append(du.du_id)
        if seen != len(self.dus):
            cycle = sorted(i for i, d in indeg.items() if d > 0)
            raise ModelError(f"gop.dus dependency graph has a cycle among ids {cycle}")

    # -- context construction ----------------------------------------------

    def _build_context(self, phase: int) -> Context:
        slots = []
        for du in self.dus:
            # GOP offsets o with o*T + d in [phase, phase + W)
            lo = math.ceil((phase - du.deadline_offset) / self.period)
            hi = math.ceil((phase + self.window - du.deadline_offset) / self.period)
            for o in range(lo, hi):
                remaining = o * self.period + du.deadline_offset - phase
                slots.append(ContextSlot(key=(o, du.du_id), du=du, remaining=remaining))
        pos = {du.du_id: i for i, du in enumerate(self.dus)}
        slots.sort(key=lambda s: (s.key[0], pos[s.key[1]]))
        return Context(phase, tuple(slots), self.window)

    def _build_step(self, phase: int) -> "ContextStep":
        cur = self._contexts[phase]
        nxt = self._contexts[(phase + 1) % self.period]
        shift = -1 if phase + 1 == self.period else 0
        survivors, expiring = [], []
        matched = set()
        for i, slot in enumerate(cur.slots):
            if slot.remaining == 0:
                expiring.append(i)
                continue
            nkey = (slot.key[0] + shift, slot.key[1])
            j = nxt.index_of(nkey)
            survivors.append((i, j))
            matched.add(j)
        entering = tuple(j for j in range(len(nxt.slots)) if j not in matched)
        step = ContextStep(tuple(survivors), tuple(expiring), entering)
        _check_step(cur, nxt, step)
        return step

    # -- public API ---------------------------------------------------------

    def context(self, phase: int) -> Context:
        return self._contexts[phase % self.period]

    def step(self, phase: int) -> "ContextStep":
        return self._steps[phase % self.period]

    def du(self, du_id: int) -> DataUnitSpec:
        return self._by_id[du_id]

    @cached_property
    def du_layout(self) -> DuLayout:
        """The `DuLayout` of this template's DUs, built on first use."""
        return DuLayout(self.dus)

    @cached_property
    def du_slot_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per phase, each context slot's (age, first `du_layout` row of its
        DU's kind), built on first use."""
        lay = self.du_layout
        return tuple(tuple((ctx.age_of(i), int(lay.row_start[lay.kind_of[slot.du.du_id]]))
                           for i, slot in enumerate(ctx.slots))
                     for ctx in self._contexts)

    @cached_property
    def size_draws(self) -> SizeDraws:
        """The `SizeDraws` of this template's slot steps, built on first use."""
        return SizeDraws(self)

    def transition(self, context: Context, buffer: tuple[int, ...],
                   sends: tuple[int, ...]) -> "Transition":
        """The deterministic part of one slot step from (context, buffer,
        sends), memoised on (phase, buffer, sends).

        The first time a key is seen the step is computed and checked: the
        context is this template's, the buffer fits the context's size caps
        and the sends fit the buffer (every packet is then sent, kept or
        dropped, since each phase's `ContextStep` partitions the slots; see
        `_check_step`). A key that fails raises `ModelError` and is not
        stored, so it raises again on every call. The memo holds at most
        `TRANSITION_MEMO` keys; past that a new key is built and checked on
        every call.
        """
        key = (context.phase, buffer, sends)
        move = self._transitions.get(key)
        if move is None:
            move = self._build_transition(context, buffer, sends)
            if len(self._transitions) < TRANSITION_MEMO:
                self._transitions[key] = move
        return move

    def _build_transition(self, context: Context, buffer: tuple[int, ...],
                          sends: tuple[int, ...]) -> "Transition":
        phase = context.phase
        if context is not self.context(phase):
            raise ModelError(f"context {context!r} is not this template's")
        check_buffer(context, buffer)
        _check_sends(buffer, sends)
        step = self.step(phase)
        nxt = self.context(phase + 1)
        left = [x - y for x, y in zip(buffer, sends)]
        kept = [0] * len(nxt)
        for i, j in step.survivors:
            kept[j] = left[i]
        dropped = tuple((context.slots[i].key, left[i]) for i in step.expiring if left[i] > 0)
        entering = tuple((j, nxt.slots[j].du, nxt.slots[j].key) for j in step.entering)
        return Transition(nxt, tuple(kept), entering, dropped)

    @property
    def total_impact(self) -> float:
        """Expected distortion impact carried by one GOP (q * mean size summed)."""
        return sum(du.distortion_impact * du.mean_size for du in self.dus)


class SizeDraws:
    """Which size CDF each uniform of a template's slot step feeds.

    The step from phase p draws counts[p] uniforms, one per DU entering at
    p + 1 in slot order. `breaks` is the sorted union of every entering
    DU's `size_cdf` breakpoints. A uniform u falls in bucket
    `breaks.searchsorted(u, side="right")`, and within a bucket
    `bisect_right` on each of those CDFs is constant, so the j-th draw's
    size from any u in bucket b is sizes[rows[j, p] + b]: its DU's
    `size_at(u)`. Lanes j past counts[p] read a row of zeros.
    """

    __slots__ = ("counts", "breaks", "rows", "sizes", "lanes")

    def __init__(self, template: GopTemplate):
        steps = [[template.context(p + 1).slots[j].du for j in template.step(p).entering]
                 for p in range(template.period)]
        dus = [du for step in steps for du in step]
        self.counts = np.array([len(step) for step in steps], dtype=np.int64)
        self.breaks = np.unique(np.concatenate([du.size_cdf for du in dus]))
        lower = np.concatenate(([-np.inf], self.breaks[:-1]))   # each bucket's least u
        self.sizes = np.concatenate([np.array([v for v, _ in du.size_pmf])[
            np.searchsorted(du.size_cdf, lower, side="right")] for du in dus]
            + [np.zeros(len(lower), dtype=np.int64)])
        width = int(self.counts.max())
        self.rows = np.full((width, template.period), len(dus) * len(lower), dtype=np.int64)
        first = 0
        for p, step in enumerate(steps):
            self.rows[:len(step), p] = np.arange(first, first + len(step)) * len(lower)
            first += len(step)
        self.lanes = np.arange(width)[:, None]


@dataclass(frozen=True)
class ContextStep:
    """Slot-index bookkeeping for the deterministic context shift p -> p+1."""

    survivors: tuple[tuple[int, int], ...]  # (index now, index next)
    expiring: tuple[int, ...]               # indices whose deadline passes now
    entering: tuple[int, ...]               # next-context indices drawing fresh sizes


def _check_step(cur: Context, nxt: Context, step: ContextStep) -> None:
    """Each slot of `cur` either survives into its own slot of `nxt` or
    expires, and every other slot of `nxt` enters, so a step sends, keeps or
    drops each packet of any buffer exactly once."""
    sources = sorted([i for i, _ in step.survivors] + list(step.expiring))
    targets = sorted([j for _, j in step.survivors] + list(step.entering))
    if sources != list(range(len(cur))) or targets != list(range(len(nxt))):
        raise ModelError(f"phase {cur.phase}: {step} does not move each slot exactly once")


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def transmit_energy(gain_to_noise: float, packets: int) -> float:
    """Energy to push `packets` through a channel with gain |h|^2/sigma^2."""
    return (2.0 ** packets - 1.0) / gain_to_noise


class ChannelModel:
    """Finite-state Markov channel with per-state rate and gain-to-noise."""

    def __init__(self, names: Sequence[str], gain_to_noise: Sequence[float],
                 rate: Sequence[float], transition: Sequence[Sequence[float]]):
        self.names = tuple(str(n) for n in names)
        self.gain = np.asarray(gain_to_noise, dtype=float)
        self.rate = np.asarray(rate, dtype=float)
        n = len(self.names)
        try:
            self.transition = np.asarray(transition, dtype=float)
        except ValueError as exc:        # ragged rows
            raise ModelError(f"channel.transition must be {n}x{n}") from exc
        if self.gain.shape != (n,) or self.rate.shape != (n,):
            raise ModelError("channel: gain_to_noise and rate must match states")
        if self.transition.shape != (n, n):
            raise ModelError(f"channel.transition must be {n}x{n}")
        if not np.all(np.isfinite(self.rate) & (self.rate > 0)):
            raise ModelError("channel.rate entries must be finite and > 0")
        if not np.all(np.isfinite(self.gain) & (self.gain > 0)):
            raise ModelError("channel.gain_to_noise entries must be finite and > 0")
        if not np.all(np.isfinite(self.transition) & (self.transition >= 0)):
            raise ModelError("channel.transition has negative or non-finite entries")
        rows = self.transition.sum(axis=1)
        bad = np.where(np.abs(rows - 1.0) > 1e-9)[0]
        if bad.size:
            raise ModelError(
                f"channel.transition row {bad[0]} sums to {rows[bad[0]]!r}, expected 1")

    def __len__(self) -> int:
        return len(self.names)

    def energy(self, h: int, packets: int) -> float:
        return transmit_energy(float(self.gain[h]), packets)

    def closed_classes(self) -> int:
        """How many closed communicating classes the chain has. `reach` is
        the reflexive, transitive closure of the positive transitions
        (Warshall's algorithm); a state is in a closed class if every state
        it reaches reaches it back, and that class is then its row of
        `reach`, counted once at its first state."""
        n = len(self)
        reach = (self.transition > 0) | np.eye(n, dtype=bool)
        for k in range(n):
            reach |= reach[:, k:k + 1] & reach[k:k + 1]
        closed = (reach <= reach.T).all(axis=1)
        return int((closed & (reach.argmax(axis=1) == np.arange(n))).sum())

    def stationary(self) -> np.ndarray:
        """Stationary distribution of the channel chain.

        Solves pi (P - I) = 0 with the normalization row appended, which also
        handles periodic chains. The law is unique only on a chain with one
        closed class; each closed class of more has a law of its own, so a
        chain with more than one raises `ModelError` naming how many.
        """
        n = len(self)
        closed = self.closed_classes()
        if closed > 1:
            raise ModelError(f"channel chain has {closed} closed classes, so no unique "
                             "stationary law")
        a = np.vstack([(self.transition.T - np.eye(n)), np.ones((1, n))])
        b = np.concatenate([np.zeros(n), [1.0]])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    @cached_property
    def transition_cdf(self) -> list[list[float]]:
        """Each row's `categorical_cdf` as a list, for `bisect_right`."""
        return [categorical_cdf(row).tolist() for row in self.transition]

    @cached_property
    def draw_breaks(self) -> np.ndarray:
        """The sorted union of every row's `transition_cdf` breakpoints. A
        uniform's bucket, `searchsorted(u, side="right")` on it, fixes the
        next state from every current state: `bisect_right` on any row is
        constant within a bucket."""
        return np.unique(np.concatenate(self.transition_cdf))

    @cached_property
    def stationary_cdf(self) -> np.ndarray:
        return categorical_cdf(self.stationary())


def check_common_chain(channels: Sequence[ChannelModel],
                       names: Sequence[str] | None = None) -> None:
    """Raise ModelError unless every channel runs the first one's chain: as
    many states and equal transitions, entry for entry. A common channel is
    simulated on the first chain alone, so a chain that differs, by however
    little, would be dropped without a word. `names` name the channels in
    the message (else their positions)."""
    first = channels[0]
    for k, c in enumerate(channels[1:], 1):
        if len(c) != len(first) or not np.array_equal(c.transition, first.transition):
            who = f"user {names[k]!r}" if names else f"channel {k}"
            raise ModelError("common channel correlation requires identical channel chains; "
                             f"{who}'s chain differs from the first user's")


class JointChannel:
    """The tuple of user channel states, run on `chains`: user i's state is
    that of chain `chain_of[i]`. A common channel is one chain that every
    user reads; independent channels are one chain per user. A step draws
    one uniform per chain."""

    def __init__(self, channels: Sequence[ChannelModel], correlation: str = "independent"):
        if correlation not in ("independent", "common"):
            raise ModelError(f"unknown channel correlation {correlation!r}")
        self.channels = list(channels)
        if not self.channels:
            raise ModelError("a joint channel needs at least one channel")
        self.correlation = correlation
        if correlation == "common":
            check_common_chain(self.channels)
            self.chains, self.chain_of = self.channels[:1], (0,) * len(self.channels)
        else:
            self.chains, self.chain_of = self.channels, tuple(range(len(self.channels)))

    @cached_property
    def _state_of(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each tuple of chain states (itertools.product order) to its joint state."""
        return {hs: tuple(hs[k] for k in self.chain_of)
                for hs in product(*(range(len(c)) for c in self.chains))}

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], list[list[float]]]:
        """Each joint state's row of each chain's `transition_cdf`."""
        cdfs = [c.transition_cdf for c in self.chains]
        return {s0: [cdf[h] for cdf, h in zip(cdfs, hs)] for hs, s0 in self._state_of.items()}

    def initial(self, rng: np.random.Generator) -> tuple[int, ...]:
        """A joint state drawn from the chains' stationary laws, one draw each."""
        return self._state_of[tuple(draw(c.stationary_cdf, rng) for c in self.chains)]

    def step(self, s0: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """The next joint state, from one `uniforms` call over the chains:
        the states that a scalar `rng.choice` draw from each chain's
        transition row would give."""
        return self.next_state(s0, iter(uniforms(rng, len(self.chains))))

    def next_state(self, s0: tuple[int, ...], us: Iterator[float]) -> tuple[int, ...]:
        """The joint state after `s0` that the next uniform of `us` per chain
        picks, each by `bisect_right` on its row's transition CDF."""
        return self._state_of[tuple(map(bisect_right, self._rows[s0], us))]

    def all_states(self) -> list[tuple[int, ...]]:
        """Every joint state, its chains' states in itertools.product order."""
        return list(self._state_of.values())

    @cached_property
    def transition(self) -> np.ndarray:
        """The transition matrix over `all_states()`: the Kronecker product of
        the chains, a new array."""
        return reduce(np.kron, (c.transition for c in self.chains), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# States and actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UserState:
    """Per-user decision state: context, per-DU buffer, own channel state.
    Contexts are interned, so states compare them by identity."""

    context: Context
    buffer: tuple[int, ...]
    channel: int

    def __post_init__(self):
        check_buffer(self.context, self.buffer)


@dataclass(frozen=True, slots=True)
class ScheduleAction:
    """Packets to send per active DU, aligned with the context slot order."""

    sends: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.sends)


def check_buffer(context: Context, buffer: Sequence[int]) -> None:
    """Raise `ModelError` unless `buffer` holds one entry per slot of
    `context`, each an integer in its slot's `sizes`, [0, max_size] of the
    slot's DU. A float is refused even where it equals such an integer."""
    if (len(buffer) == len(context) and all(map(contains, context.sizes, buffer))
            and set(map(type, buffer)) <= {int}):
        return
    if len(buffer) != len(context):
        raise ModelError("buffer length does not match context")
    for x, slot, sizes in zip(buffer, context.slots, context.sizes):
        if not (isinstance(x, Integral) and x in sizes):
            what = "not an integer in" if 0 <= x <= slot.du.max_size else "outside"
            raise ModelError(
                f"buffer for {slot.du.name} is {x}, {what} [0, {slot.du.max_size}]")


def check_buffer_rows(context: Context, buffers: np.ndarray) -> None:
    """`check_buffer` of every row of `buffers` (rows, slots), raised at the
    first row that fails; an array of other than integers raises."""
    if buffers.dtype.kind not in "iu":
        raise ModelError(f"buffer rows must be integers, not {buffers.dtype}")
    sizes = [len(r) for r in context.sizes]
    if buffers.shape[1:] != (len(sizes),) or not ((buffers >= 0) & (buffers < sizes)).all():
        for row in np.atleast_2d(buffers).tolist():
            check_buffer(context, row)


def _check_sends(buffer: Sequence[int], sends: Sequence[int]) -> None:
    if len(sends) != len(buffer):
        raise ModelError("action length does not match context")
    for y, x in zip(sends, buffer):
        if y < 0 or y > x:
            raise ModelError(f"action sends {y} from a buffer of {x}")


def effective_quality_floor(context: Context, buffer: Sequence[int], min_quality: float) -> float:
    """Clamp the quality requirement to the best achievable in this state."""
    achievable = sum(map(mul, context.impacts, buffer))
    return min(min_quality, achievable)


def iter_actions(context: Context, buffer: Sequence[int],
                 min_quality: float = 0.0) -> Iterator[ScheduleAction]:
    """All feasible actions, in lexicographically ascending send order."""
    floor = effective_quality_floor(context, buffer, min_quality)
    for sends in product(*(range(x + 1) for x in buffer)):
        if sum(map(mul, context.impacts, sends)) >= floor - QUALITY_EPS:
            yield ScheduleAction(sends)


def slot_payoff(impacts: Sequence[float], sends: Sequence[int], beta: float,
                gain_to_noise: float) -> tuple[float, float, float]:
    """One user's slot of `sends` from DUs of `impacts`: (payoff, distortion
    reduction, energy). The distortion reduction sums q * y from the left,
    the energy is `transmit_energy` of the total, and the payoff is
    distortion - beta * energy; `mdp.row_terms` is the array form."""
    dist = float(sum(map(mul, impacts, sends)))
    energy = transmit_energy(gain_to_noise, sum(sends))
    return dist - beta * energy, dist, energy


def payoff(state: UserState, action: ScheduleAction, beta: float,
           channel: ChannelModel) -> float:
    """Distortion reduction minus beta-weighted transmission energy."""
    _check_sends(state.buffer, action.sends)
    return slot_payoff(state.context.impacts, action.sends, beta,
                       float(channel.gain[state.channel]))[0]


def bandwidth_usage(totals: Sequence[int], rates: Sequence[float],
                    bits_per_packet: float) -> float:
    """Fraction of the shared band consumed: sum of total_i * b / r_i. With
    an array of totals per user (one entry per price), the fraction at each."""
    usage = sum(t * bits_per_packet / r for t, r in zip(totals, rates))
    return usage if isinstance(usage, np.ndarray) else float(usage)


# ---------------------------------------------------------------------------
# Traffic dynamics
# ---------------------------------------------------------------------------

class Transition(NamedTuple):
    """One user's deterministic slot step from (phase, buffer, sends): the
    next context, the next buffer before arrivals (each survivor's packets,
    zeros where DUs enter), the entering (index, DU, key) triples in slot
    order, and the (key, packets) drops of the DUs whose deadline passed."""

    context: Context
    kept: tuple[int, ...]
    entering: tuple[tuple[int, DataUnitSpec, tuple[int, int]], ...]
    dropped: tuple[tuple[tuple[int, int], int], ...]

    def buffer(self, us: Iterable[float]) -> tuple[int, ...]:
        """The next buffer, each entering DU's size mapped from the next of
        `us` in slot order. Takes exactly one uniform per entering DU, so an
        iterator shared across users and slots stays aligned."""
        if not self.entering:
            return self.kept
        buf = list(self.kept)
        for (j, du, _key), u in zip(self.entering, us):
            buf[j] = du.size_at(u)
        return tuple(buf)


@dataclass(frozen=True)
class TrafficStep:
    """Outcome of one slot of traffic dynamics for a single user."""

    context: Context
    buffer: tuple[int, ...]
    arrivals: dict[tuple[int, int], int] = field(default_factory=dict)
    dropped: dict[tuple[int, int], int] = field(default_factory=dict)


def advance_traffic(template: GopTemplate, context: Context, buffer: tuple[int, ...],
                    action: ScheduleAction, rng: np.random.Generator) -> TrafficStep:
    """Apply sends, drop DUs whose deadline passed, draw entering DU sizes.

    The deterministic part is `template.transition`, checked once per
    (phase, buffer, sends). The k entering sizes come from one
    `uniforms(rng, k)` call, in slot order, so they are the sizes k
    `sample_size` calls would draw. The returned dicts are fresh.
    """
    move = template.transition(context, buffer, action.sends)
    nxt = move.buffer(uniforms(rng, len(move.entering)))
    return TrafficStep(move.context, nxt, {key: nxt[j] for j, _, key in move.entering},
                       dict(move.dropped))


def initial_buffer(template: GopTemplate, phase: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Fresh sizes for every DU active at the given phase (episode start)."""
    ctx = template.context(phase)
    return tuple(slot.du.sample_size(rng) for slot in ctx.slots)


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UserConfig:
    """One video user: traffic template, channel, quality floor, tradeoff."""

    name: str
    template: GopTemplate
    channel: ChannelModel
    min_quality: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.min_quality) and self.min_quality >= 0):
            raise ModelError(f"user {self.name}: min_quality must be finite and >= 0")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ModelError(f"user {self.name}: beta must be finite and >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs: users, shared band, discount, solver knobs."""

    name: str
    users: tuple[UserConfig, ...]
    bits_per_packet: float = 1.0
    bandwidth: float = 1.0
    discount: float = 0.95
    price_tolerance: float = 1e-3
    seed: int = 0
    solver: str = "proposed"
    channel_correlation: str = "independent"
    price_view: str = "expected"

    def __post_init__(self):
        if not self.users:
            raise ModelError("scenario has no users")
        if not 0.0 <= self.discount < 1.0:
            raise ModelError("discount must be in [0, 1)")
        for name in ("bandwidth", "bits_per_packet", "price_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ModelError(f"{name} must be finite and > 0")
        _require_integer(self.seed, "seed")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if self.channel_correlation not in ("independent", "common"):
            raise ModelError(f"unknown channel_correlation {self.channel_correlation!r}")
        names = [u.name for u in self.users]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ModelError(f"user name {name!r} is given to more than one user")
        if self.channel_correlation == "common":
            check_common_chain(self.channels, names)
        if self.price_view not in ("expected", "full"):
            raise ModelError(f"unknown price_view {self.price_view!r}")
        if self.price_view == "full" and self.channel_correlation == "common":
            raise ModelError('price_view "full" applies to independent channels only; '
                             "a common channel's views are exact")

    @cached_property
    def joint(self) -> JointChannel:
        """The scenario's `JointChannel`, built on first use."""
        return JointChannel(self.channels, self.channel_correlation)

    @property
    def templates(self) -> list[GopTemplate]:
        return [u.template for u in self.users]

    @property
    def channels(self) -> list[ChannelModel]:
        return [u.channel for u in self.users]
