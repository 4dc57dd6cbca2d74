"""A slot simulator written from the model's definitions alone.

The differential tests step the library's slot loops against it. It
imports nothing from `wvsched` and reads only plain data: a template's
`dus`, `period` and `window`, each DU's fields, and a channel's transition
rows, `rate`, `gain` and `stationary()` (`test_reference_model.py` checks
this). The model:

- GOP g of a user holds one instance of each DU, keyed (g, du_id), whose
  deadline is slot g * period + deadline_offset. It is live at slot t when
  t <= deadline < t + window, draws its size when it becomes live and
  drops what it holds when its deadline slot ends. Instances are ordered
  by GOP, then by the DU's place in the template.
- Each user's channel is a Markov chain; a common channel puts every user
  in the first chain's state.
- Sending n packets uses n * bits_per_packet / rate of the band and pays
  the distortion reduction, q * y summed over the instances, less
  beta * (2**n - 1) / gain of energy.

Every draw is the one `rng.choice(len(p), p=p)` makes from a PMF p: one
`rng.random()`, and the first index whose cumulative sum, over the last,
exceeds it. At start-up: the channel state from the stationary laws (one
draw if common, else one per user) unless it is given, then one size per
live instance, user by user in instance order. Each slot, user by user:
the sends, the drops and one size per instance that becomes live, in
instance order; then the next channel state (one draw if common, else one
per user) unless it is pinned.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate


def cdf(probs) -> list[float]:
    """The cumulative sums of the PMF `probs`, each over the last."""
    sums = list(accumulate(float(p) for p in probs))
    return [c / sums[-1] for c in sums]


def choice(rng, cdf_: list[float]) -> int:
    """The index `rng.choice` draws from the PMF whose `cdf` is `cdf_`."""
    return bisect_right(cdf_, rng.random())


class UserTraffic:
    """One user's slot and `packets`, its live instances' keys mapped to
    their packets in instance order."""

    def __init__(self, template):
        self.period, self.slot, self.packets = template.period, 0, {}
        self.dus = {du.du_id: du for du in template.dus}
        self.sizes = {du.du_id: ([v for v, _ in du.size_pmf], cdf([p for _, p in du.size_pmf]))
                      for du in template.dus}
        place = {du.du_id: k for k, du in enumerate(template.dus)}
        # the instances live at each slot t of GOP 0: the GOPs g with
        # t <= g * period + deadline_offset < t + window
        self.gop_live = [sorted(((g, du.du_id) for du in template.dus
                                 for g in range(-((du.deadline_offset - t) // self.period),
                                                -((du.deadline_offset - t - template.window)
                                                  // self.period))),
                                key=lambda key: (key[0], place[key[1]]))
                         for t in range(self.period)]

    def live(self, t: int) -> list[tuple[int, int]]:
        """The keys live at slot t, in instance order: slot t % period's,
        one GOP on per period."""
        gop = t // self.period
        return [(g + gop, du_id) for g, du_id in self.gop_live[t % self.period]]

    def size(self, key, rng) -> int:
        values, cdf_ = self.sizes[key[1]]
        return values[choice(rng, cdf_)]

    def run_slot(self, sends, rng) -> tuple[dict, dict]:
        """Send `sends` (one count per live instance, in instance order),
        drop what the instances whose deadline is this slot still hold and
        draw the size of each one that becomes live. Returns those sizes
        and the drops, by key."""
        if len(sends) != len(self.packets):
            raise ValueError(f"{len(sends)} sends for {len(self.packets)} live instances")
        kept, dropped = {}, {}
        for (key, x), y in zip(self.packets.items(), sends):
            if not 0 <= y <= x:
                raise ValueError(f"instance {key} sends {y} of its {x} packets")
            if key[0] * self.period + self.dus[key[1]].deadline_offset > self.slot:
                kept[key] = x - y
            elif x > y:
                dropped[key] = x - y
        self.slot += 1
        arrivals, self.packets = {}, {}
        for key in self.live(self.slot):
            if key in kept:
                self.packets[key] = kept.pop(key)
            else:
                self.packets[key] = arrivals[key] = self.size(key, rng)
        assert not kept, f"instances {list(kept)} left the window before their deadline"
        return arrivals, dropped


class SlotModel:
    """The users' traffic and the joint channel state `s0`, stepped slot by
    slot on `rng`. Starts up as the module says unless `buffers` is given:
    then, drawing nothing, at `s0` with user i at slot `slots[i]` holding
    buffers[i] over its live instances. Keys count GOPs from slot 0's."""

    def __init__(self, templates, channels, rng, common: bool = False, s0=None,
                 slots=None, buffers=None):
        self.templates, self.channels, self.rng = list(templates), list(channels), rng
        self.common = common
        self.rows = [[cdf(c.transition[h]) for h in range(len(c))] for c in self.channels]
        self.users = [UserTraffic(t) for t in self.templates]
        if buffers is None:
            self.s0 = self.states([cdf(c.stationary()) for c in self.channels]) if s0 is None \
                else tuple(s0)
            for user in self.users:
                user.packets = {key: user.size(key, rng) for key in user.live(0)}
            return
        self.s0 = tuple(s0)
        for user, t, buf in zip(self.users, slots, buffers, strict=True):
            user.slot, keys = t, user.live(t)
            if len(keys) != len(buf):
                raise ValueError(f"buffer {buf} for {len(keys)} live instances")
            user.packets = dict(zip(keys, buf))

    def phase(self, i: int) -> int:
        return self.users[i].slot % self.users[i].period

    def keys(self, i: int) -> list[tuple[int, int]]:
        """User i's live keys in instance order, GOPs counted from the
        current slot's."""
        gop = self.users[i].slot // self.users[i].period
        return [(g - gop, du_id) for g, du_id in self.users[i].packets]

    def buffers(self) -> list[tuple[int, ...]]:
        return [tuple(user.packets.values()) for user in self.users]

    def name(self, i: int, key) -> str:
        """The DU name of user i's instance `key`."""
        return self.users[i].dus[key[1]].name

    def traffic(self, i: int) -> list[tuple[str, int]]:
        """User i's (DU name, packets) per live instance, in instance order."""
        return [(self.name(i, key), x) for key, x in self.users[i].packets.items()]

    def usage(self, totals, bits_per_packet: float) -> list[float]:
        """Each user's band usage when user i sends totals[i] packets."""
        return [n * bits_per_packet / c.rate[h] for n, c, h in zip(totals, self.channels, self.s0)]

    def payoff(self, i: int, sends, beta: float) -> tuple[float, float, float]:
        """User i's (payoff, distortion reduction, energy) for `sends`."""
        user = self.users[i]
        dist = float(sum(user.dus[key[1]].distortion_impact * y
                         for key, y in zip(user.packets, sends)))
        energy = (2.0 ** sum(sends) - 1.0) / float(self.channels[i].gain[self.s0[i]])
        return dist - beta * energy, dist, energy

    def states(self, cdfs) -> tuple[int, ...]:
        """A joint channel state: one draw from each user's CDF in `cdfs`,
        or one from the first for every user if the channel is common."""
        if self.common:
            return (choice(self.rng, cdfs[0]),) * len(cdfs)
        return tuple(choice(self.rng, c) for c in cdfs)

    def next_channel(self) -> tuple[int, ...]:
        """A draw of the joint channel state after this slot's."""
        return self.states([rows[h] for rows, h in zip(self.rows, self.s0)])

    def run_slot(self, sends, s0_next=None) -> list[tuple[dict, dict]]:
        """One slot: user by user, `sends[i]` in instance order, the drops
        and arrivals; then the channel moves to `s0_next` or a fresh draw.
        Returns each user's (arrivals, drops)."""
        out = [user.run_slot(y, self.rng) for user, y in zip(self.users, sends, strict=True)]
        self.s0 = self.next_channel() if s0_next is None else tuple(s0_next)
        return out
