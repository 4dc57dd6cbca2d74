"""Differential tests: every fast path against the simple reference code.

The reference implementations below are the plain versions the fast paths
replaced: the per-buffer-level loop solve, the round-by-round decomposed
scheduler that re-evaluates every root each round, and `rng.choice` draws.
Results must agree exactly (==), not approximately.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wvsched.learning import DuPdsLearner
from wvsched.mdp import common_view
from wvsched.model import ChannelModel, DataUnitSpec, GopTemplate, draw, sample_channel
from wvsched.pricing import JointChannel
from wvsched.scheduling import SingleDuModel, build_du_tables, decomposed_schedule

EXAMPLES = 300


# ---------------------------------------------------------------------------
# Reference code
# ---------------------------------------------------------------------------

def reference_solve(model: SingleDuModel, price):
    """Backward induction with a Python loop over buffer levels.

    Returns (values, post, best_send); best_send is the first argmax over y.
    """
    n_view = len(model.view)
    w, cap, delta = model.window, model.cap, model.discount
    values = np.zeros((w + 1, cap + 1, n_view))
    post = np.zeros((w, cap + 1, n_view))
    best_send = np.zeros((w, cap + 1, n_view), dtype=int)
    margin = (1.0 - delta) * (model.du.distortion_impact - np.asarray(price))
    for age in range(w - 1, -1, -1):
        if age < w - 1:
            post[age] = values[age + 1] @ model.view.transition.T
        for x in range(cap + 1):
            ys = np.arange(x + 1)
            q = ys[:, None] * margin[None, :] + delta * post[age, x - ys, :]
            values[age, x] = q.max(axis=0)
            best_send[age, x] = q.argmax(axis=0)
    return values, post, best_send


def reference_schedule(context, buffer, view_state, price, tables, discount):
    """O(n^2) scheduler: every round re-evaluates every current root."""
    n = len(context)
    sends = [0] * n
    order = []
    done = [False] * n
    parents = [[] for _ in range(n)]
    for p, c in context.edges:
        parents[c].append(p)
    for k in range(n):
        lam = price[min(k, len(price) - 1)] if np.ndim(price) == 1 else price
        best = None
        for i in range(n):
            if done[i] or any(not done[p] for p in parents[i]):
                continue
            slot = context.slots[i]
            age = context.age_of(i)
            tab = tables[slot.du.du_id]
            margin = (1.0 - discount) * (slot.du.distortion_impact - lam)
            x = buffer[i]
            cont = getattr(tab, "post_slice", None)
            if cont is not None:
                vals = margin * np.arange(x + 1) + discount * cont(age, x, view_state)
                y_best = int(np.argmax(vals))
                val = float(vals[y_best])
                if best is None or val > best[0] + 1e-12:
                    best = (val, i, y_best)
            else:
                for y in range(x + 1):
                    val = margin * y + discount * tab.continuation(age, x - y, view_state)
                    if best is None or val > best[0] + 1e-12:
                        best = (val, i, y)
        _, i, y = best
        sends[i] = y
        done[i] = True
        order.append(i)
    return tuple(sends), order


def reference_initial(joint: JointChannel, rng):
    if joint.correlation == "common":
        c = joint.channels[0]
        return (int(rng.choice(len(c), p=c.stationary())),) * len(joint.channels)
    return tuple(int(rng.choice(len(c), p=c.stationary())) for c in joint.channels)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# A small value set makes exact ties (and near-ties at the 1e-12 rule) common.
values_ = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]),
                    st.floats(0.0, 10.0, allow_nan=False))


@st.composite
def pmfs(draw_, max_size=8):
    support = draw_(st.lists(st.integers(0, max_size), min_size=1, max_size=4,
                             unique=True))
    weights = draw_(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                             max_size=len(support)))
    total = sum(weights)
    return tuple((v, w / total) for v, w in zip(support, weights))


@st.composite
def channels(draw_, max_states=3):
    n = draw_(st.integers(1, max_states))
    rows = []
    for _ in range(n):
        w = draw_(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        w[draw_(st.integers(0, n - 1))] += 0.05
        total = sum(w)
        rows.append([p / total for p in w])
    return ChannelModel([f"s{h}" for h in range(n)], [1.4] * n,
                        [float(3 + h) for h in range(n)], rows)


@st.composite
def instances(draw_):
    """(template, view, discount, price vector, context, buffer, view state)."""
    window = draw_(st.integers(1, 4))
    n = draw_(st.integers(1, 4))
    impacts = sorted((draw_(values_) for _ in range(n)), reverse=True)
    deadlines = sorted(draw_(st.integers(0, 3)) for _ in range(n))
    dus = []
    for i in range(n):
        parents = ()
        able = [j for j in range(i) if deadlines[i] - deadlines[j] < window]
        if able and draw_(st.booleans()):
            parents = (draw_(st.sampled_from(able)),)
        dus.append(DataUnitSpec(i, f"D{i}", impacts[i], deadlines[i], draw_(pmfs()),
                                parents))
    tpl = GopTemplate(dus, max(deadlines[-1], 1) + draw_(st.integers(0, 1)), window)
    view = common_view(draw_(channels()), 1)
    delta = draw_(st.floats(0.0, 0.99, exclude_max=True))
    price = np.array([draw_(values_) for _ in range(len(view))])
    ctx = tpl.context(draw_(st.integers(0, tpl.period - 1)))
    buffer = tuple(draw_(st.integers(0, s.du.max_size)) for s in ctx.slots)
    v = draw_(st.integers(0, len(view) - 1))
    return tpl, view, delta, price, ctx, buffer, v


def learners_for(draw_, tpl, delta, n_view):
    """DuPdsLearner tables with arbitrary learned entries."""
    out = {}
    for du in tpl.dus:
        lr = DuPdsLearner(du.distortion_impact, tpl.window, delta)
        for age in range(tpl.window - 1):
            for x in range(du.max_size + 1):
                for v in range(n_view):
                    if draw_(st.booleans()):
                        lr.u[(age, x, v)] = draw_(values_)
        out[du.du_id] = lr
    return out


# ---------------------------------------------------------------------------
# Per-DU solve and tables
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(instances())
def test_vectorised_solve_equals_loop_solve(inst):
    tpl, view, delta, price, *_ = inst
    for du in tpl.dus:
        model = SingleDuModel(du, tpl.window, view, delta)
        tab = model.solve(price)
        values, post, best_send = reference_solve(model, price)
        assert np.array_equal(tab.values, values)
        assert np.array_equal(tab.post, post)
        assert np.array_equal(tab.best_send, best_send)


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances())
def test_each_du_gets_its_own_model_and_arrays(inst):
    tpl, view, delta, price, *_ = inst
    tables = build_du_tables(tpl, view, delta, price)
    assert set(tables) == {du.du_id for du in tpl.dus}
    arrays = []
    for du in tpl.dus:
        tab = tables[du.du_id]
        assert tab.model.du is du
        own = SingleDuModel(du, tpl.window, view, delta).solve(price)
        for name in ("values", "post", "best_send", "margin"):
            assert np.array_equal(getattr(tab, name), getattr(own, name))
            arrays.append(getattr(tab, name))
    for a in range(len(arrays)):
        for b in range(a + 1, len(arrays)):
            assert not np.shares_memory(arrays[a], arrays[b])


# ---------------------------------------------------------------------------
# Decomposed scheduling
# ---------------------------------------------------------------------------

def _same(ctx, buf, v, price, tables, delta):
    act, order = decomposed_schedule(ctx, buf, v, price, tables, delta)
    assert (act.sends, order) == reference_schedule(ctx, buf, v, price, tables, delta)


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances(), values_, st.floats(0.0, 0.99, exclude_max=True))
def test_schedule_at_solved_and_arbitrary_scalar_prices(inst, lam, other_delta):
    tpl, view, delta, price, ctx, buf, v = inst
    tables = build_du_tables(tpl, view, delta, price)
    _same(ctx, buf, v, float(price[v]), tables, delta)     # table lookups
    _same(ctx, buf, v, price[v], tables, delta)            # numpy scalar
    _same(ctx, buf, v, lam, tables, delta)                 # evaluated from post
    _same(ctx, buf, v, float(price[v]), tables, other_delta)
    if len(ctx):
        # a zero margin at the queried view is the same under either discount,
        # but the tables still carry the solved discount through `post`
        q = ctx.slots[0].du.distortion_impact
        mixed = price.copy()
        mixed[v] = q
        tables = build_du_tables(tpl, view, delta, mixed)
        _same(ctx, buf, v, q, tables, other_delta)


@settings(max_examples=EXAMPLES, deadline=None)
@given(instances(), st.lists(values_, min_size=1, max_size=5))
def test_schedule_with_per_round_prices(inst, lams):
    tpl, view, delta, price, ctx, buf, v = inst
    tables = build_du_tables(tpl, view, delta, price)
    for seq in (lams, tuple(lams), np.array(lams)):
        _same(ctx, buf, v, seq, tables, delta)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data(), instances(), values_, st.lists(values_, min_size=1, max_size=5))
def test_schedule_with_learned_tables(data, inst, lam, lams):
    tpl, view, delta, _price, ctx, buf, v = inst
    learners = learners_for(data.draw, tpl, delta, len(view))
    _same(ctx, buf, v, lam, learners, delta)
    _same(ctx, buf, v, lams, learners, delta)


# ---------------------------------------------------------------------------
# Categorical sampler
# ---------------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(pmfs(), st.integers(0, 2**32 - 1))
@example(((3, 1.0),), 0)
@example(((0, 0.0), (5, 1.0)), 1)
def test_sample_size_equals_choice(pmf, seed):
    du = DataUnitSpec(0, "D", 1.0, 0, pmf)
    values = [v for v, _ in du.size_pmf]
    probs = [p for _, p in du.size_pmf]
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(40):
        assert du.sample_size(fast) == int(values[ref.choice(len(values), p=probs)])
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES, deadline=None)
@given(channels(), st.integers(0, 2**32 - 1))
def test_channel_draws_equal_choice(chan, seed):
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for h in range(len(chan)):
        for _ in range(20):
            assert sample_channel(chan, h, fast) == \
                int(ref.choice(len(chan), p=chan.transition[h]))
    for _ in range(20):
        assert draw(chan.stationary_cdf, fast) == \
            int(ref.choice(len(chan), p=chan.stationary()))
    assert fast.random() == ref.random()


@settings(max_examples=EXAMPLES // 3, deadline=None)
@given(st.lists(channels(), min_size=1, max_size=3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_joint_initial_equals_choice(chans, common, seed):
    if common:
        chans = [chans[0]] * len(chans)
    joint = JointChannel(chans, "common" if common else "independent")
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        assert joint.initial(fast) == reference_initial(joint, ref)
    assert fast.random() == ref.random()
