"""The reference model stands apart from the library it checks.

`reference_model.py` is the slot simulator the differential tests step the
library's slot loops against, so it must not reach the code under test:
these tests read its source with `ast`, and hold its sampler to
`rng.choice` itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_model

MODEL = Path(reference_model.__file__)

# the library's slot step, samplers and the uniforms they map, by name
BANNED = {"SlotSystem", "Transition", "advance_traffic", "initial_buffer", "sample_size",
          "size_at", "draw", "uniforms", "size_cdf", "transition_cdf", "stationary_cdf"}
# methods of `GopTemplate` that step or build the library's slots
BANNED_CALLS = {"context", "step", "transition"}


def violations(source: str) -> list[str]:
    """Each use in `source` of what the model must not reach: an import of
    a `wvsched` module, a `BANNED` name (as a name, attribute, definition,
    argument or import alias), a call of a `BANNED_CALLS` method and any
    `transition` but a subscripted one (a row of a channel's matrix)."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "wvsched"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wvsched":
            found.append(f"from {node.module}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in BANNED_CALLS:
            found.append(f"call of .{node.func.attr}")
        names = {ast.Name: ("id",), ast.Attribute: ("attr",), ast.FunctionDef: ("name",),
                 ast.ClassDef: ("name",), ast.arg: ("arg",), ast.alias: ("name", "asname")}
        for field in names.get(type(node), ()):
            name = getattr(node, field)
            if name in BANNED:
                found.append(name)
            elif name == "transition" and not (isinstance(node, ast.Attribute)
                                               and isinstance(parent[node], ast.Subscript)
                                               and parent[node].value is node):
                found.append("transition unsubscripted")
    return found


def test_reference_model_stands_alone():
    assert violations(MODEL.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import wvsched",
    "import wvsched.model as m",
    "from wvsched.pricing import JointChannel",
    "from wvsched import model",
    "step = traffic.advance_traffic",
    "from numpy import random as draw",
    "def uniforms(rng): pass",
    "def f(sample_size): pass",
    "du.size_at(u)",
    "tpl.transition(ctx, buf, sends)",
    "step = tpl.transition",
    "tpl.context(phase)",
    "tpl.step(phase)",
    "transition = rows",
])
def test_the_independence_check_catches_each_banned_use(source):
    assert violations(source)


def test_a_subscripted_transition_is_a_channel_row():
    assert violations("row = channel.transition[h]") == []


@st.composite
def pmfs(draw_):
    """PMFs of 1-5 entries, zeros among them, summing to 1 as a channel row
    or a size PMF does."""
    weights = draw_(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
                             min_size=1, max_size=5))
    weights[draw_(st.integers(0, len(weights) - 1))] += 0.1
    return [w / sum(weights) for w in weights]


@settings(max_examples=300, deadline=None)
@given(pmfs(), st.integers(0, 2**32 - 1))
@example([1.0], 0)
@example([0.0, 1.0, 0.0], 1)
def test_model_draws_are_rng_choice(pmf, seed):
    """`reference_model.choice` on a PMF's `cdf` draws the index
    `rng.choice(len(p), p=p)` draws, from the same one uniform."""
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = reference_model.cdf(pmf)
    for _ in range(40):
        assert reference_model.choice(fast, cdf) == int(ref.choice(len(pmf), p=pmf))
    assert fast.random() == ref.random()
