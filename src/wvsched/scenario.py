"""Scenario files: JSON schema, validation with field-addressed errors,
and the named presets shipped with the package.

Schema (all keys at their defaults may be omitted; a key it does not name
is rejected, so a misspelt one cannot fall back to its default). Every
number must be finite, and ids, deadline offsets, sizes, parents, period,
window and seed whole numbers (a bool is neither):

    {
      "name": "...",
      "bits_per_packet": 1.0,
      "bandwidth": 1.0,
      "discount": 0.95,
      "price_tolerance": 0.001,
      "seed": 0,
      "solver": "proposed",
      "channel_correlation": "common" | "independent",
      "price_view": "expected" | "full",   ("full": independent channels only)
      "users": [
        {
          "name": "user1",
          "beta": 0.0,
          "min_quality": 0.0,
          "gop": {
            "period": 2,
            "window": 2,
            "dus": [
              {"id": 0, "name": "I", "distortion_impact": 4.0,
               "deadline_offset": 0, "size_pmf": [[40, 1.0]], "parents": []}
            ]
          },
          "channel": {
            "states": ["good", "bad"],
            "gain_to_noise": [1.4, 1.4],
            "rate": [60.0, 40.0],
            "transition": [[0.6, 0.4], [0.4, 0.6]]
          }
        }
      ]
    }
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Callable

from wvsched.model import (
    ChannelModel,
    DataUnitSpec,
    GopTemplate,
    ModelError,
    ScenarioConfig,
    UserConfig,
)


class ScenarioError(ValueError):
    """Validation failure; collects one message per offending field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_MISSING = object()


# One converter per kind of JSON value: each returns x read at the address
# `where`, or None after appending one error that names the address.

def _typed(kind: type, noun: str) -> Callable:
    """The converter of a JSON value that parses to a Python `kind`."""
    def read(x, where: str, errors: list[str]):
        if isinstance(x, kind):
            return x
        errors.append(f"{where}: expected {noun}, got {x!r}")
        return None
    return read


_object, _list = _typed(dict, "an object"), _typed(list, "a list")
_string = _typed(str, "a string")


def _real(x, where: str, errors: list[str]) -> float | None:
    """A finite number; a bool is not one."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:            # an integer beyond float range
            value = math.inf
        if math.isfinite(value):
            return value
    errors.append(f"{where}: expected a finite number, got {x!r}")
    return None


def _integer(x, where: str, errors: list[str]) -> int | None:
    """A whole number: neither a bool nor a fractional or non-finite float."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    errors.append(f"{where}: expected an integer, got {x!r}")
    return None


def _list_of(kind: Callable) -> Callable:
    """The converter of a list whose entries `kind` reads; gives a tuple."""
    def read(x, where: str, errors: list[str]) -> tuple | None:
        items = _list(x, where, errors)
        return None if items is None else tuple(kind(v, f"{where}[{k}]", errors)
                                                for k, v in enumerate(items))
    return read


def _field(raw: dict, key: str, where: str, errors: list[str], kind: Callable,
           default=_MISSING):
    """raw[key] read by `kind` at the address where.key (key alone at the
    top level); `default` if the key is absent, an error if it has none."""
    if key not in raw:
        if default is _MISSING:
            errors.append(f"{where or 'scenario'}: missing field {key!r}")
            return None
        return default
    return kind(raw[key], f"{where}.{key}" if where else key, errors)


def _fields(x, where: str, errors: list[str], spec: dict) -> dict | None:
    """The object x's fields of `spec` ({key: (kind, default)}, `_MISSING`
    for a required key), after an error for each key `spec` does not name;
    None if x is not an object or any of its fields was wrong."""
    raw = _object(x, where or "scenario", errors)
    if raw is None:
        return None
    n = len(errors)
    errors += [f"{where or 'scenario'}: unknown field {k!r}" for k in raw if k not in spec]
    out = {key: _field(raw, key, where, errors, kind, default)
           for key, (kind, default) in spec.items()}
    return None if len(errors) > n else out


def _built(make: Callable, where: str, errors: list[str], **kwargs):
    """make(**kwargs), or None after appending the ModelError it raises at
    the address `where`."""
    try:
        return make(**kwargs)
    except ModelError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _size_entry(x, where: str, errors: list[str]) -> tuple | None:
    pair = _list(x, where, errors)
    if pair is None:
        return None
    if len(pair) != 2:
        errors.append(f"{where}: expected a [size, probability] pair, got {x!r}")
        return None
    return _integer(pair[0], f"{where}[0]", errors), _real(pair[1], f"{where}[1]", errors)


def _du(x, where: str, errors: list[str]) -> DataUnitSpec | None:
    f = _fields(x, where, errors, {
        "id": (_integer, _MISSING),
        "name": (_string, None),
        "distortion_impact": (_real, _MISSING),
        "deadline_offset": (_integer, _MISSING),
        "size_pmf": (_list_of(_size_entry), _MISSING),
        "parents": (_list_of(_integer), ()),
    })
    return f and _built(DataUnitSpec, where, errors, du_id=f["id"],
                        name=f"DU{f['id']}" if f["name"] is None else f["name"],
                        distortion_impact=f["distortion_impact"],
                        deadline_offset=f["deadline_offset"], size_pmf=f["size_pmf"],
                        parents=f["parents"])


def _gop(x, where: str, errors: list[str]) -> GopTemplate | None:
    f = _fields(x, where, errors, {
        "period": (_integer, _MISSING),
        "window": (_integer, _MISSING),
        "dus": (_list_of(_du), _MISSING),
    })
    return f and _built(GopTemplate, where, errors, **f)


def _channel(x, where: str, errors: list[str]) -> ChannelModel | None:
    f = _fields(x, where, errors, {
        "states": (_list_of(_string), _MISSING),
        "gain_to_noise": (_list_of(_real), _MISSING),
        "rate": (_list_of(_real), _MISSING),
        "transition": (_list_of(_list_of(_real)), _MISSING),
    })
    return f and _built(ChannelModel, where, errors, names=f["states"],
                        gain_to_noise=f["gain_to_noise"], rate=f["rate"],
                        transition=f["transition"])


def _user(x, where: str, errors: list[str]) -> UserConfig | None:
    f = _fields(x, where, errors, {
        "name": (_string, where),
        "beta": (_real, 0.0),
        "min_quality": (_real, 0.0),
        "gop": (_gop, _MISSING),
        "channel": (_channel, _MISSING),
    })
    return f and _built(UserConfig, where, errors, name=f["name"], template=f["gop"],
                        channel=f["channel"], min_quality=f["min_quality"],
                        beta=f["beta"])


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """The scenario of a parsed scenario file (see the schema above). Every
    field is read by the converter of its kind; a wrong, missing or unknown
    field raises one ScenarioError listing each such field by address."""
    errors: list[str] = []
    f = _fields(raw, "", errors, {
        "name": (_string, "scenario"),
        "bits_per_packet": (_real, 1.0),
        "bandwidth": (_real, 1.0),
        "discount": (_real, 0.95),
        "price_tolerance": (_real, 1e-3),
        "seed": (_integer, 0),
        "solver": (_string, "proposed"),
        "channel_correlation": (_string, "independent"),
        "price_view": (_string, "expected"),
        "users": (_list_of(_user), ()),
    })
    scenario = f and _built(ScenarioConfig, "scenario", errors, **f)
    if errors:
        raise ScenarioError(errors)
    return scenario


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario JSON file, or a preset by name."""
    p = Path(path)
    if not p.exists():
        preset = preset_path(str(path))
        if preset is not None:
            p = preset
        else:
            raise ScenarioError([f"scenario file {path!r} not found and no such preset"])
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:      # a directory, not UTF-8, invalid JSON
        raise ScenarioError([f"{p}: not a readable UTF-8 JSON file: {exc}"]) from exc
    return scenario_from_dict(raw)


def preset_path(name: str) -> Path | None:
    base = resources.files("wvsched").joinpath("scenarios")
    candidate = base.joinpath(f"{name}.json")
    try:
        if candidate.is_file():
            with resources.as_file(candidate) as real:
                return Path(real)
    except (FileNotFoundError, ModuleNotFoundError):
        return None
    return None


def list_presets() -> list[str]:
    base = resources.files("wvsched").joinpath("scenarios")
    try:
        return sorted(f.name[:-5] for f in base.iterdir() if f.name.endswith(".json"))
    except FileNotFoundError:
        return []


def preset(name: str) -> ScenarioConfig:
    path = preset_path(name)
    if path is None:
        raise ScenarioError([f"unknown preset {name!r}; available: {list_presets()}"])
    return load_scenario(path)
