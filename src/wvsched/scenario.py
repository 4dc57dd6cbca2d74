"""Scenario files: JSON schema, validation with field-addressed errors,
and the named presets shipped with the package.

Schema (all keys at their defaults may be omitted; a key it does not name
is rejected, so a misspelt one cannot fall back to its default):

    {
      "name": "...",
      "bits_per_packet": 1.0,
      "bandwidth": 1.0,
      "discount": 0.95,
      "price_tolerance": 0.001,
      "seed": 0,
      "solver": "proposed",
      "channel_correlation": "common" | "independent",
      "price_view": "expected" | "full",
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
from importlib import resources
from pathlib import Path

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


def _du_from_dict(raw: dict, where: str, errors: list[str]) -> DataUnitSpec | None:
    errors += [f"{where}: unknown field {k!r}" for k in raw if k not in (
        "id", "name", "distortion_impact", "deadline_offset", "size_pmf", "parents")]
    try:
        return DataUnitSpec(
            du_id=int(raw["id"]),
            name=str(raw.get("name", f"DU{raw.get('id')}")),
            distortion_impact=float(raw["distortion_impact"]),
            deadline_offset=int(raw["deadline_offset"]),
            size_pmf=tuple((int(v), float(p)) for v, p in raw["size_pmf"]),
            parents=tuple(int(p) for p in raw.get("parents", ())),
        )
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc.args[0]!r}")
    except (TypeError, ValueError, ModelError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _user_from_dict(raw: dict, where: str, errors: list[str]) -> UserConfig | None:
    errors += [f"{where}: unknown field {k!r}" for k in raw if k not in (
        "name", "beta", "min_quality", "gop", "channel")]
    gop = raw.get("gop")
    chan = raw.get("channel")
    if gop is None:
        errors.append(f"{where}.gop: missing")
        return None
    if chan is None:
        errors.append(f"{where}.channel: missing")
        return None
    errors += [f"{where}.gop: unknown field {k!r}" for k in gop
               if k not in ("period", "window", "dus")]
    errors += [f"{where}.channel: unknown field {k!r}" for k in chan
               if k not in ("states", "gain_to_noise", "rate", "transition")]
    dus = []
    for k, d in enumerate(gop.get("dus", [])):
        du = _du_from_dict(d, f"{where}.gop.dus[{k}]", errors)
        if du is not None:
            dus.append(du)
    if not dus:
        errors.append(f"{where}.gop.dus: empty")
        return None
    try:
        template = GopTemplate(dus, int(gop["period"]), int(gop["window"]))
    except KeyError as exc:
        errors.append(f"{where}.gop: missing field {exc.args[0]!r}")
        return None
    except ModelError as exc:
        errors.append(f"{where}.gop: {exc}")
        return None
    try:
        channel = ChannelModel(
            names=chan["states"],
            gain_to_noise=chan["gain_to_noise"],
            rate=chan["rate"],
            transition=chan["transition"],
        )
    except KeyError as exc:
        errors.append(f"{where}.channel: missing field {exc.args[0]!r}")
        return None
    except ModelError as exc:
        errors.append(f"{where}.channel: {exc}")
        return None
    try:
        return UserConfig(
            name=str(raw.get("name", where)),
            template=template,
            channel=channel,
            min_quality=float(raw.get("min_quality", 0.0)),
            beta=float(raw.get("beta", 0.0)),
        )
    except ModelError as exc:
        errors.append(f"{where}: {exc}")
        return None


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    errors = [f"scenario: unknown field {k!r}" for k in raw if k not in (
        "name", "bits_per_packet", "bandwidth", "discount", "price_tolerance", "seed",
        "solver", "channel_correlation", "price_view", "users")]
    users = []
    for i, u in enumerate(raw.get("users", [])):
        user = _user_from_dict(u, f"users[{i}]", errors)
        if user is not None:
            users.append(user)
    if not users and not errors:
        errors.append("users: empty")
    if errors:
        raise ScenarioError(errors)
    try:
        return ScenarioConfig(
            name=str(raw.get("name", "scenario")),
            users=tuple(users),
            bits_per_packet=float(raw.get("bits_per_packet", 1.0)),
            bandwidth=float(raw.get("bandwidth", 1.0)),
            discount=float(raw.get("discount", 0.95)),
            price_tolerance=float(raw.get("price_tolerance", 1e-3)),
            seed=int(raw.get("seed", 0)),
            solver=str(raw.get("solver", "proposed")),
            channel_correlation=str(raw.get("channel_correlation", "independent")),
            price_view=str(raw.get("price_view", "expected")),
        )
    except ModelError as exc:
        raise ScenarioError([str(exc)]) from exc


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
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{p}: invalid JSON: {exc}"]) from exc
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
