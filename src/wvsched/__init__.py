"""Multi-user wireless video transmission: pricing, scheduling, and learning."""

from wvsched.model import (
    ChannelModel,
    Context,
    DataUnitSpec,
    GopTemplate,
    ModelError,
    ScheduleAction,
    UserState,
    advance_traffic,
    bandwidth_usage,
    payoff,
    transmit_energy,
)

__all__ = [
    "ChannelModel",
    "Context",
    "DataUnitSpec",
    "GopTemplate",
    "ModelError",
    "ScheduleAction",
    "UserState",
    "advance_traffic",
    "bandwidth_usage",
    "payoff",
    "transmit_energy",
]
