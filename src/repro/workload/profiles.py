"""Per-trace calibration profiles.

Table 1 of the paper shows eight 24-hour traces with very different
personalities: traces 3 and 4 are dominated by two users running
simulations with 20-Mbyte inputs and a 10-Mbyte postprocess-and-delete
output; trace 8 has an order of magnitude more shared-file events; user
counts run from 33 to 50 and migration users from 6 to 15.  Each profile
below pins those knobs for one synthetic trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import DAY, DEFAULT_CLIENT_COUNT, HOUR


@dataclass(frozen=True)
class TraceProfile:
    """Generation parameters for one 24-hour trace."""

    name: str
    #: The paper's trace date, kept as documentation.
    date: str
    duration: float = DAY
    #: Distinct-user target (Table 1 "Different users").
    user_target: int = 45
    #: How many of those are day-to-day users.
    regular_fraction: float = 0.6
    #: Table 1 "Users of migration".
    migration_user_target: int = 6
    #: Multiplies per-user session rates; the global activity knob.
    intensity: float = 1.0
    #: Multiplies simulation size/recurrence (traces 3-4 run hot).
    simulation_intensity: float = 1.0
    #: Multiplies shared-log request counts (trace 8 runs hot).
    shared_intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(f"trace duration must be positive: {self.duration}")
        if self.user_target <= 0:
            raise ConfigError(f"need at least one user: {self.user_target}")
        if not 0.0 <= self.regular_fraction <= 1.0:
            raise ConfigError(
                f"regular_fraction out of range: {self.regular_fraction}"
            )
        if self.migration_user_target < 0:
            raise ConfigError("migration_user_target cannot be negative")
        if self.migration_user_target > self.user_target:
            raise ConfigError(
                "migration_user_target cannot exceed user_target "
                f"({self.migration_user_target} > {self.user_target})"
            )
        for knob in ("intensity", "simulation_intensity", "shared_intensity"):
            if getattr(self, knob) <= 0:
                raise ConfigError(f"{knob} must be positive")

    @property
    def regular_users(self) -> int:
        return max(1, round(self.user_target * self.regular_fraction))

    @property
    def occasional_users(self) -> int:
        return max(0, self.user_target - self.regular_users)


#: The eight traces of the study.  Dates are from Table 1; knobs are
#: calibrated so the analyses land in the paper's reported bands.
STANDARD_PROFILES: tuple[TraceProfile, ...] = (
    TraceProfile(
        name="trace1", date="1/24/91", duration=23.8 * HOUR,
        user_target=44, migration_user_target=6,
        intensity=1.0, shared_intensity=0.3,
    ),
    TraceProfile(
        name="trace2", date="1/25/91",
        user_target=48, migration_user_target=6,
        intensity=1.45, shared_intensity=1.0,
    ),
    TraceProfile(
        name="trace3", date="5/10/91",
        user_target=47, migration_user_target=11,
        intensity=1.1, simulation_intensity=3.2, shared_intensity=0.8,
    ),
    TraceProfile(
        name="trace4", date="5/11/91",
        user_target=33, migration_user_target=8,
        intensity=1.1, simulation_intensity=4.0, shared_intensity=0.6,
    ),
    TraceProfile(
        name="trace5", date="5/14/91",
        user_target=48, migration_user_target=6,
        intensity=0.85, shared_intensity=0.9,
    ),
    TraceProfile(
        name="trace6", date="5/15/91",
        user_target=50, migration_user_target=11,
        intensity=1.2, shared_intensity=1.2,
    ),
    TraceProfile(
        name="trace7", date="6/26/91",
        user_target=46, migration_user_target=9,
        intensity=0.9, shared_intensity=1.0,
    ),
    TraceProfile(
        name="trace8", date="6/27/91",
        user_target=36, migration_user_target=15,
        intensity=1.8, shared_intensity=6.0,
    ),
)


def scaled_client_count(scale: float) -> int:
    """The workstations a scale-``scale`` cluster fields: the paper's
    40 at scale 1, shrinking with scale so per-client load stays
    realistic, and never fewer than 4."""
    return max(4, round(DEFAULT_CLIENT_COUNT * scale))


def scaled_profile(profile: TraceProfile, scale: float) -> TraceProfile:
    """Scale a profile's population down (or up) by ``scale``.

    Scaling reduces the number of users -- and hence total events and
    bytes -- while leaving per-user behaviour untouched, so per-user and
    distributional results stay calibrated while wall-clock cost drops.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if scale == 1.0:
        return profile
    user_target = max(2, round(profile.user_target * scale))
    migration_target = max(
        1, min(user_target, round(profile.migration_user_target * scale))
    )
    return TraceProfile(
        name=profile.name,
        date=profile.date,
        duration=profile.duration,
        user_target=user_target,
        regular_fraction=profile.regular_fraction,
        migration_user_target=migration_target,
        intensity=profile.intensity,
        simulation_intensity=profile.simulation_intensity,
        shared_intensity=profile.shared_intensity,
    )
