"""Fixed-point units shared across the engine.

Simulated time is kept as integer ticks (one tick = 1e-6 of a scenario time
unit) so that clocks, deadlines and trace timestamps are exact and identical
across platforms.  Money is kept as integer micro-currency for the same
reason: budget arithmetic must be exact at the boundary.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal

TICKS_PER_UNIT = 1_000_000
MICROS_PER_UNIT = 1_000_000


def check_finite(section: object) -> None:
    """Refuse an infinity or NaN in a float field of the dataclass `section`:
    no tick or micro count holds one, and a range check lets a NaN through.
    Called from `__post_init__`, while the instance's attributes are its fields."""
    for name, value in vars(section).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite: {value}")


def check_integers(section: object, *names: str) -> None:
    """Refuse a value other than an int, a bool included, in each named field
    of `section`: a count held as a float fails deep in the run, and
    `3.0 % 2` passes an odd check.  Called from `__post_init__`."""
    for name in names:
        value = getattr(section, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer: {value!r}")


def to_ticks(units: float) -> int:
    """Convert a duration/instant in time units to integer ticks (half-up)."""
    if units < 0:
        raise ValueError(f"negative time: {units}")
    return math.floor(units * TICKS_PER_UNIT + 0.5)


def to_units(ticks: int) -> float:
    """Convert integer ticks back to time units."""
    return ticks / TICKS_PER_UNIT


def to_micros(amount: float | int | str | Decimal) -> int:
    """Convert a currency amount to integer micro-currency (half-up).

    Accepts floats as written in scenario files; `Decimal(str(x))` keeps the
    author's decimal literal rather than the binary float expansion.
    """
    quantized = (Decimal(str(amount)) * MICROS_PER_UNIT).to_integral_value(
        rounding=ROUND_HALF_UP
    )
    return int(quantized)


def to_money(micros: int) -> float:
    """Convert integer micro-currency to a display float."""
    return micros / MICROS_PER_UNIT
