"""Exact-rational rounding and rendering helpers.

All indicator math stays in :class:`fractions.Fraction`; these helpers are the
single place where values get rounded for display. Rounding is half-up (halves
away from zero), matching the hand-rounding convention used throughout the
reports, and is done in integer arithmetic so no float ever enters the path.
"""
from __future__ import annotations

from fractions import Fraction

RationalLike = Fraction | int | str


def _half_up(n: int, d: int) -> int:
    """n/d rounded half-up, for n >= 0 and d > 0."""
    return (2 * n + d) // (2 * d)


def round_half_up(value: RationalLike) -> int:
    """Round to the nearest integer, halves away from zero."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    whole = _half_up(abs(f.numerator), f.denominator)
    return whole if f.numerator >= 0 else -whole


def decimal_str(value: RationalLike, places: int) -> str:
    """Render a rational as a fixed-point decimal string, half-up.

    decimal_str(Fraction(6850, 86), 1) == "79.7"
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    f = value if isinstance(value, Fraction) else Fraction(value)
    scale = 10**places
    scaled = _half_up(abs(f.numerator) * scale, f.denominator)
    sign = "-" if f.numerator < 0 and scaled else ""
    whole, part = divmod(scaled, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{part:0{places}d}"


def rational_str(value: RationalLike) -> str:
    """Canonical rendering: reduced "num/den", whole values without the /1."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(value: RationalLike, places: int) -> dict[str, str]:
    """The serialization pair used in JSON outputs: exact plus rounded."""
    f = Fraction(value)
    return {"rational": rational_str(f), "decimal": decimal_str(f, places)}
