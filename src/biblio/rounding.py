"""Exact-rational reading, rounding and rendering helpers.

All indicator math stays in :class:`fractions.Fraction`; these helpers are the
single place where text becomes a number, by one ASCII grammar on every Python
(``_int_text``, ``_rational``), and where values get rounded for display.
Rounding is half-up (halves away from zero), matching the hand-rounding
convention used throughout the reports, and is done in integer arithmetic so
no float ever enters the path. Every CSV table and file biblio writes is
rendered here too (``csv_text``), by one quoting rule on every Python.
"""
from __future__ import annotations

import re
from fractions import Fraction

RationalLike = Fraction | int | str

_RATIONAL_TEXT = re.compile(r"-?(?:[0-9./]|[eE][-+]?)*")  # Fraction checks the order
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _int_text(text: str) -> int:
    """Integer text: an optional ``-`` and ASCII digits. ``int`` alone would
    also take ``+``, surrounding spaces, ``_`` separators and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _rational(value: RationalLike) -> Fraction:
    """``value`` as a Fraction. Text is ``num/den`` or a decimal with an optional
    exponent, in ASCII with an optional ``-``: ``Fraction`` alone would also take
    ``+``, spaces, ``_`` separators and non-ASCII digits, as the version allows."""
    if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value)


def _half_up(n: int, d: int) -> int:
    """n/d rounded half-up, for n >= 0 and d > 0."""
    return (2 * n + d) // (2 * d)


def round_half_up(value: RationalLike) -> int:
    """Round to the nearest integer, halves away from zero."""
    f = value if isinstance(value, Fraction) else _rational(value)
    whole = _half_up(abs(f.numerator), f.denominator)
    return whole if f.numerator >= 0 else -whole


def decimal_str(value: RationalLike, places: int) -> str:
    """Render a rational as a fixed-point decimal string, half-up.

    decimal_str(Fraction(6850, 86), 1) == "79.7"
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    f = value if isinstance(value, Fraction) else _rational(value)
    scale = 10**places
    scaled = _half_up(abs(f.numerator) * scale, f.denominator)
    sign = "-" if f.numerator < 0 and scaled else ""
    whole, part = divmod(scaled, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{part:0{places}d}"


def rational_str(value: RationalLike) -> str:
    """Canonical rendering: reduced "num/den", whole values without the /1."""
    f = value if isinstance(value, Fraction) else _rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(value: RationalLike, places: int) -> dict[str, str]:
    """The serialization pair used in JSON outputs: exact plus rounded."""
    f = value if isinstance(value, Fraction) else _rational(value)
    return {"rational": rational_str(f), "decimal": decimal_str(f, places)}


def _csv_field(value) -> str:
    text = str(value)
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: tuple, rows) -> str:
    """CSV text: ``header`` and each of ``rows``, tuples of as many values, on
    a line of its own ended by ``\\n``. A value is rendered with ``str``, and
    quoted if it holds ``,``, ``"``, CR or LF, its quotes doubled (RFC 4180).
    By hand, because ``csv.writer`` quotes a lone CR on some Pythons only.
    """
    lines = [header, *rows]
    line = ",".join(["%s"] * len(header)) + "\n"
    text = "".join([line % fields for fields in lines])
    # Unquoted, the text holds a comma between values, an LF after each line and
    # no other special character; each value that needs quoting adds at least one.
    if sum(map(text.count, ',"\r\n')) != len(lines) * len(header):
        text = "".join([line % tuple(map(_csv_field, fields)) for fields in lines])
    return text
