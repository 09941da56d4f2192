"""Exact-rational reading, rounding and rendering helpers.

All indicator math stays in :class:`fractions.Fraction`; these helpers are the
single place where text becomes a number, by one ASCII grammar on every Python
(``_int_text``, ``_rational``), and where values get rounded for display.
Rounding is half-up (halves away from zero), matching the hand-rounding
convention used throughout the reports, and is done in integer arithmetic so
no float ever enters the path: ``_rational`` refuses a float or a bool. Every
CSV table and file biblio writes is rendered here too (``csv_text``), by one
quoting rule on every Python.

Reports render the same values over and over (the per-paper CNCI of every
paper with the same count in the same cells, the same share in many
reports), so ``rational_json`` and ``decimal_str`` take the exact and rounded
texts of a value from one memo keyed by its reduced numerator, denominator
and places (``_texts``). The memo keeps the last ``_MEMO_SIZE`` keys; the
renderers check their arguments before reading it, so an error is never
kept, and ``rational_json`` builds a new dict on every call.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

RationalLike = Fraction | int | str

_RATIONAL_TEXT = re.compile(r"-?(?:[0-9./]|[eE][-+]?)*")  # Fraction checks the order
_CSV_SPECIAL = re.compile(r'[,"\r\n]')
_MEMO_SIZE = 4096


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
    ``+``, spaces, ``_`` separators and non-ASCII digits, as the version allows.
    A float or a bool is a :class:`TypeError`: ``Fraction(0.3)`` is the binary
    value 5404319552844595/18014398509481984, and ``True`` would read as 1."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"not an exact rational: {value!r} (pass a Fraction, int or text)")
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


@lru_cache(maxsize=_MEMO_SIZE)
def _texts(numerator: int, denominator: int, places: int) -> tuple[str, str]:
    """The exact and the half-up text at ``places`` of a reduced fraction, by
    integers alone: the key never hashes a Fraction, which costs a modular inverse."""
    exact = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    scale = 10**places
    scaled = _half_up(abs(numerator) * scale, denominator)
    sign = "-" if numerator < 0 and scaled else ""
    whole, part = divmod(scaled, scale)
    if places == 0:
        return exact, f"{sign}{whole}"
    return exact, f"{sign}{whole}.{part:0{places}d}"


def decimal_str(value: RationalLike, places: int) -> str:
    """Render a rational as a fixed-point decimal string, half-up.

    decimal_str(Fraction(6850, 86), 1) == "79.7"
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    f = value if isinstance(value, Fraction) else _rational(value)
    return _texts(f.numerator, f.denominator, places)[1]


def rational_str(value: RationalLike) -> str:
    """Canonical rendering: reduced "num/den", whole values without the /1."""
    f = value if isinstance(value, Fraction) else _rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(value: RationalLike, places: int) -> dict[str, str]:
    """The serialization pair used in JSON outputs: exact plus rounded."""
    f = value if isinstance(value, Fraction) else _rational(value)
    if places < 0:
        raise ValueError("places must be >= 0")
    exact, rounded = _texts(f.numerator, f.denominator, places)
    return {"rational": exact, "decimal": rounded}


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
