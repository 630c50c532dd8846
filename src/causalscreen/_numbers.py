"""The one grammar for numbers, for typed values and for text.

Typed values come from the Python API and JSON: an integer is an int or a
numpy integer, a real any ``numbers.Real``; ``True`` and strings are neither.
Text (CSV fields, CLI flags and lists) is stripped and must be ASCII: an
integer is an optional ``-`` and digits, a real what ``float`` reads without
``_``. ``int`` and ``float`` alone would also read ``+9``, ``1_0`` and ``٩``.
"""

from __future__ import annotations

import numbers
import operator


def integer(value, what: str, error: type = ValueError) -> int:
    """``value`` as an int: ints and numpy ints pass; a bool, ``1.7`` or ``"1"`` raises."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} {value!r} is not an integer")


def real_type(t: type) -> bool:
    """Whether values of type ``t`` are reals: JSON ``true`` is not a number."""
    return issubclass(t, numbers.Real) and t is not bool


def reals(values, where: str) -> tuple:
    """Each value as a float; a non-number or an int beyond float range raises.

    A tuple whose values are all exactly ``float`` comes back as itself.
    """
    values = tuple(values)
    # One check per distinct type, not per value: event times pass through here.
    types = set(map(type, values))
    if types <= {float}:
        return values
    if not all(map(real_type, types)):
        bad = next(v for v in values if not real_type(type(v)))
        raise ValueError(f"{where} must be a number, got {bad!r}")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise ValueError(f"{where} is too large for a float") from None


def text_int(text: str, signed: bool = True) -> int:
    """An integer read from text; a node index, ``signed=False``, takes no ``-``."""
    text = text.strip()
    if text.isascii() and (text.isdigit() or signed and text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"{text!r} is not an integer")


def text_float(text: str) -> float:
    """A real read from text; each caller says what ``nan`` and ``inf`` mean."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number")
    return float(text)
