"""Field checks read from the request dataclasses' annotations.

A field takes exactly the types its annotation names, through
``Optional``, ``Union``, ``Tuple`` and NamedTuples: an ``int`` is never
a ``bool``, a ``float`` takes an ``int`` as it is, a number is finite.
A class's ``LIMITS`` gives a number inclusive ``(low, high)`` bounds
(``None``: open) and any other field its choices.  Nothing is
converted, so ``True`` for ``1`` or ``4.0`` for ``4`` is refused
rather than run under a run key of its own.
"""

import functools
import itertools
import re
import sys
import typing
from dataclasses import fields

_WORDS = {int: "int", float: "finite number", bool: "bool", str: "str"}
#: A number's open bounds: NaN, the infinities and ints that no float
#: holds fail ``-_MAX <= value <= _MAX``.
_MAX = sys.float_info.max


def check_fields(record):
    """Raise ValueError naming the first field of ``record`` (a
    dataclass or NamedTuple) that its annotation or ``LIMITS`` refuse."""
    label, checks = _checks(record.__class__)
    for name, check in checks:
        bad = check(getattr(record, name))
        if bad:
            raise ValueError("%s %s: expected %s, got %r"
                             % ((label, name) + bad))


@functools.lru_cache(maxsize=None)
def _checks(cls):
    """Words naming ``cls`` and a check per field, made once a class."""
    hints, limits = typing.get_type_hints(cls), getattr(cls, "LIMITS", {})
    names = getattr(cls, "_fields", None) or [f.name for f in fields(cls)]
    label = re.sub("(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
    return label, [(n, _check(hints[n], limits.get(n))) for n in names]


def _check(tp, limit=None):
    """The check of annotation ``tp`` under ``limit``: None for a value
    that passes, else ``(wanted, part)`` for the part that fails."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        members = [_check(arg, limit) for arg in args]

        def check(value):
            bads = [member(value) for member in members]
            if None not in bads:
                return " or ".join(dict.fromkeys(b[0] for b in bads)), value
    elif origin is tuple:
        many = args[-1] is Ellipsis
        items = [_check(arg) for arg in args[:1 if many else None]]

        def check(value):
            if not isinstance(value, tuple) or (not many
                                                and len(value) != len(items)):
                return "%s-tuple" % ("n" if many else len(items)), value
            for item, part in zip(itertools.cycle(items), value):
                bad = item(part)
                if bad:
                    return bad
    elif tp not in _WORDS:
        wanted = "None" if tp is type(None) else tp.__name__

        def check(value):
            if not isinstance(value, tp):
                return wanted, value
            if hasattr(tp, "_fields"):  # a NamedTuple cannot check itself
                check_fields(value)
    elif tp is bool or tp is str:
        wanted = "one of %r" % (limit,) if limit else _WORDS[tp]

        def check(value):
            if value.__class__ is not tp or limit and value not in limit:
                return wanted, value
    else:
        classes = (int, float) if tp is float else (int,)
        low, high = limit or (None, None)
        wanted = _WORDS[tp] + ("" if low is None else " >= %r" % (low,)
                               if high is None else " in [%r, %r]" % limit)
        low, high = (-_MAX if low is None else low,
                     _MAX if high is None else high)

        def check(value):
            if value.__class__ not in classes or not low <= value <= high:
                return wanted, value
    return check
