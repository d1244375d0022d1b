"""The one reader and writer of repfit's JSON documents.

``read_object`` parses a statistics or urn artifact or an experiment config;
``read_fields`` checks its fields against a table of JSON kinds.  A missing,
unknown or mistyped field is a ValidationError naming the field.  Nothing is
coerced: a bool is not a number, and a float or a string is not an integer.
"""

import json
import sys

from .errors import ValidationError


def is_int64(value) -> bool:
    return type(value) is int and -(1 << 63) <= value < 1 << 63


def is_number(value) -> bool:
    # int/float comparison is exact: NaN, infinities and ints past the float
    # range fail here, with no OverflowError.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _entry(value) -> bool:
    # Any float: LanguageModel reports non-finite probabilities itself.
    return type(value) is float or is_number(value)


def _array(test):
    return lambda v: type(v) is list and all(map(test, v))


# A kind is (what the value must be, test of the parsed JSON value).
INTEGER = ("an integer", lambda v: type(v) is int)
INT64 = ("a 64-bit integer", is_int64)
NUMBER = ("a finite number", is_number)
STRING = ("a string", lambda v: type(v) is str)
OBJECT = ("an object", lambda v: type(v) is dict)
INT64_ARRAY = ("an array of 64-bit integers", _array(is_int64))
NUMBER_ARRAY = ("an array of numbers", _array(_entry))
NUMBER_MATRIX = ("an array of equal-length arrays of numbers",
                 lambda v: _array(_array(_entry))(v) and len(set(map(len, v))) <= 1)
# At most 18 digits: a run length fits int64 and int() never meets its digit limit.
PROPORTIONS = ("an object mapping decimal run lengths to finite numbers", lambda v: type(v) is dict
               and all(r.isascii() and r.isdecimal() and len(r) < 19 and is_number(a)
                       for r, a in v.items()))


def read_object(text: str | bytes, what: str) -> dict:
    """Parse ``text`` as a JSON document that must be an object."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid {what}: {exc}") from exc
    if type(doc) is not dict:
        raise ValidationError(f"{what} must be a JSON object, got {doc!r:.80}")
    return doc


def read_fields(what: str, doc: dict, required: dict, optional: dict, prefix: str = "") -> None:
    """Check ``doc`` against tables of field name -> kind."""
    kinds = {**required, **optional}
    for name, value in doc.items():
        if name not in kinds:
            raise ValidationError(f"{what} has unknown field {prefix + name!r}")
        label, test = kinds[name]
        if not test(value):
            raise ValidationError(
                f"{what} field {prefix + name!r} must be {label}, got {value!r:.80}"
            )
    for name in required:
        if name not in doc:
            raise ValidationError(f"{what} is missing field {prefix + name!r}")


def dump(doc: dict) -> str:
    """The artifact text of ``doc``: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
