"""Decoding of the JSON input documents: group specs, fiber data and
spectrum input.  Every failure becomes one short error line: a key
repeated in any object is refused, and the input a message quotes is
cut to 20 characters."""

from __future__ import annotations

import json


def quote(text) -> str:
    """repr(text), cut to 20 characters and then '...' when longer."""
    shown = repr(text)
    return shown if len(shown) <= 20 else shown[:20] + "..."


def refuse_unknown_keys(document, known, error, prefix="") -> None:
    """Raise error(prefix + "unknown keys [...]"), naming at most four."""
    extra = sorted(set(document) - set(known), key=str)
    if extra:
        shown = ", ".join(quote(k) for k in extra[:4])
        more = ", ..." if len(extra) > 4 else ""
        raise error(prefix + "unknown keys [%s%s]" % (shown, more))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # over Python's limit on integer digits
        raise ValueError(
            "a number of %d digits is too long" % len(text.lstrip("-"))
        ) from None


def load_json(text, error):
    """json.loads(text), raising error("invalid JSON: ...") for malformed
    text, an integer over Python's limit on digits, or arrays nested past
    the recursion limit, and error("key ... appears twice in one object")
    for a key repeated in any object."""

    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise error("key %s appears twice in one object" % quote(key))
            out[key] = value
        return out

    try:
        return json.loads(text, parse_int=_integer, object_pairs_hook=unique)
    except error:
        raise
    except (ValueError, RecursionError) as exc:
        raise error("invalid JSON: %s" % exc) from None
