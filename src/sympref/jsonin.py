"""Decoding of the JSON input documents: group specs, fiber data and
spectrum input.  Every failure becomes one short error line."""

from __future__ import annotations

import json


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # over Python's limit on integer digits
        raise ValueError(
            "a number of %d digits is too long" % len(text.lstrip("-"))
        ) from None


def load_json(text, error, **hooks):
    """json.loads(text, **hooks), raising error("invalid JSON: ...") for
    malformed text, an integer over Python's limit on digits, or arrays
    nested past the recursion limit.  An `error` the hooks raise passes
    through unchanged."""
    try:
        return json.loads(text, parse_int=_integer, **hooks)
    except error:
        raise
    except (ValueError, RecursionError) as exc:
        raise error("invalid JSON: %s" % exc) from None
