"""JSON persistence for trained models.

Floats are written with Python's shortest round-trip representation, so a
saved model reloads bit-identically and reruns are byte-stable.
"""

import json

from .errors import InputError
from .hmm import CategoricalHmm
from .qhmm import KrausModel


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_json_text(model.to_dict()))


def _json_text(payload: dict):
    """The pieces of ``json.dumps(payload, indent=2) + "\n"``, one field at a
    time, for a nonempty mapping of scalars and rectangular nested float
    lists, such as a model's ``to_dict``.

    With an indent, json runs its pure-Python encoder, one token at a time.
    Here ``repr`` writes each nonempty list of finite floats compactly, with
    the floats as json writes them, and one replacement per nesting level
    lays its separators out; a list's brackets meet only in separators, and
    the longest are laid out first.
    """
    separator = "{\n"
    for key, value in payload.items():
        ndim, inner = 0, value
        while isinstance(inner, list) and inner:
            ndim, inner = ndim + 1, inner[0]
        # repr writes a list of finite floats as compact json does, one
        # float string at a time; json spells nan and inf out
        text = repr(value) if ndim and not isinstance(inner, list) else None
        if text is None or "n" in text:  # a scalar, a list holding [], nan or inf
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        else:
            opening = ["[\n" + "  " * (level + 2) for level in range(ndim)]
            closing = ["\n" + "  " * (level + 1) + "]" for level in range(ndim)]
            text = text[ndim:-ndim]
            for level in range(ndim):
                depth = ndim - 1 - level  # the lists each separator closes and opens
                text = text.replace(
                    "]" * depth + ", " + "[" * depth,
                    "".join(closing[level + 1:][::-1]) + ",\n" + "  " * (level + 2)
                    + "".join(opening[level + 1:]))
            text = "".join(opening) + text + "".join(closing[::-1])
        yield f"{separator}  {json.dumps(key)}: {text}"
        separator = ",\n"
    yield "\n}\n"


def load_model(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path} does not hold a JSON object")
    kind = payload.get("type")
    if kind not in ("hmm", "qhmm"):
        raise InputError(f"unknown model type {kind!r} in {path}")
    try:
        return (CategoricalHmm if kind == "hmm" else KrausModel).from_dict(payload)
    except KeyError as exc:
        raise InputError(f"malformed model in {path}: missing field {exc}") from exc
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model in {path}: {exc}") from exc
