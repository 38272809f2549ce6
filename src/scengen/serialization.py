"""JSON persistence for trained models, and the CSV writer of the per-row
reports.

Floats are written with Python's shortest round-trip representation, so a
saved model reloads bit-identically and reruns are byte-stable.
"""

import json
import math

from .errors import InputError
from .hmm import CategoricalHmm
from .qhmm import KrausModel


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(model.to_dict()))


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\n"`` for a nonempty mapping of
    scalars and nested lists, such as a model's ``to_dict``.

    With an indent, json runs its pure-Python encoder one token at a time.
    This join lays nested lists out itself and writes each finite float in
    one with ``repr``, as json does; the rest (empty lists, NaN,
    infinities, other scalars) goes to json.
    """
    def text(value, indent):
        if not (isinstance(value, list) and value):
            return json.dumps(value)
        inner, deeper = "\n" + indent + "  ", indent + "  "
        items = [repr(item) if type(item) is float and math.isfinite(item) else text(item, deeper)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"

    fields = (f"  {json.dumps(key)}: {text(value, '  ')}" for key, value in payload.items())
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _write_columns(path, header, columns) -> None:
    """Write a CSV file of ``header`` and one row per entry of ``columns``
    (equal-length sequences, one per field) byte for byte as ``csv.writer``
    writes them when no field needs quoting: fields joined by ``,``, each
    line ended by ``\r\n``, and each entry written by ``%s``, which writes
    a Python float as its shortest round-trip ``repr``.

    Callers pass only integers, floats and strings from a fixed set (the
    class labels, with ``""`` for a missing one), none of which csv quotes.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(line.__mod__, zip(*columns)))


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
