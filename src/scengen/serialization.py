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
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")


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
