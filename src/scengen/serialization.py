"""JSON persistence for trained models, the CSV writer of the per-row
reports, and the writer of every file the package writes
(:func:`_overwrite`).

Floats are written with Python's shortest round-trip representation, so a
saved model reloads bit-identically and reruns are byte-stable.
"""

import contextlib
import json
import math
import os

from .errors import InputError
from .hmm import CategoricalHmm
from .qhmm import KrausModel


@contextlib.contextmanager
def _overwrite(path, newline=None):
    """``open(path, "w", newline=newline)`` that writes over the file's old
    bytes and cuts it at the written length when the body ends.

    Truncating a file that holds data on open costs far more than writing
    over it (a 0.2-20 KB file on ext4 mounted with ``discard`` took 95-116 us
    truncated on open and 12-14 us written over), and every rerun into the
    same ``--out`` would pay that on each output.

    As with ``"w"``, a symlink is written through, a hard link and the
    permission bits of an existing file are kept, and a new file gets mode
    ``0o666`` less the umask. A body that raises, ``KeyboardInterrupt``
    included, also has the file cut, so it leaves a prefix of the new bytes
    as ``"w"`` does; only a process killed while writing (or a cut that
    fails after the body raised) leaves the new bytes followed by the old
    file's tail.
    """
    with open(path, "w", newline=newline,
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        except BaseException:
            # the body's exception is the one to report
            with contextlib.suppress(OSError):
                fh.truncate()
            raise
        fh.truncate()


def save_model(model, path) -> None:
    with _overwrite(path) as fh:
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
    with _overwrite(path, newline="") as fh:
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
