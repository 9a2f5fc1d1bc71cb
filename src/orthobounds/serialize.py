"""JSON and CSV serialization for instances, reports and suite outcomes.

The codec works a whole array at a time (one ``tolist`` out; one ``np.array``
and one type scan of its leaves in): real-field files hold bare numbers,
complex entries are ``[re, im]`` pairs, and all scalars of one array take the
same form (both forms are read).
A file is read only after its keys and their JSON types are checked, so
malformed input raises ValueError (CLI exit code 2).  CSV numbers carry 17
significant digits with a ``.`` decimal separator so values round-trip
exactly.

A report's ``digest`` names the instance it was computed from, not the
spelling of its file: SHA-256 over a JSON header (kind, field, dimension,
tolerance, indices, family size) and the little-endian complex128 bytes of
the members, x and the box endpoints (then y and ``box_y`` for a pair).
``digest(json.load(f))`` recomputes it from a file.  ``dump_json`` writes
the bytes of ``json.dumps(value, indent=2, sort_keys=True)``, with every
rectangular array of numbers written by one call of the C encoder.
"""

from __future__ import annotations

import csv
import hashlib
import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bounds import CoefficientBox
from .generate import Instance, PairInstance
from .quadrature import DiscretizedMeasureSpace, WeightedL2Context
from .space import (
    COMPLEX,
    DEFAULT_ORTHO_TOL,
    OrthonormalFamily,
    REAL,
    SpaceContext,
    Vector,
    as_vector,
)

CSV_DIGITS = 17

#: Keys of an instance file with the JSON types of their values: required,
#: then optional (``tolerance`` defaults to DEFAULT_ORTHO_TOL).
_INSTANCE_KEYS = {
    "field": str, "dimension": int, "vectors": list, "indices": list, "x": list, "box": dict,
}
_OPTIONAL_INSTANCE_KEYS = {"tolerance": (int, float), "y": list, "box_y": dict}
_BOX_KEYS = {"lower": list, "upper": list}

#: The same for a weighted-L2 file (``field`` defaults to real).
_L2_KEYS = {"kind": str, "nodes": list, "weights": list, "rho": list}
_OPTIONAL_L2_KEYS = {"field": str, "functions": dict}

#: The range of numpy's int64; np.array holds an integer far outside it as
#: a Python object.
_INT64 = np.iinfo(np.int64)


def encode_vector(vector: Vector, field: str) -> list:
    """A vector or a stack of rows as nested lists of numbers or ``[re, im]`` pairs."""
    a = np.asarray(vector, dtype=np.complex128)
    if field == REAL:
        return a.real.tolist()
    return np.stack((a.real, a.imag), -1).tolist()


def decode_vector(values, depth: int, field: str = COMPLEX) -> np.ndarray:
    """A ``depth``-d complex array (1: a vector, 2: rows) from numbers or ``[re, im]`` pairs;
    in a real ``field`` a zero imaginary part reads as the +0.0 of a bare
    number, so ``[re, -0.0]`` spells what ``re`` does."""
    a = _numbers(values)
    if a.ndim == depth:
        return a.astype(np.complex128)
    if a.ndim == depth + 1 and a.shape[-1] == 2:
        z = np.ascontiguousarray(a, dtype=float).view(np.complex128)[..., 0]
        if field == REAL:
            z.imag[z.imag == 0.0] = 0.0
        return z
    raise ValueError(f"expected {depth}-d numbers or [re, im] pairs, got shape {a.shape}")


def _numbers(values) -> np.ndarray:
    """``values`` as a numeric array; booleans, strings, nulls or objects raise
    ValueError, and so does an integer that numpy holds only as an object
    (beyond 64 bits), named with the int64 range.  np.array reads a boolean
    among numbers as 0 or 1, so the leaves, ``a.ndim`` levels down, are
    checked for one."""
    a = np.array(values)
    if a.dtype == object:
        wide = [v for v in a.flat if _is_json(v, int) and not _INT64.min <= v <= _INT64.max]
        if wide:
            raise ValueError(
                f"expected numbers, got the integer {wide[0]} outside the int64 range "
                f"[{_INT64.min}, {_INT64.max}]"
            )
    if a.dtype.kind not in "iuf":
        raise ValueError(f"expected numbers, got {a.dtype} entries")
    leaves = [values]
    for _ in range(a.ndim):
        leaves = chain.from_iterable(leaves)
    if bool in set(map(type, leaves)):
        raise ValueError("expected numbers, got a boolean entry")
    return a


def _is_json(value, kind) -> bool:
    """``value`` has the JSON type ``kind``; Python's bool is an int, JSON's
    true and false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_keys(payload, required: Mapping[str, type], optional: Mapping[str, type]) -> None:
    """ValueError unless ``payload`` is a JSON object holding every ``required``
    key and each present key has its listed JSON type (a boolean is not a
    number)."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    missing = sorted(required.keys() - payload.keys())
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    for key, kind in {**required, **optional}.items():
        if key in payload and not _is_json(payload[key], kind):
            raise ValueError(f"key {key!r} has a {type(payload[key]).__name__} value")


def instance_to_dict(instance: Instance | PairInstance) -> dict:
    ctx = instance.ctx
    fam = instance.family
    payload = {
        "field": ctx.field,
        "dimension": ctx.dimension,
        "vectors": encode_vector(fam.members, ctx.field),
        "tolerance": fam.tolerance,
        "indices": list(instance.indices),
        "x": encode_vector(instance.x, ctx.field),
    }
    if isinstance(instance, PairInstance):
        payload["box"] = _box_to_dict(instance.box_x, ctx.field)
        payload["y"] = encode_vector(instance.y, ctx.field)
        payload["box_y"] = _box_to_dict(instance.box_y, ctx.field)
    else:
        payload["box"] = _box_to_dict(instance.box, ctx.field)
    return payload


def instance_from_dict(payload: Mapping) -> Instance | PairInstance:
    """The instance a file describes; a missing key, a value of the wrong JSON
    type or a malformed array raises ValueError."""
    _check_keys(payload, _INSTANCE_KEYS, _OPTIONAL_INSTANCE_KEYS)
    ctx = SpaceContext(payload["field"], payload["dimension"])
    fam = OrthonormalFamily.from_members(
        ctx,
        decode_vector(payload["vectors"], 2, ctx.field),
        payload.get("tolerance", DEFAULT_ORTHO_TOL),
    )
    if not all(_is_json(i, int) for i in payload["indices"]):
        raise ValueError("key 'indices' must hold integers")
    indices = tuple(map(int, payload["indices"]))
    x = as_vector(ctx, decode_vector(payload["x"], 1, ctx.field))
    box = _box_from_dict(payload["box"], indices, ctx.field)
    if "y" in payload:
        y = as_vector(ctx, decode_vector(payload["y"], 1, ctx.field))
        box_y = _box_from_dict(payload.get("box_y", payload["box"]), indices, ctx.field)
        return PairInstance(ctx, x, y, fam, indices, box, box_y)
    return Instance(ctx, x, fam, indices, box)


def _box_to_dict(box: CoefficientBox, field: str) -> dict:
    return {
        "lower": encode_vector(box.lower_array, field),
        "upper": encode_vector(box.upper_array, field),
    }


def _box_from_dict(payload: Mapping, indices: tuple[int, ...], field: str) -> CoefficientBox:
    _check_keys(payload, _BOX_KEYS, {})
    lower, upper = (decode_vector(payload[key], 1, field) for key in ("lower", "upper"))
    return CoefficientBox(indices, lower, upper)


def l2_instance_to_dict(
    ctx: WeightedL2Context, functions: Mapping[str, Vector]
) -> dict:
    return {
        "kind": ctx.space.kind,
        "field": ctx.field,
        "nodes": ctx.space.nodes.tolist(),
        "weights": ctx.space.weights.tolist(),
        "rho": ctx.rho.tolist(),
        "functions": {
            name: encode_vector(values, ctx.field) for name, values in functions.items()
        },
    }


def l2_instance_from_dict(payload: Mapping) -> tuple[WeightedL2Context, dict[str, Vector]]:
    """The weighted-L2 context and sampled functions a file describes; a missing
    key, a value of the wrong JSON type or a non-numeric array raises ValueError."""
    _check_keys(payload, _L2_KEYS, _OPTIONAL_L2_KEYS)
    space = DiscretizedMeasureSpace(
        _numbers(payload["nodes"]), _numbers(payload["weights"]), payload["kind"]
    )
    ctx = WeightedL2Context(space, _numbers(payload["rho"]), payload.get("field", REAL))
    functions = {
        name: as_vector(ctx.context, decode_vector(values, 1, ctx.field))
        for name, values in payload.get("functions", {}).items()
    }
    return ctx, functions


def digest(payload: Mapping) -> str:
    """The report digest of the instance a file describes (see the module
    docstring); it raises ValueError as ``instance_from_dict`` does."""
    return _instance_digest(instance_from_dict(payload))


def _instance_digest(instance: Instance | PairInstance) -> str:
    ctx, fam = instance.ctx, instance.family
    pair = isinstance(instance, PairInstance)
    header = [
        "pair" if pair else "instance", ctx.field, int(ctx.dimension),
        float(fam.tolerance), list(instance.indices), fam.size,
    ]
    boxes = (instance.box_x, instance.box_y) if pair else (instance.box,)
    arrays = [fam.members, instance.x, boxes[0].lower_array, boxes[0].upper_array]
    if pair:
        arrays += [instance.y, boxes[1].lower_array, boxes[1].upper_array]
    h = hashlib.sha256(json.dumps(header).encode("ascii"))
    for a in arrays:
        h.update(np.asarray(a, dtype="<c16").tobytes())
    return h.hexdigest()


def report_payload(report, instance: Instance | PairInstance) -> dict:
    """Report dict carrying the digest of the instance it was computed from."""
    body = dict(report.to_dict())
    body["digest"] = _instance_digest(instance)
    return body


def dump_json(payload, path: str | Path | None) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, also written with a
    final newline to ``path`` unless it is None.  Dict keys must be strings.

    Before Python 3.13 the stdlib writes indented JSON with its pure-Python
    encoder, about three times slower than the C encoder on the large float
    arrays of instance and weighted-L2 files; this writer can go once the
    Python floor reaches 3.13, whose C encoder indents by itself.
    """
    text = _indented(payload, 0)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _indented(value, level: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    nesting ``level``.  A rectangular array of numbers is written by the C
    encoder on one line, then broken at its separators: a number token holds
    no ``", "`` and no bracket, so each run of r closing brackets, ``", "``
    and r opening brackets separates two rows at depth k - r (k the array's
    depth), longest runs first."""
    pad = "\n" + "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("dump_json needs string keys")
        items = (json.dumps(key) + ": " + _indented(value[key], level + 1) for key in sorted(value))
        return "{" + pad + "  " + ("," + pad + "  ").join(items) + pad + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value)
    try:
        a = np.array(value)
    except ValueError:  # ragged
        a = None
    if a is None or a.dtype.kind not in "biuf" or 0 in a.shape:
        items = (_indented(item, level + 1) for item in value)
        return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"
    k = a.ndim
    text = json.dumps(value)[k:-k]
    for r in range(k - 1, -1, -1):
        closing = "".join(pad + "  " * j + "]" for j in range(k - 1, k - 1 - r, -1))
        opening = "".join(pad + "  " * j + "[" for j in range(k - r, k))
        text = text.replace("]" * r + ", " + "[" * r, closing + "," + opening + pad + "  " * k)
    opening = "".join(pad + "  " * j + "[" for j in range(1, k))
    closing = "".join(pad + "  " * j + "]" for j in range(k - 1, -1, -1))
    return "[" + opening + pad + "  " * k + text + closing


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{float(v):.{CSV_DIGITS}g}" if isinstance(v, float) else v for v in row]
            )
