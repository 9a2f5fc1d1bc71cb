"""JSON and CSV serialization for instances, reports and suite outcomes.

The codec works a whole array at a time (one ``tolist`` out, one ``np.array``
in): real-field files hold bare numbers, complex entries are ``[re, im]``
pairs, and all scalars of one array take the same form (both forms are read).
CSV numbers carry 17 significant digits with a ``.`` decimal separator so
values round-trip exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bounds import CoefficientBox
from .generate import Instance, PairInstance
from .quadrature import (
    DiscretizedMeasureSpace,
    WeightedL2Context,
    sampled,
)
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


def format_float(value: float) -> str:
    return f"{float(value):.{CSV_DIGITS}g}"


def encode_vector(vector: Vector, field: str) -> list:
    """A vector or a stack of rows as nested lists of numbers or ``[re, im]`` pairs."""
    a = np.asarray(vector, dtype=np.complex128)
    if field == REAL:
        return a.real.tolist()
    return np.stack((a.real, a.imag), -1).tolist()


def decode_vector(values, depth: int) -> np.ndarray:
    """A ``depth``-d complex array (1: a vector, 2: rows) from numbers or ``[re, im]`` pairs."""
    a = np.array(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"expected numbers, got {a.dtype} entries")
    if a.ndim == depth:
        return a.astype(np.complex128)
    if a.ndim == depth + 1 and a.shape[-1] == 2:
        return np.ascontiguousarray(a, dtype=float).view(np.complex128)[..., 0]
    raise ValueError(f"expected {depth}-d numbers or [re, im] pairs, got shape {a.shape}")


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
    field = payload["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field tag {field!r}")
    ctx = SpaceContext(field, int(payload["dimension"]))
    fam = OrthonormalFamily.from_members(
        ctx,
        decode_vector(payload["vectors"], 2),
        float(payload.get("tolerance", DEFAULT_ORTHO_TOL)),
    )
    indices = tuple(int(i) for i in payload["indices"])
    x = as_vector(ctx, decode_vector(payload["x"], 1))
    box = _box_from_dict(payload["box"], indices)
    if "y" in payload:
        y = as_vector(ctx, decode_vector(payload["y"], 1))
        box_y = _box_from_dict(payload.get("box_y", payload["box"]), indices)
        return PairInstance(ctx, x, y, fam, indices, box, box_y)
    return Instance(ctx, x, fam, indices, box)


def _box_to_dict(box: CoefficientBox, field: str) -> dict:
    return {
        "lower": encode_vector(box.lower_array, field),
        "upper": encode_vector(box.upper_array, field),
    }


def _box_from_dict(payload: Mapping, indices: tuple[int, ...]) -> CoefficientBox:
    return CoefficientBox(
        indices, decode_vector(payload["lower"], 1), decode_vector(payload["upper"], 1)
    )


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
    space = DiscretizedMeasureSpace(
        np.asarray(payload["nodes"], dtype=float),
        np.asarray(payload["weights"], dtype=float),
        payload["kind"],
    )
    ctx = WeightedL2Context(
        space, np.asarray(payload["rho"], dtype=float), payload.get("field", REAL)
    )
    functions = {
        name: sampled(ctx, decode_vector(values, 1))
        for name, values in payload.get("functions", {}).items()
    }
    return ctx, functions


def digest(payload: Mapping) -> str:
    """Stable content hash of a JSON-serializable mapping."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_payload(report, instance_payload: Mapping) -> dict:
    """Report dict carrying the digest of the instance it was computed from."""
    body = dict(report.to_dict())
    body["digest"] = digest(instance_payload)
    return body


def dump_json(payload, path: str | Path | None) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else v for v in row]
            )
