"""Model file format: JSON documents holding space, coefficients, and kernel.

Schema:
    {
      "space": "sphere:2",
      "m": 2,
      "coeffs": [[[...], ...], ...],        # row-major m x m matrices
      "tail": {"c": 1.0, "r": 0.5},          # optional
      "temporal": {"variant": ..., ...}      # optional; absent => spatial
    }

Temporal variants: {"variant": "pure_spatial"},
{"variant": "ar1", "phi": 0.6}, {"variant": "exponential", "theta": 1.5},
{"variant": "ma1", "phi": [[...], ...]} (coeffs then hold the per-degree
innovation covariances). All numbers are IEEE doubles and round-trip
through emission and parsing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .spaces import parse_space
from .spectral import (
    SPATIAL,
    ZERO_LAG,
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    VectorMA1,
)


def _kernel_to_dict(kernel) -> dict:
    variant = getattr(kernel, "kind", None)
    if variant not in _VARIANTS:
        raise ModelFormatError(f"kernel {type(kernel).__name__} has no file representation")
    key, _, param = _VARIANTS[variant]
    return {"variant": variant} if key is None else {"variant": variant, key: param(kernel)}


def model_to_dict(model) -> dict:
    doc = {
        "space": model.space.label,
        "m": int(model.m),
        "coeffs": model.coeffs.tolist(),
    }
    if model.tail is not None:
        doc["tail"] = {"c": float(model.tail.c), "r": float(model.tail.r)}
    if model.domain != ZERO_LAG:
        doc["temporal"] = _kernel_to_dict(model.kernel)
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _is_number(v) -> bool:
    """A JSON number: an int or float, not a bool (which Python counts as an int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, what: str) -> float:
    _require(_is_number(v), f"{what} must be a number")
    return float(v)


def _parse_matrix(obj, m: int, what: str) -> np.ndarray:
    _require(isinstance(obj, list) and len(obj) == m, f"{what} must have {m} rows")
    for row in obj:
        _require(
            isinstance(row, list) and len(row) == m,
            f"{what} must be {m}x{m} row-major",
        )
        _require(all(map(_is_number, row)), f"{what} entries must be numbers")
    try:
        return np.asarray(obj, dtype=float)
    except OverflowError:
        raise ModelFormatError(f"{what} has an integer entry too large for a float") from None


# The temporal variants of the file format, read in both directions:
# variant -> (parameter field or None, build(value, m) -> kernel, kernel -> value).
# A kernel names its row through its `kind` attribute.
_VARIANTS = {
    "pure_spatial": (None, lambda v, m: PureSpatial(), None),
    "ar1": ("phi", lambda v, m: SeparableScalar("ar1", _float(v, "ar1 phi")),
            lambda k: float(k.param)),
    "exponential": ("theta", lambda v, m: SeparableScalar("exponential", _float(v, "theta")),
                    lambda k: float(k.param)),
    "ma1": ("phi", lambda v, m: VectorMA1(_parse_matrix(v, m, "ma1 phi")),
            lambda k: k.phi.tolist()),
}


def model_from_dict(doc: dict):
    _require(isinstance(doc, dict), "model document must be a JSON object")
    for key in ("space", "m", "coeffs"):
        _require(key in doc, f"model document is missing field {key!r}")
    _require(isinstance(doc["space"], str),
             "space must be a string 'family:dimension', such as 'sphere:2'")
    try:
        space = parse_space(doc["space"])
    except Exception as exc:
        raise ModelFormatError(f"bad space field: {exc}") from exc
    m = doc["m"]
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "m must be a positive integer")
    _require(isinstance(doc["coeffs"], list) and doc["coeffs"], "coeffs must be a nonempty array")
    coeffs = [
        _parse_matrix(c, m, f"coefficient {n}") for n, c in enumerate(doc["coeffs"])
    ]
    tail = None
    if doc.get("tail") is not None:
        tobj = doc["tail"]
        _require(
            isinstance(tobj, dict) and {"c", "r"} <= set(tobj),
            "tail must be an object with fields c and r",
        )
        try:
            tail = TailEnvelope(*(_float(tobj[k], f"tail {k}") for k in "cr"))
        except Exception as exc:
            raise ModelFormatError(f"bad tail envelope: {exc}") from exc
    kernel = SPATIAL
    if doc.get("temporal") is not None:
        tdoc = doc["temporal"]
        _require(isinstance(tdoc, dict) and "variant" in tdoc, "temporal must carry a variant")
        variant = tdoc["variant"]
        if not isinstance(variant, str) or variant not in _VARIANTS:
            raise ModelFormatError(f"unknown temporal variant {variant!r}")
        key, build, _ = _VARIANTS[variant]
        try:
            kernel = build(None if key is None else tdoc[key], m)
        except ModelFormatError:
            raise
        except KeyError as exc:
            raise ModelFormatError(f"temporal variant {variant!r} is missing field {exc}") from exc
        except Exception as exc:
            raise ModelFormatError(f"bad temporal kernel: {exc}") from exc
    return SeriesModel(space=space, m=m, coeffs=coeffs, kernel=kernel, tail=tail)


def dump_model(model) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def save_model(model, path) -> Path:
    path = Path(path)
    path.write_text(dump_model(model))
    return path


def load_model(path):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise ModelFormatError(f"{path}: JSON nested too deeply to parse") from None
    return model_from_dict(doc)


def model_hash(model) -> str:
    """SHA-256 of the canonical JSON form; identifies a model in sidecars."""
    payload = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
