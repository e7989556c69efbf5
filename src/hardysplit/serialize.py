"""Deterministic JSON emission for every report.

Reports go through the standard library encoder: floats are written as their
shortest round-tripping repr, dicts keep insertion order, so identical inputs
give byte-identical output.  Complex numbers become {"re": ..., "im": ...};
numpy arrays and scalars are written as their Python equivalents.  A
non-finite float is written as the token Infinity or NaN, which Python's json
reads back; reports that must stay strict JSON map such values to null
before serialising.
"""

from __future__ import annotations

import json

import numpy as np


def _default(obj):
    if isinstance(obj, complex):  # np.complex128 is a complex subclass
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json(obj) -> str:
    return json.dumps(obj, default=_default, ensure_ascii=False)
