"""The artifact format: every JSON document the program writes.

A report is a dataclass deriving from :class:`Report`; its document is
its fields plus its declared ``kind``.  Points and tangent vectors are
written as coordinate lists, a region as its center and radius, and a
named tuple as an object of its fields.  :func:`dumps` is the one text
format: sorted keys, two-space indentation and a final newline.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import ClassVar

from .geometry import Point, Region, Tangent


class Report:
    """Base of the report dataclasses; ``kind`` names the report in its document."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return jsonable(self)


def jsonable(obj):
    """``obj`` as plain JSON values: dicts, lists, strings, numbers, bools and None."""
    if isinstance(obj, Report):
        doc = {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
        return {"kind": obj.kind, **doc}
    if isinstance(obj, Point):
        return obj.coords.tolist()
    if isinstance(obj, Tangent):
        return obj.components.tolist()
    if isinstance(obj, Region):
        return {"center": jsonable(obj.center), "radius": obj.radius}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(doc) -> str:
    """The artifact text of a document or report."""
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
