"""Concrete geometries and the ``kind:param`` space grammar.

Supported spellings: ``euclidean:M``, ``sphere:M`` (intrinsic dimension M),
``spd:K`` (K x K matrices), ``spider3``, and products such as
``product:spd:2+euclidean:3``.
"""

from __future__ import annotations

from ..errors import GeometryError
from .base import Space
from .euclidean import Euclidean
from .product import Product
from .sphere import Sphere
from .spd import SPD
from .spider import BRANCHES, Spider3, SpiderPoint, SpiderStep

__all__ = [
    "Space",
    "Euclidean",
    "Sphere",
    "SPD",
    "Spider3",
    "SpiderPoint",
    "SpiderStep",
    "Product",
    "BRANCHES",
    "parse_space",
]


def _parse_single(token: str) -> Space:
    name, sep, param = token.partition(":")
    name = name.strip().lower()
    if name == "spider3":
        if sep:
            raise GeometryError(f"spider3 takes no parameter, got {token!r}")
        return Spider3()
    if not sep:
        raise GeometryError(f"space {token!r} needs a dimension parameter, e.g. {name}:2")
    try:
        value = int(param)
    except ValueError as exc:
        raise GeometryError(f"bad dimension parameter in {token!r}") from exc
    if name == "euclidean":
        return Euclidean(value)
    if name == "sphere":
        return Sphere(value)
    if name == "spd":
        return SPD(value)
    raise GeometryError(f"unknown space kind {name!r}")


def parse_space(text: str) -> Space:
    """Build a :class:`Space` from its ``kind:param`` spelling."""
    text = text.strip()
    if text.lower().startswith("product:"):
        body = text[len("product:"):]
        tokens = [tok for tok in body.split("+") if tok]
        if len(tokens) < 2:
            raise GeometryError("product space needs at least 2 '+'-separated components")
        return Product(tuple(_parse_single(tok) for tok in tokens))
    return _parse_single(text)
