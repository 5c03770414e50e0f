"""Reed-Solomon code definition and evaluation encoding."""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field as dataclass_field

from .galois import Field
from .polynomials import UniPoly


class DegreeTooHigh(ValueError):
    """Message polynomial degree is k or more."""


@dataclass
class CodeSpec:
    """RS code of length n and dimension k over `field`, evaluated on `support`.

    Default support is every nonzero element, so n = q - 1.
    """

    field: Field
    n: int
    k: int
    support: list[int] = dataclass_field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.support:
            self.support = self.field.all_elements()[1 : self.n + 1]
        if len(self.support) != self.n:
            raise ValueError(f"support has {len(self.support)} elements, expected n={self.n}")
        if len(set(self.support)) != self.n:
            raise ValueError("support elements must be distinct")
        if not 1 <= self.k <= self.n <= self.field.q:
            raise ValueError(f"need 1 <= k <= n <= q, got k={self.k}, n={self.n}, q={self.field.q}")
        if not all(0 <= x < self.field.q for x in self.support):
            raise ValueError(f"support elements must lie in [0, {self.field.q})")

    def to_json(self) -> dict:
        return {
            "m": self.field.m,
            "prim_poly": self.field.prim_poly,
            "n": self.n,
            "k": self.k,
            "support": list(self.support),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CodeSpec":
        """Parse a code object; a missing key or a wrong type or value raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"code must be a JSON object, got {type(obj).__name__}")
        f = Field(json_int(json_key(obj, "m"), "m"), json_int(json_key(obj, "prim_poly"), "prim_poly"))
        support = obj.get("support", [])
        if not isinstance(support, list):
            raise ValueError(f"support must be a list, got {type(support).__name__}")
        support = [f.parse_element(x) for x in support]
        return cls(f, json_int(json_key(obj, "n"), "n"), json_int(json_key(obj, "k"), "k"), support)


def json_key(obj: dict, key: str):
    """obj[key] of a JSON object, else ValueError naming the missing key."""
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


def json_int(value, what: str) -> int:
    """An integer field of a JSON file: an int or a decimal string, else ValueError naming the field and value."""
    with suppress(ValueError):  # a string that is no decimal integer
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def encode(code: CodeSpec, f: UniPoly) -> list[int]:
    """Evaluate the message polynomial on the support."""
    if f.degree != float("-inf") and f.degree >= code.k:
        raise DegreeTooHigh(f"deg f = {f.degree} >= k = {code.k}")
    return f.eval_many(code.support).tolist()
