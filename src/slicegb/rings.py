"""Polynomial ring descriptions and power product helpers.

A power product is a plain tuple of non-negative integer exponents, one
entry per ring variable.  Keeping them as tuples makes them hashable and
directly usable as dict keys in the sparse polynomial representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

PowerProduct = Tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """A polynomial ring over Q, identified by its ordered variable names.

    The listing order is meaningful: orderings, printing, and pivot
    indices all refer to positions in ``names``.
    """

    names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not name:
                raise ValueError("empty variable name")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def drop(self, i: int) -> "Ring":
        """The ring with variable ``i`` removed (e.g. after a hyperplane cut)."""
        return Ring(self.names[:i] + self.names[i + 1:])

    def insert(self, i: int, name: str) -> "Ring":
        return Ring(self.names[:i] + (name,) + self.names[i:])

    def concat(self, other: "Ring") -> "Ring":
        return Ring(self.names + other.names)

    def fresh_name(self, stem: str = "t") -> str:
        candidate = stem
        k = 0
        while candidate in self.names:
            k += 1
            candidate = f"{stem}{k}"
        return candidate

    def __str__(self) -> str:
        return "QQ[" + ",".join(self.names) + "]"


def ring(*names: str) -> Ring:
    return Ring(tuple(names))


def pp_one(n: int) -> PowerProduct:
    return (0,) * n


def pp_mul(s: PowerProduct, t: PowerProduct) -> PowerProduct:
    return tuple(a + b for a, b in zip(s, t))


def pp_divides(s: PowerProduct, t: PowerProduct) -> bool:
    """True when s divides t."""
    return all(a <= b for a, b in zip(s, t))


def pp_degree(t: PowerProduct) -> int:
    return sum(t)


def pp_support(t: PowerProduct) -> Tuple[int, ...]:
    return tuple(i for i, e in enumerate(t) if e > 0)


def pp_drop(t: PowerProduct, i: int) -> PowerProduct:
    return t[:i] + t[i + 1:]


def pp_insert(t: PowerProduct, i: int, e: int) -> PowerProduct:
    return t[:i] + (e,) + t[i:]


def pp_project(t: PowerProduct, keep: Iterable[int]) -> PowerProduct:
    return tuple(t[i] for i in keep)
