"""Exact arithmetic over prime fields GF(p).

A :class:`Field` performs modular arithmetic on plain ints (the fast path
used by every sparse kernel in the package); :class:`FieldElement` wraps a
value together with its field for callers who want self-checking operands.
Construct fields through :func:`GF`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionByZeroError, FieldMismatchError, UsageError


# the first 12 primes: as Miller-Rabin bases they decide every n < 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 2 ** 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Prime field GF(p) acting on canonical int representatives in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _MAX_MODULUS:
            raise UsageError(f"field modulus must be below 2**64, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise UsageError(f"field modulus must be a prime integer, got {p!r}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    # int-level arithmetic; inputs are assumed canonical

    def normalize(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.p if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError(f"inverse of 0 in {self!r}")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def element(self, v: int) -> "FieldElement":
        return FieldElement(self, self.normalize(v))


_FIELD_CACHE: dict[int, Field] = {}


def GF(p: int) -> Field:
    """Return the field GF(p), cached per modulus."""
    f = _FIELD_CACHE.get(p)
    if f is None:
        f = Field(p)
        _FIELD_CACHE[p] = f
    return f


@dataclass(frozen=True)
class FieldElement:
    """A field value carrying its field, for self-checking arithmetic."""

    field: Field
    value: int

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixed moduli: {self.field!r} vs {other.field!r}"
                )
            return other.value
        raise UsageError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other) -> "FieldElement":
        return FieldElement(self.field, self.field.add(self.value, self._coerce(other)))

    def __sub__(self, other) -> "FieldElement":
        return FieldElement(self.field, self.field.sub(self.value, self._coerce(other)))

    def __mul__(self, other) -> "FieldElement":
        return FieldElement(self.field, self.field.mul(self.value, self._coerce(other)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"

