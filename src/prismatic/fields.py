"""Exact arithmetic in the small finite fields the constructions need.

Elements of GF(p^k) are tuples of k coefficients over GF(p) in the polynomial
basis (little-endian: coeffs[i] multiplies x^i).  Every element also has an
integer index sum(coeffs[i] * p^i), used when field elements become graph
vertices.
"""

from __future__ import annotations

from functools import lru_cache

Elem = tuple[int, ...]

# q -> (p, k, modulus coefficients low->high including leading 1)
_EXTENSION_TABLE = {
    4: (2, 2, (1, 1, 1)),    # x^2 + x + 1
    9: (3, 2, (1, 0, 1)),    # x^2 + 1
    25: (5, 2, (2, 0, 1)),   # x^2 + 2
    49: (7, 2, (1, 0, 1)),   # x^2 + 1
}
_MAX_PRIME = 1021


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """GF(p^k) with a fixed irreducible modulus."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self.q = p**k
        if self.q <= 4096 and k > 1 and self._has_root():
            raise ValueError("modulus %r is reducible over GF(%d)" % (modulus, p))
        self.zero: Elem = (0,) * k
        self.one: Elem = (1,) + (0,) * (k - 1)

    def _has_root(self) -> bool:
        for x in range(self.p):
            acc = 0
            for c in reversed(self.modulus):
                acc = (acc * x + c) % self.p
            if acc == 0:
                return True
        return False

    # -- element plumbing ---------------------------------------------------

    def elements(self) -> list[Elem]:
        return [self.element(idx) for idx in range(self.q)]

    def element(self, index: int) -> Elem:
        if not 0 <= index < self.q:
            raise ValueError("index out of range")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(index % self.p)
            index //= self.p
        return tuple(coeffs)

    def index(self, a: Elem) -> int:
        return sum(c * self.p**i for i, c in enumerate(a))

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Elem, b: Elem) -> Elem:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Elem, b: Elem) -> Elem:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Elem) -> Elem:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Elem, b: Elem) -> Elem:
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the monic modulus
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(self.k):
                    prod[d - self.k + j] = (prod[d - self.k + j] - c * self.modulus[j]) % self.p
        return tuple(prod[: self.k])

    def pow(self, a: Elem, e: int) -> Elem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: Elem) -> Elem:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero")
        return self.pow(a, self.q - 2)

    # -- quadratic structure --------------------------------------------------

    def nonzero_squares(self) -> set[Elem]:
        if self.q % 2 == 0:
            raise ValueError("squares/nonsquares need odd q")
        return {self.mul(a, a) for a in self.elements() if a != self.zero}

    def squares_and_nonsquare(self) -> tuple[set[Elem], Elem]:
        """Nonzero squares plus the least-index nonsquare."""
        squares = self.nonzero_squares()
        for a in self.elements():
            if a != self.zero and a not in squares:
                return squares, a
        raise AssertionError("odd field without a nonsquare")

    def subfield_fixed_points(self) -> set[Elem]:
        """{x : x^sqrt(q) = x}; the sqrt(q)-element subfield when q is a square."""
        root = int(round(self.q**0.5))
        if root * root != self.q:
            raise ValueError("q is not a square")
        return {a for a in self.elements() if self.pow(a, root) == a}


@lru_cache(maxsize=None)
def get_field(q: int) -> FieldSpec:
    if q in _EXTENSION_TABLE:
        return FieldSpec(*_EXTENSION_TABLE[q])
    if q <= _MAX_PRIME and _is_prime(q):
        return FieldSpec(q, 1, (0, 1))
    raise ValueError("no field table entry for q=%d" % q)
