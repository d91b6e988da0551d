"""Exact arithmetic in the small finite fields the constructions need.

An element of GF(p^k) is the integer 0..q-1 that also indexes it as a graph
vertex: its base-p digits, least significant first, are the coefficients of
a polynomial over GF(p) taken modulo a fixed monic irreducible modulus.
Addition and subtraction work digit by digit, and ``translate`` adds one
element to a whole bitmask of elements by rotating blocks of bits.
Multiplication, inversion, powers and the square set read log/antilog
tables of the least primitive element, built once when the field is made
(``get_field`` caches it).
"""

from __future__ import annotations

from functools import lru_cache

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
    """GF(p^k) with a fixed irreducible modulus; elements are 0..q-1."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self.q = p**k
        self.exp, self.log = self._log_tables()

    def _log_tables(self) -> tuple[list[int], list[int]]:
        """Powers of the least primitive element and their discrete logs.

        Only a field has an element of multiplicative order q - 1: modulo a
        reducible modulus the units are fewer than q - 1.  So the search
        failing is the irreducibility check.
        """
        q = self.q
        for g in range(1, q):
            exp, x = [1], g
            while x not in (0, 1) and len(exp) < q - 1:
                exp.append(x)
                x = self._slow_mul(x, g)
            if x == 1 and len(exp) == q - 1:
                log = [0] * q
                for i, a in enumerate(exp):
                    log[a] = i
                return exp, log
        raise ValueError("modulus %r is reducible over GF(%d)" % (self.modulus, self.p))

    def _axpy(self, a: int, b: int, s: int) -> int:
        """a + s * b for an integer scalar s, digit by digit in base p."""
        p, total, place = self.p, 0, 1
        while a or b:
            total += (a + s * b) % p * place
            a, b, place = a // p, b // p, place * p
        return total

    def _slow_mul(self, a: int, b: int) -> int:
        """a * b by Horner's rule over the digits of b; builds the tables."""
        p, top = self.p, self.q // self.p
        low = sum(c * p**i for i, c in enumerate(self.modulus[:-1]))  # modulus - x^k
        acc = 0
        for i in reversed(range(self.k)):
            hi, lo = divmod(acc, top)  # acc * x = lo * x + hi * x^k = lo * x - hi * low
            acc = self._axpy(self._axpy(lo * p, low, -hi), a, b // p**i % p)
        return acc

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._axpy(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._axpy(a, b, -1)

    def translate(self, mask: int, a: int) -> int:
        """The bitmask of {x + a : x in mask}, for a mask of elements.

        Adding the digit d at place p^i rotates each aligned block of
        p^(i+1) bits up by d * p^i, wrapping inside the block; for prime q
        that is one rotation of the whole q-bit mask.
        """
        p, q, place = self.p, self.q, 1
        while a:
            a, d = divmod(a, p)
            if d:
                block, shift = place * p, d * place
                # the low block - shift bits of every block move up without wrapping
                stay = ((1 << block - shift) - 1) * (((1 << q) - 1) // ((1 << block) - 1))
                mask = (mask & stay) << shift | (mask & ~stay) >> block - shift
            place *= p
        return mask

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def nonzero_squares(self) -> set[int]:
        """The even powers of the primitive element."""
        if self.q % 2 == 0:
            raise ValueError("squares/nonsquares need odd q")
        return set(self.exp[::2])


@lru_cache(maxsize=None)
def get_field(q: int) -> FieldSpec:
    if q in _EXTENSION_TABLE:
        return FieldSpec(*_EXTENSION_TABLE[q])
    if q <= _MAX_PRIME and _is_prime(q):
        return FieldSpec(q, 1, (0, 1))
    raise ValueError("no field table entry for q=%d" % q)
