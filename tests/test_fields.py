import random

import pytest

from prismatic.fields import FieldSpec, _is_prime, get_field


class TupleField:
    """Reference GF(p^k) on coefficient tuples (little-endian: coeffs[i]
    multiplies x^i), with schoolbook multiplication and reduction by the
    monic modulus.  The index map sum(coeffs[i] * p^i) turns a tuple into
    the integer that ``FieldSpec`` uses for the same element."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.modulus, self.q = p, k, tuple(modulus), p**k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def element(self, index):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(index % self.p)
            index //= self.p
        return tuple(coeffs)

    def index(self, a):
        return sum(c * self.p**i for i, c in enumerate(a))

    def elements(self):
        return [self.element(i) for i in range(self.q)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(self.k):
                    prod[d - self.k + j] = (prod[d - self.k + j] - c * self.modulus[j]) % self.p
        return tuple(prod[: self.k])

    def pow(self, a, e):
        result = self.one
        for _ in range(e):
            result = self.mul(result, a)
        return result

    def inv(self, a):
        return next(b for b in self.elements() if self.mul(a, b) == self.one)

    def nonzero_squares(self):
        return {self.mul(a, a) for a in self.elements() if a != self.zero}


def reference(f):
    return TupleField(f.p, f.k, f.modulus)


SMALL = [4, 9, 25, 49] + [q for q in range(2, 102) if _is_prime(q)]


@pytest.mark.parametrize("q", SMALL)
def test_operations_agree_with_the_tuple_reference(q):
    f = get_field(q)
    ref = reference(f)
    for a in range(q):
        ta = ref.element(a)
        for b in range(q):
            tb = ref.element(b)
            assert f.add(a, b) == ref.index(ref.add(ta, tb))
            assert f.sub(a, b) == ref.index(ref.sub(ta, tb))
            assert f.mul(a, b) == ref.index(ref.mul(ta, tb))
        for e in (0, 1, 2, 3, q - 1, q + 1):
            assert f.pow(a, e) == ref.index(ref.pow(ta, e))
        if a:
            assert f.inv(a) == ref.index(ref.inv(ta))
    if q % 2:
        assert f.nonzero_squares() == {ref.index(s) for s in ref.nonzero_squares()}


@pytest.mark.parametrize("q", SMALL)
def test_translate_adds_the_element_to_every_member_of_the_mask(q):
    f = get_field(q)
    rng = random.Random(q)
    masks = [0, (1 << q) - 1, 1, 1 << (q - 1)] + [rng.getrandbits(q) for _ in range(3)]
    for mask in masks:
        members = [x for x in range(q) if mask >> x & 1]
        for a in range(q):
            assert f.translate(mask, a) == sum(1 << f.add(x, a) for x in members)


def test_sampled_pairs_of_gf_1021_agree_with_the_tuple_reference():
    f = get_field(1021)
    ref = reference(f)
    rng = random.Random(1021)
    for _ in range(2000):
        a, b = rng.randrange(1021), rng.randrange(1021)
        ta, tb = ref.element(a), ref.element(b)
        assert f.add(a, b) == ref.index(ref.add(ta, tb))
        assert f.sub(a, b) == ref.index(ref.sub(ta, tb))
        assert f.mul(a, b) == ref.index(ref.mul(ta, tb))
        e = rng.randrange(40)
        assert f.pow(a, e) == ref.index(ref.pow(ta, e))
    squares = {ref.index(ref.mul(t, t)) for t in map(ref.element, range(1, 1021))}
    assert f.nonzero_squares() == squares


def test_reducible_modulus_is_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(3, 2, (2, 0, 1))  # x^2 + 2 = (x + 1)(x + 2) over GF(3)
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 3, (0, 1, 1, 1))  # x^3 + x^2 + x = x(x^2 + x + 1)


def test_non_prime_characteristic_and_non_monic_modulus_are_rejected():
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(4, 1, (0, 1))
    with pytest.raises(ValueError, match="monic"):
        FieldSpec(3, 2, (1, 0, 2))  # 2x^2 + 1
    with pytest.raises(ValueError, match="monic"):
        FieldSpec(3, 2, (1, 1))  # degree 1, not 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13, 25, 49])
def test_field_axioms_exhaustive(q):
    f = get_field(q)
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.sub(0, a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # commutativity + distributivity on a slice
    sample = range(min(q, 6))
    for a in sample:
        for b in sample:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                lhs = f.mul(a, f.add(b, c))
                rhs = f.add(f.mul(a, b), f.mul(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("q", [4, 9, 25, 49])
def test_multiplicative_group_is_cyclic_of_order_q_minus_1(q):
    f = get_field(q)
    orders = []
    for a in range(1, q):
        x, k = a, 1
        while x != 1:
            x = f.mul(x, a)
            k += 1
        orders.append(k)
        assert (q - 1) % k == 0
    assert max(orders) == q - 1  # a generator exists


def test_nonzero_squares_odd_q():
    f = get_field(13)
    sq = f.nonzero_squares()
    assert sq == {1, 3, 4, 9, 10, 12}


def test_squares_even_q_rejected():
    with pytest.raises(ValueError):
        get_field(4).nonzero_squares()


def test_paley_condition_minus_one_square_iff_1_mod_4():
    for q in (5, 9, 13, 25, 49):
        f = get_field(q)
        assert (f.sub(0, 1) in f.nonzero_squares()) == (q % 4 == 1)
    f7 = get_field(7)
    assert f7.sub(0, 1) not in f7.nonzero_squares()


def test_subfield_fixed_points():
    # the fixed points of the Frobenius map x -> x^7 form the subfield GF(7)
    f = get_field(49)
    fixed = {a for a in range(49) if f.pow(a, 7) == a}
    assert fixed == set(range(7))
    for a in fixed:
        for b in fixed:
            assert f.add(a, b) in fixed
            assert f.mul(a, b) in fixed


def test_frobenius_is_additive_in_gf9():
    f = get_field(9)
    for a in range(9):
        for b in range(9):
            assert f.pow(f.add(a, b), 3) == f.add(f.pow(a, 3), f.pow(b, 3))


def test_zero_has_no_inverse():
    f = get_field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


def test_unknown_field_size():
    with pytest.raises(ValueError):
        get_field(6)
    with pytest.raises(ValueError):
        get_field(1)
