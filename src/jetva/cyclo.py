"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are represented by their coordinate vector in the power basis
1, zeta, ..., zeta^(phi(m)-1), held as integer numerators over one positive
common denominator in lowest terms.  Products are reduced modulo the monic
integer m-th cyclotomic polynomial with integer arithmetic alone, and each
result is normalised by one gcd.  No floating point anywhere: equality of
two scalars is equality of their numerators, denominator and order.

Scalars of different orders never mix; combining them raises
FieldMismatchError rather than guessing an embedding.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .value import Value, setters


class FieldMismatchError(TypeError):
    """Arithmetic between scalars of different cyclotomic orders."""


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler totient.

    >>> [euler_phi(m) for m in (1, 2, 3, 4, 6, 12)]
    [1, 1, 2, 2, 2, 4]
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    result = m
    for p in _prime_divisors(m):
        result -= result // p
    return result


def _prime_divisors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending, by trial division."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Exact division of integer polynomials, dense low-to-high, den monic.
    # Only the quotient is needed; the remainder must come out zero.
    num_l = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num_l[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num_l[i + j] -= c * d
    if any(num_l[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Dense integer coefficients (low to high) of the m-th cyclotomic polynomial.

    Computed by dividing z^m - 1 by the product of cyclotomic polynomials of
    the proper divisors of m.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    num = tuple([-1] + [0] * (m - 1) + [1])  # z^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod(num, cyclotomic_poly(d))
    return num


@lru_cache(maxsize=None)
def _modulus(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(m) and the nonzero (j, c) with j < phi(m) of Phi_m = z^phi + ...
    + sum c z^j, for the reduction of integer polynomials."""
    mod = cyclotomic_poly(m)
    return len(mod) - 1, tuple((j, c) for j, c in enumerate(mod[:-1]) if c)


def _reduce(work: list[int], m: int) -> tuple[int, ...]:
    """The remainder of a dense integer polynomial (low to high, consumed)
    modulo the monic Phi_m, padded to length phi(m): exact over Z."""
    phi, tail = _modulus(m)
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            base = i - phi
            for j, d in tail:
                work[base + j] -= c * d
    if len(work) < phi:
        work += [0] * (phi - len(work))
    return tuple(work[:phi])


def _product(a: tuple[int, ...], b: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The product of two reduced integer coordinate vectors, reduced."""
    if len(a) == 1:
        return (a[0] * b[0],)
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(prod, m)


def _conjugate(nums: tuple[int, ...], k: int, m: int) -> tuple[int, ...]:
    """The image of sum nums_i zeta^i under zeta -> zeta^k."""
    work = [0] * m
    for i, a in enumerate(nums):
        work[i * k % m] += a
    return _reduce(work, m)


def _mismatch(got: int, want: int) -> FieldMismatchError:
    return FieldMismatchError(
        f"scalar of order {got} used where order {want} expected"
    )


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without the Fraction.

    >>> ratio_str(-4, 6), ratio_str(6, 3)
    ('-2/3', '2')
    """
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


_new = object.__new__


class CycScalar(Value):
    """An element of Q(zeta_m), zeta_m = exp(2*pi*i/m), stored as the
    integer coordinates ``nums`` over one common denominator ``den``.

    The form is canonical: ``den > 0`` and gcd(den, *nums) == 1, so zero
    is (0, ..., 0) over 1 and equality and hashing are structural.
    ``CycScalar(m, coeffs)`` takes the phi(m) coordinates as ints or
    Fractions, and ``coeffs`` gives them back as Fractions.  Of ``Value``
    it keeps only the immutability: equality, hash, repr and pickling are
    its own.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs) -> None:
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != euler_phi(order):
            raise ValueError(
                f"order {order} takes {euler_phi(order)} coordinates, "
                f"not {len(fracs)}"
            )
        # The lcm of the reduced denominators is coprime to the numerators
        # taken together, so the form is canonical as it stands.
        den = math.lcm(*(f.denominator for f in fracs))
        _set_order(self, order)
        _set_nums(self, tuple(f.numerator * (den // f.denominator) for f in fracs))
        _set_den(self, den)

    def __reduce__(self):
        return _make, (self.order, self.nums, self.den)

    def __eq__(self, other):
        if type(other) is not CycScalar:
            return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.order, self.nums, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @classmethod
    def zero(cls, m: int) -> CycScalar:
        return _make(m, (0,) * euler_phi(m), 1)

    @classmethod
    def one(cls, m: int) -> CycScalar:
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, q) -> CycScalar:
        rest = (0,) * (euler_phi(m) - 1)
        if type(q) is int:
            return _make(m, (q, *rest), 1)
        q = Fraction(q)
        return _make(m, (q.numerator, *rest), q.denominator)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> CycScalar:
        return zeta_pow(m, k)

    @classmethod
    def coerce(cls, m: int, value) -> CycScalar:
        if isinstance(value, CycScalar):
            if value.order != m:
                raise _mismatch(value.order, m)
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(m, value)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycScalar")

    def __bool__(self) -> bool:
        return any(self.nums)

    def _plus(self, other, op) -> CycScalar:
        """self + other or self - other, as op is operator.add or .sub."""
        if type(other) is not CycScalar:
            other = CycScalar.coerce(self.order, other)
        elif other.order != self.order:
            raise _mismatch(other.order, self.order)
        nums, den, d = self.nums, self.den, other.den
        if d == den:
            return _canon(self.order, tuple(map(op, nums, other.nums)), den)
        return _canon(
            self.order,
            tuple([op(a * d, b * den) for a, b in zip(nums, other.nums)]),
            den * d,
        )

    def __add__(self, other):
        return self._plus(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return _make(self.order, tuple([-a for a in self.nums]), self.den)

    def __sub__(self, other):
        return self._plus(other, operator.sub)

    def __rsub__(self, other):
        return CycScalar.coerce(self.order, other) - self

    def __mul__(self, other):
        if type(other) is CycScalar:
            if other.order != self.order:
                raise _mismatch(other.order, self.order)
            return _canon(
                self.order,
                _product(self.nums, other.nums, self.order),
                self.den * other.den,
            )
        if isinstance(other, int):
            # a rational scales the coordinates; no product to reduce
            return _canon(self.order, tuple([a * other for a in self.nums]), self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _canon(
                self.order,
                tuple([a * p for a in self.nums]),
                self.den * other.denominator,
            )
        return self * CycScalar.coerce(self.order, other)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        m, nums, den = self.order, self.nums, self.den
        if self.is_rational():
            # num/den in lowest terms: den/num, the sign moved to the top
            num = nums[0]
            return _make(m, (den if num > 0 else -den, *nums[1:]), abs(num))
        return _inverse_by_norm(m, nums, den)

    def __truediv__(self, other):
        other = CycScalar.coerce(self.order, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("scalar exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = CycScalar.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __str__(self) -> str:
        parts: list[str] = []
        for j, a in enumerate(self.nums):
            if not a:
                continue
            c = ratio_str(a, self.den)
            if j == 0:
                mon = ""
            elif j == 1:
                mon = "zeta"
            else:
                mon = f"zeta^{j}"
            if not mon:
                body = c
            elif c == "1":
                body = mon
            elif c == "-1":
                body = f"-{mon}"
            else:
                body = f"{c}*{mon}"
            if not parts:
                # A leading "-zeta^j" would need a unary minus, which the
                # expression grammar lacks; spell the coefficient out.
                parts.append(f"-1*{mon}" if c == "-1" and mon else body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycScalar({self.order}, {self})"


_set_order, _set_nums, _set_den = setters(CycScalar)


def _make(order: int, nums: tuple[int, ...], den: int) -> CycScalar:
    """A scalar from coordinates already in canonical form."""
    s = _new(CycScalar)
    _set_order(s, order)
    _set_nums(s, nums)
    _set_den(s, den)
    return s


def _canon(order: int, nums: tuple[int, ...], den: int) -> CycScalar:
    """A scalar from integer coordinates over a positive denominator, put
    in canonical form by one gcd."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple([a // g for a in nums])
            den //= g
    return _make(order, nums, den)


def _inverse_by_norm(m: int, nums: tuple[int, ...], den: int) -> CycScalar:
    """(nums/den)^-1 for nonzero nums, through the norm.  With A = nums,
    the product B of the Galois conjugates of A other than A itself makes
    A*B the norm N(A), a nonzero integer, so (nums/den)^-1 = den*B / N(A)."""
    rest = (1,) + (0,) * (len(nums) - 1)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            rest = _product(rest, _conjugate(nums, k, m), m)
    norm = _product(nums, rest, m)[0]
    if norm < 0:
        norm, rest = -norm, tuple([-a for a in rest])
    return _canon(m, tuple([a * den for a in rest]), norm)


def zeta_pow(m: int, k: int) -> CycScalar:
    """zeta_m^k as a reduced CycScalar.

    >>> str(zeta_pow(3, 2))
    '-1 - zeta'
    >>> str(zeta_pow(1, 5))
    '1'
    """
    k %= m
    work = [0] * (k + 1)
    work[k] = 1
    return _make(m, _reduce(work, m), 1)
