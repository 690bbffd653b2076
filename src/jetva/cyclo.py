"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are represented by their coordinate vector in the power basis
1, zeta, ..., zeta^(phi(m)-1), with Fraction entries, reduced modulo the
m-th cyclotomic polynomial.  No floating point anywhere: equality of two
scalars is equality of coordinate tuples.

Scalars of different orders never mix; combining them raises
FieldMismatchError rather than guessing an embedding.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache


class FieldMismatchError(TypeError):
    """Arithmetic between scalars of different cyclotomic orders."""


def euler_phi(m: int) -> int:
    """Euler totient.

    >>> [euler_phi(m) for m in (1, 2, 3, 4, 6, 12)]
    [1, 1, 2, 2, 2, 4]
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    result = m
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


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


def _reduce(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    # Remainder of a dense Fraction polynomial modulo cyclotomic_poly(m),
    # padded to length phi(m).
    phi = euler_phi(m)
    mod = cyclotomic_poly(m)
    work = list(coeffs)
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            for j in range(len(mod)):
                work[i - len(mod) + 1 + j] -= c * mod[j]
    work = work[:phi]
    work += [Fraction(0)] * (phi - len(work))
    return tuple(work)


@dataclasses.dataclass(frozen=True)
class CycScalar:
    """An element of Q(zeta_m), zeta_m = exp(2*pi*i/m)."""

    order: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def zero(cls, m: int) -> CycScalar:
        return cls(m, tuple([Fraction(0)] * euler_phi(m)))

    @classmethod
    def one(cls, m: int) -> CycScalar:
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, q) -> CycScalar:
        v = [Fraction(q)] + [Fraction(0)] * (euler_phi(m) - 1)
        return cls(m, tuple(v))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> CycScalar:
        return zeta_pow(m, k)

    @classmethod
    def coerce(cls, m: int, value) -> CycScalar:
        if isinstance(value, CycScalar):
            if value.order != m:
                raise FieldMismatchError(
                    f"scalar of order {value.order} used where order {m} expected"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(m, value)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycScalar")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other):
        other = CycScalar.coerce(self.order, other)
        return CycScalar(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return CycScalar(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-CycScalar.coerce(self.order, other))

    def __rsub__(self, other):
        return (-self) + CycScalar.coerce(self.order, other)

    def __mul__(self, other):
        other = CycScalar.coerce(self.order, other)
        n = len(self.coeffs)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return CycScalar(self.order, _reduce(prod, self.order))

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        # Extended Euclid in Q[z]: u*self + v*Phi_m = gcd = nonzero constant,
        # so u/gcd is the inverse modulo Phi_m (Phi_m is irreducible over Q).
        mod = [Fraction(c) for c in cyclotomic_poly(self.order)]
        r0, r1 = mod, list(self.coeffs)
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in u1]
                return CycScalar(self.order, _reduce(inv, self.order))
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + len(r1) - 1] / r1[-1]
                q[i] = c
                if c:
                    for j in range(len(r1)):
                        rem[i + j] -= c * r1[j]
            rem = rem[: len(r1) - 1]
            # u_next = u0 - q*u1
            u_next = list(u0) + [Fraction(0)] * max(
                0, len(q) + len(u1) - 1 - len(u0)
            )
            for i, qc in enumerate(q):
                if qc:
                    for j, uc in enumerate(u1):
                        u_next[i + j] -= qc * uc
            r0, r1 = r1, rem
            u0, u1 = u1, u_next

    def __truediv__(self, other):
        other = CycScalar.coerce(self.order, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycScalar.coerce(self.order, other) * self.inverse()

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
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        parts: list[str] = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                mon = ""
            elif j == 1:
                mon = "zeta"
            else:
                mon = f"zeta^{j}"
            if not mon:
                body = str(c)
            elif c == 1:
                body = mon
            elif c == -1:
                body = f"-{mon}"
            else:
                body = f"{c}*{mon}"
            if not parts:
                # A leading "-zeta^j" would need a unary minus, which the
                # expression grammar lacks; spell the coefficient out.
                parts.append(f"-1*{mon}" if c == -1 and mon else body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycScalar({self.order}, {self})"


def zeta_pow(m: int, k: int) -> CycScalar:
    """zeta_m^k as a reduced CycScalar.

    >>> str(zeta_pow(3, 2))
    '-1 - zeta'
    >>> str(zeta_pow(1, 5))
    '1'
    """
    k %= m
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return CycScalar(m, _reduce(coeffs, m))
