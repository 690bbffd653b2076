"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are represented by their coordinate vector in the power basis
1, zeta, ..., zeta^(phi(m)-1), with Fraction entries, reduced modulo the
m-th cyclotomic polynomial.  No floating point anywhere: equality of two
scalars is equality of coordinate tuples.

Scalars of different orders never mix; combining them raises
FieldMismatchError rather than guessing an embedding.

``modular_root`` fixes one prime p and one root of Phi_m mod p per order,
and ``CycScalar.residue`` maps a scalar to F_p through them; the dimension
tables use that image only to certify full rank, never for a value.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from functools import lru_cache


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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first twelve primes as bases decide
    every n below 3.3 * 10^24.

    >>> [n for n in range(30) if _is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> _is_prime(2**31 - 1), _is_prime(3215031751)
    (True, False)
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def modular_root(m: int) -> tuple[int, int]:
    """A prime p with m | p - 1 and a root r of Phi_m mod p.

    p is the largest such prime below 2^31, or the least one above when m
    is too large for that; r = a^((p-1)/m) for the least a >= 2 that makes
    r of multiplicative order exactly m.  Then zeta_m -> r is a ring map
    from Z[zeta_m] onto F_p.

    >>> modular_root(1)
    (2147483647, 1)
    >>> p, r = modular_root(4)
    >>> (p - 1) % 4, r * r % p == p - 1
    (0, True)
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    top = (2**31 - 2) // m
    for k in itertools.chain(range(top, 0, -1), itertools.count(top + 1)):
        p = k * m + 1
        if _is_prime(p):
            break
    divisors = _prime_divisors(m)
    for a in itertools.count(2):
        r = pow(a, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in divisors):
            return p, r


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
        if isinstance(other, (int, Fraction)):
            # a rational shifts the constant coordinate only
            return CycScalar(self.order, (self.coeffs[0] + other, *self.coeffs[1:]))
        other = CycScalar.coerce(self.order, other)
        return CycScalar(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return CycScalar(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        other = CycScalar.coerce(self.order, other)
        return CycScalar(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the coordinates; no product to reduce
            return CycScalar(self.order, tuple(a * other for a in self.coeffs))
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
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def residue(self, p: int, r: int) -> int | None:
        """The image in F_p under zeta -> r, or None when p divides the
        denominator of a coordinate.

        >>> (CycScalar.zeta(3) - 2).residue(7, 2)
        0
        >>> CycScalar.from_rational(3, Fraction(1, 7)).residue(7, 2) is None
        True
        """
        acc = 0
        for a in reversed(self.coeffs):
            if a.denominator % p == 0:
                return None
            acc = (acc * r + a.numerator * pow(a.denominator, -1, p)) % p
        return acc

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
