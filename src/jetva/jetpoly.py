"""Jet polynomials and truncated Puiseux series.

The ambient ring is the polynomial ring over Q(zeta_m) in jet variables
x[i, n]: ``i`` is the 1-based coordinate index of the base scheme and the
level ``n`` is an exact rational <= 0 whose denominator divides m.  Level 0
variables are the coordinates themselves; level -n carries weight n.  A
second disjoint alphabet (``point = 1``, printed ``xinf``) holds the copy of
the variables attached to the marked point at infinity in the coinvariant
computation.

Series in the formal variable z with exponents in (1/m)Z are represented
with an explicit truncation order: coefficients beyond the window are
unknown, not zero, and asking for one raises TruncationError.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .cyclo import CycScalar, FieldMismatchError


class TruncationError(ValueError):
    """A coefficient beyond the truncation window was requested."""


def binom(top, k: int) -> Fraction:
    """Generalized binomial coefficient with rational top.

    >>> binom(Fraction(5, 2), 2)
    Fraction(15, 8)
    >>> binom(-2, 3)
    Fraction(-4, 1)
    """
    if k < 0:
        return Fraction(0)
    if isinstance(top, int) and top >= 0:
        return Fraction(math.comb(top, k)) if k <= top else Fraction(0)
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(top) - j
    return num / math.factorial(k)


@dataclasses.dataclass(frozen=True, order=True)
class JetVar:
    """A jet variable x[index, level] (or xinf[...] when point = 1)."""

    point: int
    index: int
    minus_level: Fraction  # stored negated so natural ordering is by weight

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")
        if self.minus_level < 0:
            raise ValueError("level must be <= 0")
        if self.point not in (0, 1):
            raise ValueError("point must be 0 or 1")

    @property
    def level(self) -> Fraction:
        return -self.minus_level

    @property
    def weight(self) -> Fraction:
        return self.minus_level

    def shifted(self, delta) -> JetVar:
        return JetVar(self.point, self.index, self.minus_level - Fraction(delta))

    def __str__(self) -> str:
        name = "x" if self.point == 0 else "xinf"
        return f"{name}{self.index}[{-self.minus_level}]"


def jet_var(index: int, level, point: int = 0) -> JetVar:
    return JetVar(point, index, -Fraction(level))


@dataclasses.dataclass(frozen=True)
class Monomial:
    factors: tuple[tuple[JetVar, int], ...]  # sorted by variable, exponents > 0

    @classmethod
    def unit(cls) -> Monomial:
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[JetVar, int]) -> Monomial:
        acc: dict[JetVar, int] = {}
        for v, e in pairs:
            acc[v] = acc.get(v, 0) + e
        return cls(tuple(sorted((v, e) for v, e in acc.items() if e)))

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial.of(*self.factors, *other.factors)

    @property
    def weight(self) -> Fraction:
        return sum((v.weight * e for v, e in self.factors), Fraction(0))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    def character(self, exponents) -> int:
        """Sum of exponents[i-1] * multiplicity over the variables, any level."""
        total = 0
        for v, e in self.factors:
            total += exponents[v.index - 1] * e
        return total

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        bits = []
        for v, e in self.factors:
            bits.append(str(v) if e == 1 else f"{v}^{e}")
        return "*".join(bits)


@dataclasses.dataclass(frozen=True)
class JetPoly:
    """Sparse polynomial in jet variables with CycScalar coefficients.

    Immutable; terms are kept sorted with nonzero coefficients, so equality
    and hashing are structural.
    """

    order: int
    terms: tuple[tuple[Monomial, CycScalar], ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_dict(cls, order: int, acc: dict[Monomial, CycScalar]) -> JetPoly:
        items = tuple(
            sorted(
                ((mon, c) for mon, c in acc.items() if c),
                key=lambda mc: _mono_key(mc[0]),
            )
        )
        return cls(order, items)

    @classmethod
    def zero(cls, m: int) -> JetPoly:
        return cls(m, ())

    @classmethod
    def one(cls, m: int) -> JetPoly:
        return cls.const(m, 1)

    @classmethod
    def const(cls, m: int, value) -> JetPoly:
        c = CycScalar.coerce(m, value)
        return cls._from_dict(m, {Monomial.unit(): c})

    @classmethod
    def var(cls, m: int, index: int, level=0, point: int = 0) -> JetPoly:
        v = jet_var(index, level, point)
        return cls._from_dict(m, {Monomial.of((v, 1)): CycScalar.one(m)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon: Monomial) -> CycScalar:
        for m2, c in self.terms:
            if m2 == mon:
                return c
        return CycScalar.zero(self.order)

    def variables(self) -> set[JetVar]:
        out: set[JetVar] = set()
        for mon, _ in self.terms:
            out.update(v for v, _ in mon.factors)
        return out

    def homogeneous_weight(self):
        """The common weight of all terms, or None if mixed (zero -> 0)."""
        weights = {mon.weight for mon, _ in self.terms}
        if not weights:
            return Fraction(0)
        if len(weights) > 1:
            return None
        return weights.pop()

    def max_degree(self) -> int:
        return max((mon.degree for mon, _ in self.terms), default=0)

    def is_level_zero(self) -> bool:
        return all(
            v.minus_level == 0 for mon, _ in self.terms for v, _ in mon.factors
        )

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: JetPoly) -> None:
        if self.order != other.order:
            raise FieldMismatchError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, JetPoly):
            other = JetPoly.const(self.order, other)
        self._check(other)
        acc = dict(self.terms)
        for mon, c in other.terms:
            cur = acc.get(mon)
            acc[mon] = c if cur is None else cur + c
        return JetPoly._from_dict(self.order, acc)

    __radd__ = __add__

    def __neg__(self) -> JetPoly:
        return JetPoly(self.order, tuple((mon, -c) for mon, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, JetPoly):
            other = JetPoly.const(self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + JetPoly.const(self.order, other)

    def __mul__(self, other):
        if not isinstance(other, JetPoly):
            return self.scale(other)
        self._check(other)
        acc: dict[Monomial, CycScalar] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mon = m1 * m2
                c = c1 * c2
                cur = acc.get(mon)
                acc[mon] = c if cur is None else cur + c
        return JetPoly._from_dict(self.order, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> JetPoly:
        c = CycScalar.coerce(self.order, value)
        if not c:
            return JetPoly.zero(self.order)
        return JetPoly(self.order, tuple((mon, c * v) for mon, v in self.terms))

    def __pow__(self, n: int) -> JetPoly:
        if n < 0:
            raise ValueError("negative power of a jet polynomial")
        result = JetPoly.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mon, c in self.terms:
            body = _term_str(mon, c)
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"JetPoly({self.order}, {self})"


def _mono_key(mon: Monomial):
    return (mon.weight, mon.degree, mon.factors)


def _term_str(mon: Monomial, c: CycScalar) -> str:
    cs = str(c)
    if mon.factors == ():
        return cs
    if c.is_rational():
        q = c.as_rational()
        if q == 1:
            return str(mon)
        if q == -1:
            return f"-{mon}"
        return f"{q}*{mon}"
    return f"({cs})*{mon}"


def retag_point(p: JetPoly, point: int) -> JetPoly:
    """The same polynomial with every variable moved to the given alphabet."""
    acc: dict[Monomial, CycScalar] = {}
    for mon, c in p.terms:
        mon2 = Monomial.of(
            *(
                (JetVar(point, v.index, v.minus_level), e)
                for v, e in mon.factors
            )
        )
        acc[mon2] = acc.get(mon2, CycScalar.zero(p.order)) + c
    return JetPoly._from_dict(p.order, acc)


# ---------------------------------------------------------------------------
# the translation derivation T
# ---------------------------------------------------------------------------


def derivation_T(p: JetPoly) -> JetPoly:
    """T x[i,n] = -(n-1) x[i,n-1], extended as a derivation.

    >>> m = 1
    >>> x0 = JetPoly.var(m, 1, 0)
    >>> str(derivation_T(x0 * x0))
    '2*x1[0]*x1[-1]'
    """
    acc: dict[Monomial, CycScalar] = {}
    for mon, c in p.terms:
        for k, (v, e) in enumerate(mon.factors):
            coeff = c * CycScalar.from_rational(p.order, e * (1 - v.level))
            rest = list(mon.factors)
            if e == 1:
                rest.pop(k)
            else:
                rest[k] = (v, e - 1)
            mon2 = Monomial.of(*rest, (v.shifted(-1), 1))
            cur = acc.get(mon2)
            acc[mon2] = coeff if cur is None else cur + coeff
    return JetPoly._from_dict(p.order, acc)


def divided_t_power(p: JetPoly, n: int) -> JetPoly:
    """T^n(p) / n! ."""
    out = p
    for j in range(1, n + 1):
        out = derivation_T(out).scale(Fraction(1, j))
    return out


# ---------------------------------------------------------------------------
# diagonal automorphism action
# ---------------------------------------------------------------------------


def apply_automorphism(alpha, p: JetPoly) -> JetPoly:
    """Scale each term by zeta^(sum of alpha_i over its variable slots).

    ``alpha`` is a sequence indexed by coordinate (alpha[0] acts on x1); the
    action is diagonal, x[i,n] -> zeta^alpha_i x[i,n] at every level.
    """
    from .cyclo import zeta_pow

    acc: dict[Monomial, CycScalar] = {}
    for mon, c in p.terms:
        ch = mon.character(alpha)
        acc[mon] = c * zeta_pow(p.order, ch)
    return JetPoly._from_dict(p.order, acc)


def eigen_index(p: JetPoly, alpha):
    """Character of an eigen-homogeneous polynomial, None if mixed."""
    chars = {mon.character(alpha) % p.order for mon, _ in p.terms}
    if not chars:
        return 0
    if len(chars) > 1:
        return None
    return chars.pop()


# ---------------------------------------------------------------------------
# truncated Puiseux series
# ---------------------------------------------------------------------------


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclasses.dataclass(frozen=True)
class PuiseuxSeries:
    """Series sum coeff_w * z^w with JetPoly coefficients.

    ``trunc`` is the last exponent known exactly (None = exact everywhere).
    Finitely many negative exponents are allowed.
    """

    order: int
    coeffs: tuple[tuple[Fraction, JetPoly], ...]  # sorted by exponent, nonzero
    trunc: Fraction | None

    @classmethod
    def from_dict(cls, order: int, acc, trunc) -> PuiseuxSeries:
        items = tuple(
            sorted((Fraction(w), p) for w, p in acc.items() if not p.is_zero)
        )
        t = Fraction(trunc) if trunc is not None else None
        if t is not None and items and items[-1][0] > t:
            raise ValueError("series supported beyond its own window")
        return cls(order, items, t)

    def support(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.coeffs)

    def min_support(self):
        return self.coeffs[0][0] if self.coeffs else None

    def coefficient(self, w) -> JetPoly:
        w = Fraction(w)
        if self.trunc is not None and w > self.trunc:
            raise TruncationError(
                f"coefficient of z^{w} is beyond the window (trunc {self.trunc})"
            )
        for w2, p in self.coeffs:
            if w2 == w:
                return p
        return JetPoly.zero(self.order)

    def _check(self, other: PuiseuxSeries) -> None:
        if self.order != other.order:
            raise FieldMismatchError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._check(other)
        # The product is exact up to min(W_a + min_supp(b), W_b + min_supp(a)):
        # beyond that, unknown coefficients of one factor could contribute.
        sa = self.min_support()
        sb = other.min_support()
        ta = None if self.trunc is None else self.trunc + (sb if sb is not None else 0)
        tb = None if other.trunc is None else other.trunc + (sa if sa is not None else 0)
        t = _min_trunc(ta, tb)
        acc: dict[Fraction, JetPoly] = {}
        for wa, pa in self.coeffs:
            for wb, pb in other.coeffs:
                w = wa + wb
                if t is not None and w > t:
                    continue
                cur = acc.get(w)
                prod = pa * pb
                acc[w] = prod if cur is None else cur + prod
        return PuiseuxSeries.from_dict(self.order, acc, t)

    __rmul__ = __mul__

    def differentiate(self) -> PuiseuxSeries:
        """Formal d/dz; the window shrinks by one."""
        acc = {}
        for w, p in self.coeffs:
            if w != 0:
                acc[w - 1] = p.scale(w)
        t = None if self.trunc is None else self.trunc - 1
        return PuiseuxSeries.from_dict(self.order, acc, t)

    def truncate(self, new_trunc) -> PuiseuxSeries:
        nt = Fraction(new_trunc)
        if self.trunc is not None and nt > self.trunc:
            raise TruncationError(
                f"cannot widen window from {self.trunc} to {nt}"
            )
        return PuiseuxSeries(
            self.order,
            tuple((w, p) for w, p in self.coeffs if w <= nt),
            nt,
        )

    def mismatches(self, other: PuiseuxSeries):
        """Exponents (with differences) where the two disagree, compared on
        the overlap of the known windows."""
        self._check(other)
        t = _min_trunc(self.trunc, other.trunc)
        exps = {w for w, _ in self.coeffs} | {w for w, _ in other.coeffs}
        out = []
        for w in sorted(exps):
            if t is not None and w > t:
                continue
            d = self.coefficient(w) - other.coefficient(w)
            if not d.is_zero:
                out.append((w, d))
        return out

    def __str__(self) -> str:
        return self.to_str("z")

    def to_str(self, symbol: str) -> str:
        bits = []
        for w, p in self.coeffs:
            if w == 0:
                bits.append(f"({p})")
            else:
                bits.append(f"({p})*{symbol}^{w}")
        body = " + ".join(bits) if bits else "0"
        if self.trunc is not None:
            body += f" + O({symbol}^{self.trunc + 1})"
        return body


# ---------------------------------------------------------------------------
# jet substitution
# ---------------------------------------------------------------------------


def admissible_levels(offset: Fraction, max_weight) -> list[Fraction]:
    """Levels n <= 0 with n = offset mod 1 and weight -n <= max_weight,
    highest level first."""
    offset = Fraction(offset) % 1
    start = offset - 1 if offset else Fraction(0)
    out = []
    n = start
    while -n <= Fraction(max_weight):
        out.append(n)
        n -= 1
    return out


def substitute_jets(p: JetPoly, offsets, window) -> PuiseuxSeries:
    """Expand p along the generic (twisted) jet, exact up to the window.

    Coordinate x_i goes to its jet sum over admissible levels n of
    x[i,n] z^(-n), the levels running over offsets[i] + Z (``offsets`` maps
    the 1-based coordinate index to its coset offset in [0,1); a missing
    index means offset 0, the untwisted jet).  A source variable x[i,-d]
    goes to the d-th divided z-derivative of that sum,

        x[i,-d]  ->  sum_n C(-n, d) x[i,n] z^(-n-d),

    extended multiplicatively over monomials and linearly over terms.  The
    source may be any origin-alphabet polynomial with integer levels.

    Window rule: the result holds every z^w coefficient with w <= window,
    each exact, and asking it for one beyond raises TruncationError.  A
    coefficient is summed directly, over the level assignments of each
    monomial's factors whose exponents add up to w, of the product of the
    binomials; no series is multiplied.
    """
    m = p.order
    W = Fraction(window)
    top = W + max((mon.weight for mon, _ in p.terms), default=Fraction(0))
    # (index, d) -> [(exponent -n-d, C(-n,d), x[i,n])] by rising exponent.
    # The binomial vanishes only for the integer levels with -n < d, which
    # come first, so consecutive entries differ by one in the exponent.  No
    # factor of an assignment that fits the window has -n above ``top``.
    expansions: dict[tuple[int, int], list] = {}
    jet_vars: dict[tuple[int, Fraction], JetVar] = {}
    by_exp: dict[Fraction, dict[Monomial, CycScalar]] = {}
    for mon, c in p.terms:
        slots = []
        for v, e in mon.factors:
            if v.point != 0 or v.minus_level.denominator != 1:
                raise ValueError(
                    "substitute_jets expects origin-alphabet variables with "
                    "integer levels"
                )
            key = (v.index, int(v.minus_level))
            terms = expansions.get(key)
            if terms is None:
                terms = []
                for n in admissible_levels(offsets.get(v.index, 0), top):
                    b = binom(-n, key[1])
                    if b:
                        var = jet_vars.get((v.index, n))
                        if var is None:
                            var = jet_vars[(v.index, n)] = JetVar(0, v.index, -n)
                        terms.append((-n - key[1], b, var))
                expansions[key] = terms
            slots.extend([terms] * e)
        if not all(slots):
            continue
        lowest = sum(terms[0][0] for terms in slots)
        if lowest > W:
            continue
        room = int(W - lowest)
        found: dict[tuple[int, tuple[JetVar, ...]], Fraction] = {}
        _assign(slots, 0, room, Fraction(1), [], found)
        for (left, chosen), q in found.items():
            bucket = by_exp.setdefault(lowest + room - left, {})
            mon2 = Monomial.of(*((var, 1) for var in chosen))
            val = c * q
            cur = bucket.get(mon2)
            bucket[mon2] = val if cur is None else cur + val
    return PuiseuxSeries.from_dict(
        m, {w: JetPoly._from_dict(m, b) for w, b in by_exp.items()}, W
    )


def _assign(slots, k, room: int, q, chosen, found) -> None:
    """Add q times the binomials of every assignment of slots[k:] that
    raises the exponents above their minima by at most ``room`` in all into
    ``found``, keyed by the room left and the sorted chosen variables."""
    if k == len(slots):
        key = (room, tuple(sorted(chosen)))
        found[key] = found.get(key, 0) + q
        return
    for extra, (_, b, var) in enumerate(slots[k]):
        if extra > room:
            break
        chosen.append(var)
        _assign(slots, k + 1, room - extra, q * b, chosen, found)
        chosen.pop()
