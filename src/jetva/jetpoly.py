"""Jet polynomials and truncated Puiseux series.

The ambient ring is the polynomial ring over Q(zeta_m) in jet variables
x[i, n]: ``i`` is the 1-based coordinate index of the base scheme and the
level ``n`` <= 0 lies in (1/m)Z.  Level 0 variables are the coordinates
themselves; level -n carries weight n, which a variable holds as two ints,
num/den in lowest terms.  ``floor_units`` and ``exact_units`` turn a
rational into ints in units of 1/q, and a Fraction is made only where a
level or a weight is printed or asked for.  A
second disjoint alphabet (``point = 1``, printed ``xinf``) holds the copy of
the variables attached to the marked point at infinity in the coinvariant
computation.

Series in the formal variable z with exponents in (1/m)Z are represented
with an explicit truncation order: coefficients beyond the window are
unknown, not zero, and asking for one raises TruncationError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from operator import add, itemgetter
from types import MappingProxyType

from .cyclo import CycScalar, FieldMismatchError, _canon, _product, euler_phi, ratio_str
from .value import Value, setters


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
    top = Fraction(top)
    return Fraction(*binom_units(top.numerator, top.denominator, k))


def binom_units(top: int, q: int, k: int) -> tuple[int, int]:
    """C(top/q, k) for k >= 0 as an int numerator over the fixed
    denominator q^k * k!, which depends on q and k alone and is not reduced.

    >>> binom_units(5, 2, 2)  # C(5/2, 2) = 15/8
    (15, 8)
    >>> binom_units(3, 2, 2)  # C(3/2, 2) = 3/8
    (3, 8)
    >>> binom_units(-2, 1, 3)  # C(-2, 3) = -4
    (-24, 6)
    """
    num = 1
    for j in range(k):
        num *= top - j * q
    return num, q**k * math.factorial(k)


def floor_units(x, q: int) -> int:
    """x in units of 1/q, rounded down: the largest k with k/q <= x, for an
    int, a Fraction or anything else ``Fraction`` reads.

    >>> floor_units(Fraction(5, 2), 3), floor_units(Fraction(-1, 2), 3)
    (7, -2)
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator * q // x.denominator


def exact_units(x, q: int) -> int | None:
    """x in units of 1/q, x*q, when that is an int, else None; for an int
    or Fraction x.

    >>> exact_units(Fraction(2, 3), 6), exact_units(Fraction(1, 2), 3)
    (4, None)
    """
    d = x.denominator
    return None if q % d else x.numerator * (q // d)


@total_ordering
class JetVar(Value):
    """A jet variable x[index, level] (or xinf[...] when point = 1).

    The weight -level is held as the ints num/den in lowest terms, den >= 1
    and num >= 0; ``level`` and ``weight`` make the Fraction on demand.
    Variables compare as the tuples (point, index, weight) do, so by
    alphabet, coordinate, then weight, on ints.
    """

    __match_args__ = ("point", "index", "num", "den")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, point: int, index: int, num: int, den: int):
        if index < 1:
            raise ValueError("variable index must be >= 1")
        if num < 0:
            raise ValueError("level must be <= 0")
        if den < 1 or math.gcd(num, den) != 1:
            raise ValueError(f"weight {num}/{den} is not in lowest terms over den >= 1")
        if point not in (0, 1):
            raise ValueError("point must be 0 or 1")
        _set_point(self, point)
        _set_index(self, index)
        _set_num(self, num)
        _set_den(self, den)
        # Worked out once: every dict lookup would otherwise rehash the tuple.
        _set_var_hash(self, hash((point, index, num, den)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        # The cached hash turns most unequal pairs away before any field
        # is compared.
        if self is other:
            return True
        if type(other) is not JetVar:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.index == other.index
            and self.point == other.point
            and self.num == other.num
            and self.den == other.den
        )

    def __lt__(self, other):
        if type(other) is not JetVar:
            return NotImplemented
        if self.point != other.point:
            return self.point < other.point
        if self.index != other.index:
            return self.index < other.index
        return self.num * other.den < other.num * self.den

    @property
    def level(self) -> Fraction:
        return Fraction(-self.num, self.den)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        name = "x" if self.point == 0 else "xinf"
        level = -self.num if self.den == 1 else f"{-self.num}/{self.den}"
        return f"{name}{self.index}[{level}]"


_set_point, _set_index, _set_num, _set_den, _set_var_hash = setters(JetVar)


def jet_var(index: int, level, point: int = 0) -> JetVar:
    """x[index, level]: the one constructor that takes a rational level."""
    if type(level) is int:
        return JetVar(point, index, -level, 1)
    level = Fraction(level)
    return JetVar(point, index, -level.numerator, level.denominator)


def retag_var(v: JetVar, point: int) -> JetVar:
    """The same variable on the given alphabet."""
    return JetVar(point, v.index, v.num, v.den)


class Monomial(Value):
    """A product of jet variables; its hash and its sort key (weight,
    degree, factors) are each worked out once."""

    __match_args__ = ("factors",)
    __slots__ = (*__match_args__, "_hash", "_key")

    def __init__(self, factors: tuple[tuple[JetVar, int], ...]):
        # factors sorted by variable, exponents > 0
        _set_factors(self, factors)
        _set_mono_hash(self, hash((factors,)))
        _set_key(self, None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if type(other) is not Monomial:
            return NotImplemented
        return self.factors == other.factors

    @classmethod
    def unit(cls) -> Monomial:
        return cls(())

    @classmethod
    def of(cls, *pairs: tuple[JetVar, int]) -> Monomial:
        acc: dict[JetVar, int] = {}
        for v, e in pairs:
            acc[v] = acc.get(v, 0) + e
        return cls(tuple([(v, acc[v]) for v in sorted(acc) if acc[v]]))

    def __mul__(self, other: Monomial) -> Monomial:
        """The product, by one merge of the two sorted factor tuples: a
        variable of both gets the sum of its exponents."""
        left, right = self.factors, other.factors
        if not right:
            return self
        if not left:
            return other
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            u, e = left[i]
            v, f = right[j]
            if u is not v:
                if u < v:
                    out.append(left[i])
                    i += 1
                    continue
                if v < u:
                    out.append(right[j])
                    j += 1
                    continue
            # one variable, as one object or as two equal ones
            out.append((u, e + f))
            i += 1
            j += 1
        out += left[i:]
        out += right[j:]
        return Monomial(tuple(out))

    @property
    def weight(self) -> int | Fraction:
        """The weight: an int when it is integral, else a Fraction."""
        return self.sort_key[0]

    @property
    def sort_key(self) -> tuple:
        """The order of ``JetPoly`` terms: weight, degree, factors.  The
        weight is an int when it is integral and a Fraction only when it
        is not; the two compare exactly, so the order is the same."""
        key = self._key
        if key is None:
            # The weight sum runs on ints, as num/den.
            num, den = 0, 1
            for v, e in self.factors:
                d = v.den
                if d == den:
                    num += v.num * e
                else:
                    num = num * d + v.num * e * den
                    den *= d
            weight = num // den if num % den == 0 else Fraction(num, den)
            key = (weight, self.degree, self.factors)
            _set_key(self, key)
        return key

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


_set_factors, _set_mono_hash, _set_key = setters(Monomial)


class JetPoly(Value):
    """Sparse polynomial in jet variables with CycScalar coefficients.

    Immutable; terms are kept sorted with nonzero coefficients, so equality
    and hashing are structural.  The hash is worked out on first use and
    kept.
    """

    __match_args__ = ("order", "terms")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, order: int, terms: tuple[tuple[Monomial, CycScalar], ...]):
        _set_order(self, order)
        _set_terms(self, terms)
        _set_poly_hash(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.order, self.terms))
            _set_poly_hash(self, h)
        return h

    def __eq__(self, other):
        if type(other) is not JetPoly:
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_dict(cls, order: int, acc: dict[Monomial, CycScalar]) -> JetPoly:
        items = tuple(
            sorted(
                ((mon, c) for mon, c in acc.items() if c),
                key=lambda mc: mc[0].sort_key,
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
        return all(v.num == 0 for mon, _ in self.terms for v, _ in mon.factors)

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
        mul_into(acc, self.terms, other.terms)
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


_set_order, _set_terms, _set_poly_hash = setters(JetPoly)


def _mono_key(mon: Monomial):
    return mon.sort_key


def mul_into(acc: dict, left, right) -> None:
    """Add the product of two polynomials, given by their terms, into a
    Monomial -> scalar dict."""
    for m1, c1 in left:
        for m2, c2 in right:
            mon = m1 * m2
            c = c1 * c2
            cur = acc.get(mon)
            acc[mon] = c if cur is None else cur + c


def _term_str(mon: Monomial, c: CycScalar) -> str:
    if mon.factors == ():
        return str(c)
    if c.is_rational():
        q = ratio_str(c.nums[0], c.den)
        if q == "1":
            return str(mon)
        if q == "-1":
            return f"-{mon}"
        return f"{q}*{mon}"
    return f"({c})*{mon}"


def retag_point(p: JetPoly, point: int) -> JetPoly:
    """The same polynomial with every variable moved to the given alphabet.

    ``p`` must use one alphabet only.  Variables compare by alphabet first,
    so the move keeps the order of the factors in each monomial and of the
    terms, and nothing is merged or re-sorted."""
    points = {v.point for mon, _ in p.terms for v, _ in mon.factors}
    if len(points) > 1:
        raise ValueError("retag_point takes a polynomial on one alphabet")
    return JetPoly(
        p.order,
        tuple(
            (
                Monomial(
                    tuple((retag_var(v, point), e) for v, e in mon.factors)
                ),
                c,
            )
            for mon, c in p.terms
        ),
    )


# ---------------------------------------------------------------------------
# shift derivations and the translation T
# ---------------------------------------------------------------------------


def shift_derivation(p: JetPoly, b: int, factor: int) -> JetPoly:
    """First-order derivation sending x[i,l] to -factor*(l+b) x[i,l+b] when
    l+b < 0 and to zero otherwise; either alphabet, any level coset.

    With l = -num/den, the landing level l+b is t/den for t = b*den - num,
    so the cut, the landing variable and its coefficient -factor*t/den are
    worked out on ints, once per variable of p.  A landing variable on the
    origin alphabet comes from the table that substitutions share.
    """
    acc: dict[Monomial, CycScalar] = {}
    # variable -> (x[i,l+b], -factor*(l+b)), or None when l+b >= 0
    landing: dict[JetVar, tuple | None] = {}
    for mon, c in p.terms:
        factors = mon.factors
        for slot, (v, e) in enumerate(factors):
            hit = landing.get(v, False)
            if hit is False:
                num, den = v.num, v.den
                t = b * den - num
                # Strictly positive landing levels are cut; at exactly zero
                # the coefficient -(l+b) vanishes on its own.
                if t >= 0:
                    hit = None
                else:
                    # gcd(t, den) = gcd(num, den) = 1: already lowest terms
                    q = -factor * t
                    hit = (
                        _jet_var(v.index, -t, den)
                        if v.point == 0
                        else JetVar(v.point, v.index, -t, den),
                        q if den == 1 else Fraction(q, den),
                    )
                landing[v] = hit
            if hit is None:
                continue
            new_var, q = hit
            coef = c * (q if e == 1 else q * e)
            rest = list(factors)
            rest[slot] = (v, e - 1)
            rest.append((new_var, 1))
            mon2 = Monomial.of(*rest)
            cur = acc.get(mon2)
            acc[mon2] = coef if cur is None else cur + coef
    return JetPoly._from_dict(p.order, acc)


def derivation_T(p: JetPoly) -> JetPoly:
    """T x[i,n] = -(n-1) x[i,n-1], extended as a derivation: the shift
    derivation L_-1.

    >>> m = 1
    >>> x0 = JetPoly.var(m, 1, 0)
    >>> str(derivation_T(x0 * x0))
    '2*x1[0]*x1[-1]'
    """
    return shift_derivation(p, -1, 1)


# One entry per polynomial: the chain [p, T(p), ..., T^N(p)/N!] of its
# divided translates, grown in place as longer prefixes are read.  Per job
# at seed 7 (in-process, every bounded cache emptied first), a descent-sweep
# job reads the chains of its 12 relations 292 times, to n = 8 for the
# generator tables and to n <= 4 for the shuffled descent checks, and
# applies derivation_T 96 times, once per distinct translate; 32 entries
# keyed on (p, n) applied it 223 times, since the shuffle evicts translates
# still to be read.  Holding the 96 raises the job's `peak_rss_mb` in
# perfbench/run.py by 0.21 MB (10.84 -> 11.05 MB, +2.0%, Python 3.11).  An
# axioms-zeta4 job reads 10 chains 135 times and builds 20 links, as many
# as the (p, n) memo did.
@lru_cache(maxsize=16)
def _translate_chain(p: JetPoly) -> list[JetPoly]:
    """The memo's chain of p's divided translates, [p] when new; only
    ``_divided_translates`` grows it."""
    return [p]


def _divided_translates(p: JetPoly, top: int) -> list[JetPoly]:
    """p's memo chain, grown to hold T^n(p)/n! at index n for n = 0..top;
    it may hold more.  Each new link is one ``derivation_T`` of the last,
    appended only once it is built, so a T that raises leaves the chain a
    correct prefix.  No call recurses, whatever top."""
    chain = _translate_chain(p)
    while len(chain) <= top:
        chain.append(derivation_T(chain[-1]).scale(Fraction(1, len(chain))))
    return chain


def translation_series(p: JetPoly, window) -> PuiseuxSeries:
    """e^(zT) p = sum_n T^n(p)/n! z^n, exact up to the window.

    Its z^n coefficient is the plain field's, the mode p_(-n-1) and the
    jet-equation generator P[n] at once, and the series is the oracle of
    ``substitute_jets`` at every exponent zero.  The divided translates come
    from one bounded memo, shared with ``divided_t_power``: each is one
    ``derivation_T`` of the one before, worked out only when the memo does
    not hold it.  A cold call applies ``derivation_T`` floor(window) times;
    a repeat while the memo still holds the translates applies it none.
    """
    m = p.order
    top = floor_units(window, m)
    chain = _divided_translates(p, top // m)
    terms = {n * m: chain[n] for n in range(top // m + 1)}
    return PuiseuxSeries(m, terms, top)


def divided_t_power(p: JetPoly, n: int) -> JetPoly:
    """T^n(p) / n!, the z^n coefficient of ``translation_series``; n >= 0.
    It reads the same memo: right after ``translation_series(p, W)`` with
    n <= W it applies ``derivation_T`` no more."""
    if n < 0:
        raise ValueError(f"negative translate {n}: T^n/n! needs n >= 0")
    return _divided_translates(p, n)[n]


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


# One zero per order, the known-zero coefficient every windowed read of a
# series of that order returns; a JetPoly is immutable, so it is shared.
@lru_cache(maxsize=16)
def _zero(m: int) -> JetPoly:
    return JetPoly.zero(m)


def beyond_window(w, top: int, order: int) -> TruncationError:
    """The error of a read of the coefficient of z^w past the window top,
    in units of 1/order: the one message of both kinds of series."""
    return TruncationError(
        f"coefficient of z^{w} is beyond the window (trunc {Fraction(top, order)})"
    )


def _product_top(a, b) -> int | None:
    """How far the unknown coefficients of a leave a product a*b exact, for
    two ``PuiseuxSeries`` or two ``CodedSeries``.

    They sit at a.top + 1 and beyond, and meet b's lowest coefficient that
    may be nonzero: its lowest visible term or, with none visible, b.top + 1.
    None when a is exact everywhere or b is exactly zero.
    """
    if a.top is None:
        return None
    low = next(iter(b.terms), None)
    if low is None:
        if b.top is None:
            return None
        low = b.top + 1
    return a.top + low


def _min_top(*tops) -> int | None:
    """The smallest window, None (exact everywhere) being the widest."""
    return min((t for t in tops if t is not None), default=None)


class PuiseuxSeries(Value):
    """Series sum coeff_w * z^w with JetPoly coefficients, w in (1/order)Z.

    ``terms`` maps k to the coefficient of z^(k/order); the constructor
    sorts it by k and drops zeros, and ``support`` gives the exponents as
    Fractions.  ``top`` is the window, also in units of 1/order: the last
    k whose coefficient is known exactly, or None when the series is exact
    everywhere.  ``trunc`` is the window as a Fraction, for messages.  Read
    as a field, the mode a_(n) is the coefficient of z^(-n-1).

    >>> s = PuiseuxSeries.from_dict(3, {2: JetPoly.var(3, 1)}, Fraction(5, 2))
    >>> list(s.terms), s.support(), s.top, s.trunc  # 5/2 floors to 7/3
    ([6], (Fraction(2, 1),), 7, Fraction(7, 3))
    >>> s.at(7), s.at(8)  # z^(7/3) is a known zero, z^(8/3) lies beyond
    (JetPoly(3, 0), None)
    """

    __slots__ = __match_args__ = ("order", "terms", "top")

    def __init__(self, order: int, terms: dict[int, JetPoly], top: int | None):
        if top is not None and type(top) is not int:
            raise TypeError(f"window {top!r} must be an int in units of 1/order")
        terms = {k: terms[k] for k in sorted(terms) if not terms[k].is_zero}
        if top is not None and terms and next(reversed(terms)) > top:
            raise ValueError("series supported beyond its own window")
        _set_series_order(self, order)
        _set_series_terms(self, terms)
        _set_top(self, top)

    @classmethod
    def from_dict(cls, order: int, acc, trunc) -> PuiseuxSeries:
        """The series with acc[w] at z^w, zeros dropped, known up to the
        rational window trunc (None = exact everywhere); every exponent w
        must be a multiple of 1/order."""
        units = {}
        for w, p in acc.items():
            k = exact_units(Fraction(w), order)
            if k is None:
                raise ValueError(f"exponent {w} is not a multiple of 1/{order}")
            units[k] = p
        return cls(order, units, None if trunc is None else floor_units(trunc, order))

    @property
    def trunc(self) -> Fraction | None:
        """The last exponent known exactly, top/order; None when exact."""
        return None if self.top is None else Fraction(self.top, self.order)

    def support(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.order) for k in self.terms)

    def min_support(self):
        k = next(iter(self.terms), None)
        return None if k is None else Fraction(k, self.order)

    def at(self, k: int) -> JetPoly | None:
        """The coefficient of z^(k/order), or None beyond the window: the
        one window rule every read goes through."""
        p = self.terms.get(k)
        if p is not None:
            return p
        if self.top is not None and k > self.top:
            return None
        return _zero(self.order)

    def coefficient(self, w) -> JetPoly:
        """The coefficient of z^w; beyond the window it raises."""
        if not isinstance(w, (int, Fraction)):
            w = Fraction(w)
        k = exact_units(w, self.order)
        p = None
        if k is not None:
            p = self.at(k)
        elif (
            self.top is None or w.numerator * self.order <= self.top * w.denominator
        ):
            p = _zero(self.order)  # off the lattice, inside the window
        if p is None:
            raise beyond_window(w, self.top, self.order)
        return p

    def mode(self, n) -> JetPoly:
        """The mode a_(n), the coefficient of z^(-n-1); an exact zero off
        the support is honest, beyond the window it raises."""
        return self.coefficient(-Fraction(n) - 1)

    def _check(self, other: PuiseuxSeries) -> None:
        if self.order != other.order:
            raise FieldMismatchError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._check(other)
        m = self.order
        top = _min_top(_product_top(self, other), _product_top(other, self))
        acc: dict[int, dict] = {}
        for ka, pa in self.terms.items():
            for kb, pb in other.terms.items():
                k = ka + kb
                if top is not None and k > top:
                    continue
                mul_into(acc.setdefault(k, {}), pa.terms, pb.terms)
        return PuiseuxSeries(
            m, {k: JetPoly._from_dict(m, terms) for k, terms in acc.items()}, top
        )

    __rmul__ = __mul__

    def differentiate(self) -> PuiseuxSeries:
        """Formal d/dz; the window shrinks by one.  The factor k/order of
        the coefficient at k is a scalar made from ints."""
        m = self.order
        rest = (0,) * (euler_phi(m) - 1)
        acc = {
            k - m: p.scale(_canon(m, (k, *rest), m)) for k, p in self.terms.items() if k
        }
        return PuiseuxSeries(m, acc, None if self.top is None else self.top - m)

    def first_mismatch(self, other: PuiseuxSeries) -> str | None:
        """The witness "z^w: difference" at the lowest exponent where the
        two disagree, compared on the overlap of the known windows, or None
        when they agree there.  Coefficients are subtracted only where
        they differ."""
        self._check(other)
        top = _min_top(self.top, other.top)
        for k in sorted(self.terms.keys() | other.terms.keys()):
            if top is not None and k > top:
                break
            x, y = self.at(k), other.at(k)
            if x == y:
                continue
            d = x - y
            if not d.is_zero:
                return f"z^{Fraction(k, self.order)}: {d}"
        return None

    def __str__(self) -> str:
        pairs = zip(self.support(), self.terms.values())
        bits = [f"({p})" if w == 0 else f"({p})*z^{w}" for w, p in pairs]
        body = " + ".join(bits) if bits else "0"
        if self.top is not None:
            body += f" + O(z^{Fraction(self.top + self.order, self.order)})"
        return body


_set_series_order, _set_series_terms, _set_top = setters(PuiseuxSeries)


# ---------------------------------------------------------------------------
# jet substitution
# ---------------------------------------------------------------------------


def admissible_levels(exponent: int, order: int, max_weight) -> list[Fraction]:
    """Levels n <= 0 in the coset exponent/order + Z with weight -n <=
    max_weight, highest level first."""
    hi = floor_units(max_weight, order)
    return [Fraction(-u, order) for u in _weight_units(exponent, order, hi)]


def _weight_units(a: int, q: int, hi: int) -> range:
    """The weights -n of the levels n <= 0 of a/q + Z with -n <= hi/q, in
    units of 1/q, highest level first.

    >>> list(_weight_units(1, 3, 5))  # levels -2/3, -5/3 of 1/3 + Z
    [2, 5]
    >>> list(_weight_units(0, 1, 2))
    [0, 1, 2]
    """
    return range(-a % q, hi + 1, q)


def _jet_expansion(a: int, q: int, d: int, hi: int) -> tuple:
    """The expansion of x[i,-d] along a jet whose levels run over a/q + Z,
    down to the weight hi/q: (first, den, entries).

    ``entries`` holds (C(-n,d)*den, num, dn) for every level n of
    ``admissible_levels(a, q, hi/q)`` with a nonzero binomial, highest
    level first, -n = num/dn in lowest terms.  Every binomial has the one
    denominator den = q^d * d!, so each numerator is an int.  ``first`` is
    the exponent -n-d of the first entry in units of 1/q (0 with no entry).

    >>> _jet_expansion(1, 2, 1, 5)  # x[-1] along the levels -1/2, -3/2, -5/2
    (-1, 2, ((1, 1, 2), (3, 3, 2), (5, 5, 2)))
    """
    out = []
    den = 1
    for u in _weight_units(a, q, hi):
        b, den = binom_units(u, q, d)
        if b:
            g = math.gcd(u, q)
            out.append((b, u // g, q // g))
    first = out[0][1] * (q // out[0][2]) - d * q if out else 0
    return first, den, tuple(out)


# One entry per (coset, d, window, layout) of a substitution's source
# variables.  Per job at seed 7 (in-process, every bounded cache emptied
# first): descent-sweep makes 1,579 reads for 138 keys, axioms-zeta4 264
# for 91, coinv-cusp and coinv-zeta4 8 for 6, so at 256 entries each key
# misses once.  Keyed on the coordinate too, descent-sweep met 222 keys and
# its `peak_rss_mb` in perfbench/run.py read 11.27 MB against 11.22 MB
# here (Python 3.11); shifting the codes to x_i once per call costs it
# about 0.5 ms a job.
@lru_cache(maxsize=256)
def _coded_slots(
    a: int, q: int, d: int, hi: int, m: int, bits: int, k: int, unit: int
) -> tuple:
    """The slot of x[1,-d] in a ``substitute_coded`` term: the expansion
    ``_jet_expansion(a, q, d, hi)`` with each level's code in the layout
    (bits, k, unit), as (first exponent in units of 1/m, binomial
    denominator, binomial numerators, codes of the x[1,n]), the last two
    by rising exponent.  The codes of x[i,n] are these shifted up by
    bits*(i-1).  The binomial vanishes only for the integer levels with
    -n < d, which come first, so consecutive entries differ by one in the
    exponent."""
    first, den, entries = _jet_expansion(a, q, d, hi)
    return (
        first * (m // q),
        den,
        tuple([b for b, _, _ in entries]),
        tuple([1 << bits * num * (unit // dn) * k for _, num, dn in entries]),
    )


# The known-zero coefficient every windowed read of a ``CodedSeries``
# returns; read-only, so it is shared.
_NO_TERMS = MappingProxyType({})


class CodedSeries(Value):
    """A substitution before it is materialised: what ``substitute_coded``
    returns and ``materialise`` turns into the ``PuiseuxSeries`` that
    ``substitute_jets`` returns.

    ``terms`` maps each exponent k, in units of 1/order and rising, whose
    coefficient of z^(k/order) is not zero to a dict {code: coordinates}:
    each output monomial, by its int code, with the tuple of the phi(order)
    int coordinates of its coefficient over the one denominator ``den``,
    not all zero.  ``layout`` is (bits, k, unit), which gives x[i,-u/unit]
    the bit field [bits*f, bits*(f+1)) of its exponent, f = u*k + i - 1
    (see ``substitute_coded``), and ``top`` is the window, the last k known
    exactly.  The dicts are shared with caches and never changed.

    Series of one layout multiply without a ``JetPoly``: ``at`` reads a
    coefficient by the window rule of ``PuiseuxSeries.at``, and ``*`` keeps
    the window of ``PuiseuxSeries.__mul__``.  ``polynomial`` reads one
    coefficient back as a ``JetPoly``, as a failing check's witness needs.
    """

    __slots__ = __match_args__ = ("order", "top", "den", "layout", "terms")

    def __init__(self, order: int, top: int, den: int, layout: tuple, terms: dict):
        _set_coded_order(self, order)
        _set_coded_top(self, top)
        _set_coded_den(self, den)
        _set_layout(self, layout)
        _set_coded_terms(self, terms)

    def at(self, k: int):
        """The coefficient of z^(k/order), {code: coordinates}, or None
        beyond the window; a known zero is an empty read-only mapping."""
        row = self.terms.get(k)
        if row is not None:
            return row
        return None if k > self.top else _NO_TERMS

    def __mul__(self, other):
        """The product, over the product of the two denominators.  The code
        of a product of monomials is the sum of their codes, which carries
        from one field into the next unless the layout's bits cover the sum
        of the two sources' degrees: the caller picks such a layout."""
        if not isinstance(other, CodedSeries):
            return NotImplemented
        m = self.order
        if (m, self.layout) != (other.order, other.layout):
            raise ValueError(
                f"mixed orders or layouts {(m, self.layout)} and "
                f"{(other.order, other.layout)}"
            )
        top = min(_product_top(self, other), _product_top(other, self))
        acc: dict[int, dict] = {}
        for ka, ra in self.terms.items():
            for kb, rb in other.terms.items():
                k = ka + kb
                if k > top:
                    break
                mul_rows(acc.setdefault(k, {}), ra, rb, m)
        return CodedSeries(m, top, self.den * other.den, self.layout, _coded_terms(acc))

    def prefix(self, top: int) -> CodedSeries:
        """The series known up to the window top, at most its own: its terms
        with k <= top, over the same denominator.  At its own window it is
        the series itself; a window beyond its own is refused."""
        if top == self.top:
            return self
        if top > self.top:
            raise ValueError(f"window {top} lies beyond the series' own, {self.top}")
        terms = {k: row for k, row in self.terms.items() if k <= top}
        return CodedSeries(self.order, top, self.den, self.layout, terms)

    def polynomial(self, k: int) -> JetPoly:
        """The coefficient of z^(k/order) as a ``JetPoly``: each code read
        once through ``_coded_monomial``, the coefficient put in canonical
        form over ``den`` once, so it is the very ``CycScalar`` that summing
        scalars would give, and the terms sorted as ``JetPoly`` keeps them,
        by weight, degree and factors, on the int sort key that comes with
        each code.  Beyond the window it raises TruncationError."""
        row = self.at(k)
        if row is None:
            raise beyond_window(Fraction(k, self.order), self.top, self.order)
        m, L = self.order, self.den
        bits, q, unit = self.layout
        rows = []
        for code, acc in row.items():
            mon, weight, degree, key = _coded_monomial(code, bits, q, unit)
            rows.append(((weight, degree, key), mon, _canon(m, acc, L)))
        rows.sort(key=itemgetter(0))
        return JetPoly(m, tuple((mon, val) for _, mon, val in rows))

    def materialise(self) -> PuiseuxSeries:
        """The series, one ``polynomial`` read per nonzero coefficient."""
        return PuiseuxSeries(
            self.order, {k: self.polynomial(k) for k in self.terms}, self.top
        )


(
    _set_coded_order,
    _set_coded_top,
    _set_coded_den,
    _set_layout,
    _set_coded_terms,
) = setters(CodedSeries)


def mul_rows(acc: dict, left, right, m: int) -> None:
    """Add the product of two coded coefficients, {code: coordinates} of
    one layout, into a dict {code: coordinates}: codes add, and coordinates
    multiply in Z[zeta_m]."""
    for c1, x1 in left.items():
        for c2, x2 in right.items():
            code = c1 + c2
            x = _product(x1, x2, m)
            cur = acc.get(code)
            acc[code] = x if cur is None else tuple([a + b for a, b in zip(cur, x)])


def _coded_terms(acc: dict) -> dict:
    """The ``CodedSeries`` terms of a dict {k: {code: coordinates}}: by
    rising k, the coordinates as tuples, every all-zero one and then every
    empty coefficient dropped."""
    terms = {}
    for k in sorted(acc):
        row = {code: tuple(xs) for code, xs in acc[k].items() if any(xs)}
        if row:
            terms[k] = row
    return terms


def substitute_jets(p: JetPoly, exponents, window) -> PuiseuxSeries:
    """Expand p along the generic (twisted) jet, exact up to the window.

    Coordinate x_i goes to its jet sum over admissible levels n of
    x[i,n] z^(-n), the levels running over exponents[i-1]/m + Z, m the
    order (``exponents`` is a tuple of ints read by position; a coordinate
    beyond it has exponent 0, the untwisted jet, and a non-int or bool
    exponent raises ValueError).  A source variable x[i,-d]
    goes to the d-th divided z-derivative of that sum,

        x[i,-d]  ->  sum_n C(-n, d) x[i,n] z^(-n-d),

    extended multiplicatively over monomials and linearly over terms.  The
    source may be any origin-alphabet polynomial with integer levels.

    Window rule: the result holds every z^w coefficient with w <= window,
    each exact; its window is the last such w in (1/m)Z, and asking it for
    a coefficient beyond raises TruncationError.

    The work is split in two.  The int kernel, ``substitute_coded`` at the
    window floored to (1/m)Z in units of 1/m, gives every output term as
    an int code and int coordinates over one denominator (a
    ``CodedSeries``); ``CodedSeries.materialise`` then builds the
    ``JetPoly`` coefficients.  A caller that only compares two expansions
    of one layout, as ``twisted.check_descent`` does, can stop at the
    kernel.

    Both terms below give x1[-1]*x2[-1] at z^1, with coordinates zeta/2
    and -zeta/2; they cancel exactly, and the term is dropped:

    >>> x1, x2 = JetPoly.var(3, 1), JetPoly.var(3, 2)
    >>> p = JetPoly.var(3, 1, -1) * x2 - x1 * JetPoly.var(3, 2, -1)
    >>> half_zeta = CycScalar.zeta(3) * Fraction(1, 2)
    >>> print(substitute_jets(p.scale(half_zeta), (), 1).coefficient(1))
    (-1*zeta)*x1[0]*x2[-2] + (zeta)*x1[-2]*x2[0]
    """
    return substitute_coded(p, exponents, floor_units(window, p.order)).materialise()


def substitute_coded(
    p: JetPoly, exponents, top_w: int, layout: tuple | None = None
) -> CodedSeries:
    """The int kernel of ``substitute_jets``: p expanded along the jet of
    the exponents, exact up to the window top_w/m, as a ``CodedSeries``.
    No ``JetPoly``, ``Monomial`` or ``CycScalar`` is made.

    The exponents and the source weights are read as ints in units of 1/m
    once per call.  Each binomial C(-n, d) is an int numerator over a
    denominator fixed by the coset and d, so every multiplicity is an int.
    A monomial is one int code: x[i,-u/q] owns the bit field
    [B*f, B*(f+1)) of its exponent, f = u*k + i - 1, where k is the
    highest coordinate index of the source, B the bit length of its
    highest degree and q the lcm of the denominators of its coordinates'
    cosets (1 when none is twisted, whatever m).  No output exponent
    exceeds that degree, so the code of a product is the sum of its
    factors' codes, with no carry between fields, and the codes of a
    monomial do not depend on the window.  The layout (B, k, q) reads
    only the source's coordinates and degrees, so T^n(p)/n!, whose
    monomials keep their coordinates and degrees, has the layout of p.

    A caller that multiplies or compares expansions of several sources
    passes one ``layout`` (bits, k, unit) for all of them.  It must cover
    the source: bits at least B, k at least its k and unit a multiple of
    its q; a layout that does not is refused with ValueError.  Without
    one, the source's own (B, k, q) is used.

    Each source variable x[i,-d] has one slot, its binomial numerators
    with the codes of its levels in the layout: those of x[1,-d] come from
    a shared cache bounded at 256 entries (``_coded_slots``), shifted to
    coordinate i once per call.  A source term c *
    mon is expanded in one pass over its slots, one slot per factor and
    repetition (see ``_expand_into``): the product starts from the first
    slot, runs over one dict {code: multiplicity} per step of 1 in the
    exponent above the term's lowest, cut at the window, and the last
    slot adds straight into the output.  With den the product of the
    term's binomial denominators and L the lcm of c.den * den over the
    source terms that reach the window, the term's coordinates over L are
    an int times the primitive direction of c.nums (first nonzero entry
    positive): multiplicities accumulate as ints, one accumulator per
    direction, scaled by that int, and each output code's phi(m) int
    coordinates, the sum over directions of multiplicity times direction,
    are built once at the end (``_coordinate_terms``).  A code whose
    coordinates are all zero is dropped.
    """
    m = p.order
    for i, a in enumerate(exponents, start=1):
        if type(a) is not int:
            raise ValueError(f"exponent {a} of x{i} is not an int")
    # (coefficient, factors, weight, degree) of each source term, on ints
    sources = []
    # coordinate -> its coset a/m + Z as a'/q + Z in lowest terms: (a', q)
    cosets = {}
    for mon, c in p.terms:
        weight = degree = 0
        for v, e in mon.factors:
            if v.point != 0 or v.den != 1:
                raise ValueError(
                    "substitute_jets expects origin-alphabet variables with "
                    "integer levels"
                )
            weight += v.num * e
            degree += e
            if v.index not in cosets:
                a = exponents[v.index - 1] if v.index <= len(exponents) else 0
                q = m // math.gcd(a, m)
                cosets[v.index] = (a * q // m % q, q)
        sources.append((c, mon.factors, weight, degree))
    # No factor of an assignment that fits the window has a weight above
    # ``top``, in units of 1/m.
    top = top_w + m * max((s[2] for s in sources), default=0)
    bits = max(1, max((s[3] for s in sources), default=0).bit_length())
    k = max(cosets, default=1)
    unit = math.lcm(*(q for _, q in cosets.values()))  # codes count 1/unit
    if layout is not None:
        if layout[0] < bits or layout[1] < k or layout[2] % unit:
            raise ValueError(
                f"layout {layout} does not cover the source, which needs "
                f"bits >= {bits}, k >= {k} and unit a multiple of {unit}"
            )
        bits, k, unit = layout
    layout = (bits, k, unit)
    # (i, d) -> the slot of x[i,-d] (see ``_coded_slots``)
    expansions: dict[tuple[int, int], tuple] = {}
    # The source terms that reach the window: (coefficient, binomial
    # denominator, lowest exponent, steps spanned, slots).
    kept = []
    for c, factors, weight, degree in sources:
        slots = []
        lowest = span = 0
        den = 1
        for v, e in factors:
            i, d = v.index, v.num
            entry = expansions.get((i, d))
            if entry is None:
                a, q = cosets[i]
                first, b_den, nums, codes = _coded_slots(
                    a, q, d, top * q // m, m, bits, k, unit
                )
                if i > 1:
                    codes = tuple([code << bits * (i - 1) for code in codes])
                entry = expansions[(i, d)] = first, b_den, nums, codes
            first, b_den, nums, codes = entry
            lowest += first * e
            span += (len(codes) - 1) * e
            den *= b_den**e
            slots.extend([(nums, codes)] * e)
        if lowest <= top_w and all(codes for _, codes in slots):
            kept.append((c, den, lowest, span, slots))
    # Every output coefficient is a sum of integer coordinates over the one
    # denominator L.
    L = math.lcm(*(c.den * den for c, den, *_ in kept))
    # A term's coordinates over L are an int times the primitive direction
    # of its coefficient: direction -> exponent in units of 1/m -> code ->
    # int multiplicity.
    by_direction: dict[tuple, dict[int, dict[int, int]]] = {}
    for c, den, lowest, span, slots in kept:
        nums = c.nums
        g = math.gcd(*nums)
        if (nums[0] or next(a for a in nums if a)) < 0:
            g = -g
        direction = tuple([a // g for a in nums])
        by_exp = by_direction.setdefault(direction, {})
        reach = min((top_w - lowest) // m, span)
        outs = [by_exp.setdefault(lowest + t * m, {}) for t in range(reach + 1)]
        _expand_into(outs, slots, g * (L // (c.den * den)))
    return CodedSeries(m, top_w, L, layout, _coordinate_terms(by_direction))


def _expand_into(outs, slots, scale: int) -> None:
    """Add scale times the product of the slots' expansions, each a pair
    (binomial numerators, codes) by rising exponent, into ``outs``, whose
    entry t maps the code of each monomial t steps above the lowest
    exponent to its int multiplicity; the product is cut past the last
    entry.

    The slots but the last are multiplied first, from the first slot's
    entries, over one dict per step in which equal partial products merge
    as they form, so an assignment of levels that only permutes repeated
    factors is never visited twice.  The last slot, scaled, is then added
    straight into ``outs``."""
    room = len(outs) - 1
    if not slots:  # a constant term
        outs[0][0] = outs[0].get(0, 0) + scale
        return
    *head, (last, last_codes) = slots
    last = [b * scale for b in last[: room + 1]]
    if not head:
        for out, b, code in zip(outs, last, last_codes):
            out[code] = out.get(code, 0) + b
        return
    nums, codes = head[0]
    steps = [{code: b} for b, code in zip(nums[: room + 1], codes)]
    for nums, codes in head[1:]:
        reach = min(room, len(steps) + len(codes) - 2)
        grown: list[dict[int, int]] = [{} for _ in range(reach + 1)]
        for t, part in enumerate(steps):
            for out, b, var_code in zip(grown[t:], nums, codes):
                for code, q in part.items():
                    code += var_code
                    out[code] = out.get(code, 0) + q * b
        steps = grown
    for t, part in enumerate(steps):
        rest = outs[t:]
        for base, q in part.items():
            for out, b, var_code in zip(rest, last, last_codes):
                code = base + var_code
                out[code] = out.get(code, 0) + q * b


def _coordinate_terms(by_direction: dict) -> dict:
    """The ``CodedSeries`` terms of the multiplicities of ``substitute_coded``,
    {direction: {k: {code: multiplicity}}}: by rising k, each code's
    coordinates, the sum over directions of multiplicity times direction,
    every all-zero one and then every empty coefficient dropped.  A
    direction that is a unit vector, as every rational coefficient's is,
    places its multiplicity between two zero tuples."""
    scales = []
    for direction, by_exp in by_direction.items():
        j = direction.index(1) if direction.count(0) == len(direction) - 1 else None
        if j is None:
            scales.append((by_exp, direction, None))
        else:
            scales.append((by_exp, direction[:j], direction[j + 1 :]))
    terms = {}
    for k in sorted({k for by_exp in by_direction.values() for k in by_exp}):
        row: dict[int, tuple] = {}
        for by_exp, pre, post in scales:
            for code, q in by_exp.get(k, _NO_TERMS).items():
                if q:
                    xs = tuple([q * x for x in pre]) if post is None else pre + (q,) + post
                    cur = row.get(code)
                    row[code] = xs if cur is None else tuple(map(add, cur, xs))
        if len(scales) > 1:
            row = {code: xs for code, xs in row.items() if any(xs)}
        if row:
            terms[k] = row
    return terms


def require_coordinates(a: JetPoly, exponents) -> tuple[int, ...]:
    """The exponents of a's own coordinates x_1, ..., read by position, the
    i-th acting on x_i; refuse the lowest coordinate that has no exponent."""
    indices = {v.index for mon, _ in a.terms for v, _ in mon.factors}
    k = max(indices, default=0)
    if k > len(exponents):
        missing = min(i for i in indices if i > len(exponents))
        raise ValueError(f"no exponent known for coordinate {missing}")
    return tuple(exponents[:k])


# One entry per (source, exponents, layout) of a field or relation read,
# whatever its window.  Per job at seed 7 (in-process, every bounded cache
# emptied first) axioms-zeta4 makes 390 reads for 103 keys, descent-sweep
# 336 for 56 and each coinv workload 6 for 6; at 64 entries they build
# 112, 56 and 6 expansions, and at 48 descent-sweep builds 116.
@lru_cache(maxsize=64)
def _expansion_memo(p: JetPoly, exponents: tuple, layout: tuple | None) -> list:
    """A key's entry: empty, then [p's widest expansion read so far]."""
    return []


def expansion(p: JetPoly, exponents: tuple, top: int, layout=None) -> CodedSeries:
    """``substitute_coded(p, exponents, top, layout)`` from one bounded memo
    keyed on (p, exponents, layout), the exponents of p's own coordinates
    (``require_coordinates``).  An entry holds p's expansion at the widest
    window read so far: a wider read replaces it, and a narrower one reads
    its prefix (``CodedSeries.prefix``), over the wider denominator, which
    readers cross-multiply or put in canonical form."""
    entry = _expansion_memo(p, exponents, layout)
    if not entry or entry[0].top < top:
        entry[:] = [substitute_coded(p, exponents, top, layout)]
    return entry[0].prefix(top)


# The variables and monomials of substitutions, shared across calls: the
# translates of a relation and its generators meet the same monomials, so
# each is built, hashed and given its sort key once, and comparing the
# terms of two series hits identity.  Variables are keyed on ints, never a
# Fraction; ``shift_derivation`` and the presentations take theirs from the
# same table.
@lru_cache(maxsize=128)
def _jet_var(index: int, num: int, den: int) -> JetVar:
    """x[index, -num/den] on the origin alphabet, num/den in lowest terms."""
    return JetVar(0, index, num, den)


# One entry per (code, layout) of a substitution's output, read once per
# output term that is materialised.  Per job at seed 7 (in-process, every
# bounded cache emptied first): a descent-sweep job makes 2,506 reads for
# 1,382 distinct keys and misses 1,515, so 133 reads rebuild an evicted
# entry, nearly all in the weight-8 generator tables; an axioms-zeta4 job,
# whose passing checks compare codes, makes none (5,202 reads and 1,583
# misses when its fields were materialised); coinv-cusp makes 85.  At
# 1,536 entries descent-sweep misses only its 1,382 keys but its peak
# memory reads 11.04 MB against 10.85 MB here (three runs each, bytecode
# cached), so the bound stays.  Older runs: 512 entries missed 4,166
# descent-sweep reads with the job 13% slower, and 2,048 entries cost
# +0.2 MB on both field-heavy workloads.
@lru_cache(maxsize=1024)
def _coded_monomial(code: int, bits: int, k: int, unit: int) -> tuple:
    """(monomial, U, degree, key) for a ``substitute_coded`` code: the
    ``Monomial``, built once from shared variables, its weight U in units
    of 1/unit, its degree, and an int key.  (U, degree, key) orders
    monomials as ``JetPoly`` sorts its terms.

    The exponent of x[i,-u/unit] is the bit field [bits*f, bits*(f+1)) of
    the code, f = u*k + i - 1.  The key packs one field of ``span`` bits
    per factor, (i-1)*(U+1) + u then the exponent, the first factor
    highest, and is shifted up to ``degree`` fields.  So among monomials
    of one weight and degree, where span is the same and no factor tuple
    is a prefix of another, the keys compare as the factor tuples do.
    """
    mask = (1 << bits) - 1
    found = []  # (i, u, exponent)
    while code:
        f = ((code & -code).bit_length() - 1) // bits
        e = code >> bits * f & mask
        code -= e << bits * f
        u, r = divmod(f, k)
        found.append((r + 1, u, e))
    found.sort()
    weight = sum(u * e for _, u, e in found)
    degree = sum(e for _, _, e in found)
    span = (k * (weight + 1)).bit_length() + bits
    factors = []
    key = 0
    for i, u, e in found:
        g = math.gcd(u, unit)
        factors.append((_jet_var(i, u // g, unit // g), e))
        key = key << span | ((i - 1) * (weight + 1) + u) << bits | e
    return Monomial(tuple(factors)), weight, degree, key << span * (degree - len(found))
