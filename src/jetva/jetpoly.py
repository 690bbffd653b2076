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
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

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


def _cache_slot(**default):
    """A slot holding a value worked out from the fields, kept out of
    ``__init__``, ``repr`` and comparisons."""
    return dataclasses.field(init=False, repr=False, compare=False, **default)


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class JetVar:
    """A jet variable x[index, level] (or xinf[...] when point = 1)."""

    point: int
    index: int
    minus_level: Fraction  # stored negated so natural ordering is by weight
    _hash: int = _cache_slot()

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")
        if self.minus_level < 0:
            raise ValueError("level must be <= 0")
        if self.point not in (0, 1):
            raise ValueError("point must be 0 or 1")
        # The dataclass hash, worked out once: every dict lookup would
        # otherwise rehash the Fraction level.
        object.__setattr__(
            self, "_hash", hash((self.point, self.index, self.minus_level))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def level(self) -> Fraction:
        return -self.minus_level

    @property
    def weight(self) -> Fraction:
        return self.minus_level

    def __str__(self) -> str:
        name = "x" if self.point == 0 else "xinf"
        return f"{name}{self.index}[{-self.minus_level}]"


def jet_var(index: int, level, point: int = 0) -> JetVar:
    return JetVar(point, index, -Fraction(level))


@dataclasses.dataclass(frozen=True, slots=True)
class Monomial:
    """A product of jet variables; its hash and its sort key (weight,
    degree, factors) are each worked out once."""

    factors: tuple[tuple[JetVar, int], ...]  # sorted by variable, exponents > 0
    _hash: int = _cache_slot()
    _key: tuple | None = _cache_slot(default=None)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.factors,)))

    def __hash__(self) -> int:
        return self._hash

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
        if not other.factors:
            return self
        if not self.factors:
            return other
        return Monomial.of(*self.factors, *other.factors)

    @property
    def weight(self) -> Fraction:
        return self.sort_key[0]

    @property
    def sort_key(self) -> tuple:
        """The order of ``JetPoly`` terms: weight, degree, factors."""
        key = self._key
        if key is None:
            weight = sum((v.weight * e for v, e in self.factors), Fraction(0))
            key = (weight, self.degree, self.factors)
            object.__setattr__(self, "_key", key)
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


@dataclasses.dataclass(frozen=True, slots=True)
class JetPoly:
    """Sparse polynomial in jet variables with CycScalar coefficients.

    Immutable; terms are kept sorted with nonzero coefficients, so equality
    and hashing are structural.  The hash is worked out on first use and
    kept.
    """

    order: int
    terms: tuple[tuple[Monomial, CycScalar], ...]
    _hash: int | None = _cache_slot(default=None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.order, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

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


def _mono_key(mon: Monomial):
    return mon.sort_key


def add_into(acc: dict, terms, coef) -> None:
    """Add coef times the terms of a polynomial into a Monomial -> scalar
    dict."""
    for mon, c in terms:
        c = c * coef
        cur = acc.get(mon)
        acc[mon] = c if cur is None else cur + c


def mul_into(acc: dict, left, right, coef=None) -> None:
    """Add coef (default 1) times the product of two polynomials, given by
    their terms, into a Monomial -> scalar dict."""
    for m1, c1 in left:
        if coef is not None:
            c1 = c1 * coef
        for m2, c2 in right:
            mon = m1 * m2
            c = c1 * c2
            cur = acc.get(mon)
            acc[mon] = c if cur is None else cur + c


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
# shift derivations and the translation T
# ---------------------------------------------------------------------------


def shift_derivation(p: JetPoly, b: int, factor: int) -> JetPoly:
    """First-order derivation sending x[i,l] to -factor*(l+b) x[i,l+b] when
    l+b < 0 and to zero otherwise; either alphabet, any level coset."""
    acc: dict[Monomial, CycScalar] = {}
    for mon, c in p.terms:
        factors = mon.factors
        for slot, (v, e) in enumerate(factors):
            new_level = v.level + b
            # Strictly positive landing levels are cut; at exactly zero the
            # coefficient -(l+b) vanishes on its own.
            if new_level >= 0:
                continue
            coef = c * (-factor * e * new_level)
            rest = list(factors)
            rest[slot] = (v, e - 1)
            rest.append((jet_var(v.index, new_level, v.point), 1))
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


def translation_series(p: JetPoly, window) -> PuiseuxSeries:
    """e^(zT) p = sum_n T^n(p)/n! z^n, exact up to the window.

    The one loop over the divided translates: it applies ``derivation_T``
    floor(window) times.  Its z^n coefficient is the plain field's, the mode
    p_(-n-1) and the jet-equation generator P[n] at once, and the series is
    the oracle of ``substitute_jets`` at every offset zero.
    """
    W = Fraction(window)
    acc = {}
    cur = p
    for n in range(math.floor(W) + 1):
        if n:
            cur = derivation_T(cur).scale(Fraction(1, n))
        acc[n] = cur
    return PuiseuxSeries.from_dict(p.order, acc, W)


def divided_t_power(p: JetPoly, n: int) -> JetPoly:
    """T^n(p) / n!, the z^n coefficient of ``translation_series``."""
    return translation_series(p, n).coefficient(n)


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


def _product_window(a: PuiseuxSeries, b: PuiseuxSeries):
    """How far the unknown coefficients of a leave a product a*b exact.

    They sit beyond a's window and meet b's lowest coefficient that may be
    nonzero: its lowest visible term or, with none visible, one beyond its
    own window.  None when a is exact everywhere or b is exactly zero.
    """
    if a.trunc is None:
        return None
    low = b.min_support()
    if low is None:
        low = b.trunc
        if low is None:
            return None
    return a.trunc + low


@dataclasses.dataclass(frozen=True)
class PuiseuxSeries:
    """Series sum coeff_w * z^w with JetPoly coefficients.

    ``trunc`` is the last exponent known exactly (None = exact everywhere).
    Finitely many negative exponents are allowed.  Read as a field, the
    series has the mode a_(n) as its coefficient of z^(-n-1).
    """

    order: int
    coeffs: tuple[tuple[Fraction, JetPoly], ...]  # sorted by exponent, nonzero
    trunc: Fraction | None
    # (numerator, denominator) of an exponent -> its coefficient, on first read
    _by_exponent: dict | None = _cache_slot(default=None)

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

    def _read(self, num: int, den: int) -> JetPoly | None:
        """The coefficient of z^(num/den), given in lowest terms, or None
        beyond the window: the one window rule every read goes through."""
        index = self._by_exponent
        if index is None:
            index = {(w.numerator, w.denominator): p for w, p in self.coeffs}
            object.__setattr__(self, "_by_exponent", index)
        p = index.get((num, den))
        if p is not None:
            return p
        t = self.trunc
        if t is not None and num * t.denominator > t.numerator * den:
            return None
        return JetPoly.zero(self.order)

    def coefficient(self, w) -> JetPoly:
        """The coefficient of z^w; beyond the window it raises."""
        w = Fraction(w)
        p = self._read(w.numerator, w.denominator)
        if p is None:
            raise TruncationError(
                f"coefficient of z^{w} is beyond the window (trunc {self.trunc})"
            )
        return p

    def known_mode(self, n) -> JetPoly | None:
        """The mode a_(n), the coefficient of z^(-n-1), or None beyond the
        window."""
        if not isinstance(n, (int, Fraction)):
            n = Fraction(n)
        # For n = p/q in lowest terms, -n-1 = (-p-q)/q in lowest terms.
        return self._read(-n.numerator - n.denominator, n.denominator)

    def mode(self, n) -> JetPoly:
        """The mode a_(n); an exact zero off the support is honest, beyond
        the window it raises."""
        p = self.known_mode(n)
        if p is None:
            return self.coefficient(-Fraction(n) - 1)  # raises
        return p

    def _check(self, other: PuiseuxSeries) -> None:
        if self.order != other.order:
            raise FieldMismatchError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._check(other)
        t = _min_trunc(_product_window(self, other), _product_window(other, self))
        acc: dict[Fraction, dict] = {}
        for wa, pa in self.coeffs:
            for wb, pb in other.coeffs:
                w = wa + wb
                if t is not None and w > t:
                    continue
                mul_into(acc.setdefault(w, {}), pa.terms, pb.terms)
        return PuiseuxSeries.from_dict(
            self.order,
            {w: JetPoly._from_dict(self.order, terms) for w, terms in acc.items()},
            t,
        )

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

    def first_mismatch(self, other: PuiseuxSeries) -> str | None:
        """The witness "z^w: difference" at the lowest exponent where the
        two disagree, compared on the overlap of the known windows, or None
        when they agree there."""
        self._check(other)
        t = _min_trunc(self.trunc, other.trunc)
        exps = {w for w, _ in self.coeffs} | {w for w, _ in other.coeffs}
        for w in sorted(exps):
            if t is not None and w > t:
                break
            d = self.coefficient(w) - other.coefficient(w)
            if not d.is_zero:
                return f"z^{w}: {d}"
        return None

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


# One entry per (offset, d, top); each benchmark workload meets at most a
# few dozen.
@lru_cache(maxsize=256)
def _jet_expansion(offset, d: int, top) -> tuple:
    """The expansion of x[i,-d] along a jet whose levels run over offset + Z,
    up to weight top: (exponent -n-d, C(-n,d), k, n) for every level n of
    ``admissible_levels(offset, top)`` with a nonzero binomial, where k is
    the position of n in that list.  An integral binomial is an int."""
    out = []
    for k, n in enumerate(admissible_levels(offset, top)):
        b = binom(-n, d)
        if b:
            out.append((-n - d, b.numerator if b.denominator == 1 else b, k, n))
    return tuple(out)


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

    The assignments are enumerated on ints.  Within one call the variable
    x[i,n] is coded i*K + k, where k is the position of n among the
    admissible levels of coordinate i and K exceeds their number, so codes
    sort as the variables do, and an assignment is keyed by its sorted code
    tuple.  Each expansion of a source variable comes from a shared cache,
    bounded at 256 entries.  A coefficient's terms are sorted as
    ``JetPoly`` keeps them, by weight, degree and factors: at z^w a term
    from a source monomial of weight s has weight w + s, and its degree is
    the source's, so every key is made of ints.  Each variable and monomial
    of the result is built once.
    """
    m = p.order
    W = Fraction(window)
    top = W + max((mon.weight for mon, _ in p.terms), default=Fraction(0))
    # No factor of an assignment that fits the window has -n above ``top``,
    # so no coordinate has more than floor(top) + 1 levels.
    K = max(math.floor(top), 0) + 2
    # (i, d) -> (lowest exponent, [(C(-n,d), code of x[i,n])] by rising
    # exponent).  The binomial vanishes only for the integer levels with
    # -n < d, which come first, so consecutive entries differ by one in the
    # exponent.
    expansions: dict[tuple[int, int], tuple] = {}
    level_of: dict[int, Fraction] = {}
    # w -> sorted code tuple -> [weight of its source monomial, coefficient]
    by_exp: dict[Fraction, dict[tuple[int, ...], list]] = {}
    for mon, c in p.terms:
        slots = []
        lowest = 0
        src_weight = 0
        for v, e in mon.factors:
            if v.point != 0 or v.minus_level.denominator != 1:
                raise ValueError(
                    "substitute_jets expects origin-alphabet variables with "
                    "integer levels"
                )
            i, d = v.index, v.minus_level.numerator
            src_weight += d * e
            entry = expansions.get((i, d))
            if entry is None:
                exp = _jet_expansion(offsets.get(i, 0), d, top)
                base = i * K
                for _, _, k, n in exp:
                    level_of[base + k] = n
                entry = expansions[(i, d)] = (
                    exp[0][0] if exp else 0,
                    [(b, base + k) for _, b, k, _ in exp],
                )
            first, terms = entry
            lowest += first * e
            slots.extend([terms] * e)
        if not all(slots) or lowest > W:
            continue
        room = int(W - lowest)
        found: dict[tuple[int, tuple[int, ...]], int | Fraction] = {}
        _assign(slots, 0, room, 1, [], found)
        buckets = [by_exp.setdefault(lowest + j, {}) for j in range(room, -1, -1)]
        for (left, codes), q in found.items():
            bucket = buckets[left]
            val = c * q
            cur = bucket.get(codes)
            if cur is None:
                bucket[codes] = [src_weight, val]
            else:
                cur[1] = cur[1] + val
    jet_vars: dict[int, JetVar] = {}
    made: dict[tuple[int, ...], tuple] = {}  # codes -> (runs, Monomial)
    series = {}
    for w, bucket in by_exp.items():
        rows = []
        for codes, (src_weight, val) in bucket.items():
            if not val:
                continue
            entry = made.get(codes)
            if entry is None:
                runs = _runs(codes)
                factors = []
                for code, e in runs:
                    var = jet_vars.get(code)
                    if var is None:
                        var = jet_vars[code] = JetVar(0, code // K, -level_of[code])
                    factors.append((var, e))
                entry = made[codes] = (runs, Monomial(tuple(factors)))
            rows.append(((src_weight, len(codes), entry[0]), entry[1], val))
        rows.sort(key=itemgetter(0))
        series[w] = JetPoly(m, tuple((mon, val) for _, mon, val in rows))
    return PuiseuxSeries.from_dict(m, series, W)


def _runs(codes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Run-length form ((code, multiplicity), ...) of a sorted code tuple."""
    return tuple((code, len(list(run))) for code, run in groupby(codes))


def _assign(slots, k, room: int, q, chosen, found) -> None:
    """Add q times the binomials of every assignment of slots[k:] that
    raises the exponents above their minima by at most ``room`` in all into
    ``found``, keyed by the room left and the sorted chosen codes."""
    if k == len(slots):
        key = (room, tuple(sorted(chosen)))
        found[key] = found.get(key, 0) + q
        return
    last = k + 1 == len(slots)
    for extra, (b, code) in enumerate(slots[k][: room + 1]):
        if last:
            key = (room - extra, tuple(sorted([*chosen, code])))
            found[key] = found.get(key, 0) + q * b
        else:
            chosen.append(code)
            _assign(slots, k + 1, room - extra, q * b, chosen, found)
            chosen.pop()
