"""Twisted fields attached to a diagonal symmetry of finite order.

For a diagonal symmetry g of order m the twisted state space is the
polynomial ring on jet variables whose levels sit in the coset
alpha_i/m + Z.  A source element a of the plain jet ring (integer levels)
is sent to the field

    Y_g(x[i,0], z)  =  sum over admissible levels n of  x[i,n] z^(-n),
    Y_g(x[i,-d], z) =  (d/dz)^d Y_g(x[i,0], z) / d!,

extended multiplicatively over monomial factors and linearly over terms.
The source must be homogeneous for the diagonal character; the resulting
field is then supported on the matching coset of (1/m)Z.  A field is its
series known up to the window: the mode a_(n) is its coefficient of
z^(-n-1).  Exponents and mode indices are ints in units of 1/m, so the
mode at k/m is the windowed read ``at(-k - m)``, which also knows where
the window ends.  Checkers verify the twisted-module axioms, the twisted
Borcherds identity (evaluated on the vacuum with every mode exact), and
the descent of jet-equation generators into the twisted field
coefficients.

The checkers read fields as the int kernel ``substitute_coded`` gives
them, a ``CodedSeries``: each monomial one int code, each coefficient int
coordinates over one denominator, from the memo ``jetpoly.expansion``
that relation expansions share: it keeps each (source, exponents,
layout) at the widest window read so far, and a narrower read gets its
prefix.  A check codes every field it compares in one layout (bits, k,
unit), that of the product of its sources (see ``_layout``): bits from
the sum of their degrees, k and unit from the coordinates they use.  A
monomial's code is the sum of its exponents shifted into fields of that
many bits, so the code of a product of two monomials is the sum of their
codes, and the sum cannot carry from one field into the next: no exponent
of a product of the sources' fields exceeds the sum of their degrees,
below 2^bits.  So products are sums of
codes, with coordinates multiplied in Z[zeta_m], and coefficients are
equal when their codes are and their coordinates cross-multiply to equal
ints.  A translation check codes Ta in a's layout, since T keeps each
monomial's coordinates and degree.

Translation, multiplicativity and descent are one comparison,
``_first_difference(f, h, n)``: f against (d/dz)^n h / n!, with n = 1
against Y(a), n = 0 against Y(a)Y(b) and n against a relation's
expansion.  A failing one builds its witness from the one coefficient of
each side where they first differ (``_mismatch``), read back as a
``JetPoly`` through ``CodedSeries.polynomial``.  Only descent's span
check, after a failure, materialises whole series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .cyclo import _canon, euler_phi
from .jetpoly import (
    CodedSeries,
    JetPoly,
    PuiseuxSeries,
    _coded_monomial,
    beyond_window,
    binom,
    binom_units,
    derivation_T,
    divided_t_power,
    eigen_index,
    exact_units,
    expansion,
    floor_units,
    mul_rows,
    require_coordinates,
    substitute_coded,
)
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    SpanBasis,
    coded_relations,
    require_fits,
    require_preserved,
)
from .reports import CheckResult


def _max_weight(a: JetPoly) -> Fraction:
    return max((mon.weight for mon, _ in a.terms), default=Fraction(0))


def _field(a: JetPoly, g: DiagAutomorphism, top: int, layout=None) -> CodedSeries:
    """The coded field of a up to top, in units of 1/m, coded in the layout
    (its own when None), from the memo ``expansion``."""
    if a.order != g.order:
        raise ValueError("source and symmetry orders differ")
    exponents = require_coordinates(a, g.exponents)
    if eigen_index(a, exponents) is None:
        raise ValueError("twisted field source must be character-homogeneous")
    return expansion(a, exponents, top, layout)


def _layout(g: DiagAutomorphism, *sources: JetPoly) -> tuple[int, int, int]:
    """The layout (bits, k, unit) of the product of the sources: bits from
    the sum of their degrees, and k and unit from the coordinates they use,
    read through g's exponents.  It covers every polynomial on those
    coordinates of at most that degree, T^n of each source among them."""
    m = g.order
    indices = set()
    degree = 0
    for p in sources:
        if p.order != m:
            raise ValueError("source and symmetry orders differ")
        require_coordinates(p, g.exponents)
        indices.update(v.index for v in p.variables())
        degree += p.max_degree()
    unit = math.lcm(*(m // math.gcd(g.exponents[i - 1], m) for i in indices))
    return max(1, degree.bit_length()), max(indices, default=1), unit


def twisted_field(
    a: JetPoly, g: DiagAutomorphism, window, spec: SchemeSpec | None = None
) -> PuiseuxSeries:
    """The field of a up to the window.  A given scheme must fit g (see
    ``require_fits``); g's i-th exponent acts on x_i.  Fields are kept
    coded by ``jetpoly.expansion``, keyed on the exponents of a's own
    coordinates, so every g that agrees there reads one expansion, at the
    widest window read so far; the window is floored to (1/m)Z, in units of
    1/m, and each call materialises the codes up to it."""
    if spec is not None:
        require_fits(spec, g)
    return _field(a, g, floor_units(window, g.order)).materialise()


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_translation(a, g, W, symbol) -> CheckResult:
    """Y(Ta,z) = d/dz Y(a,z) up to W, on codes in a's layout, which covers
    Ta: T keeps each monomial's coordinates and degree.  This check and the
    next two serve both stacks: ``symbol`` prints Y as "Y_g" here and as
    "Y" in ``va.check_va_axioms``, which runs them at the trivial
    symmetry."""
    top = floor_units(W, g.order)
    layout = _layout(g, a)
    lhs = _field(derivation_T(a), g, top, layout)
    bad = _mismatch(lhs, _field(a, g, top + g.order, layout), 1)
    name = f"translation: {symbol}(Ta,z) = d/dz {symbol}(a,z)"
    return CheckResult(name, bad is None, bad)


def check_vacuum(g, W, symbol) -> CheckResult:
    """Y(1,z) = id up to W: the one coefficient, at z^0, is the unit
    monomial, code 0, with coordinates (den, 0, ...)."""
    one = JetPoly.one(g.order)
    vac = _field(one, g, floor_units(W, g.order), _layout(g, one))
    unit = (vac.den,) + (0,) * (euler_phi(g.order) - 1)
    ok = list(vac.terms) == [0] and vac.terms[0] == {0: unit}
    witness = None if ok else str(vac.materialise())
    return CheckResult(f"vacuum: {symbol}(1,z) = id", ok, witness)


def _first_difference(f: CodedSeries, h: CodedSeries, n: int) -> int | None:
    """The lowest k, on the overlap of the windows of two coded series of
    one layout, at which f's coefficient of z^(k/m) differs from that of
    (d/dz)^n h / n!, C(k/m + n, n) times h's at u = k + n*m; or None.
    Equal coefficients have equal codes, and their coordinates
    cross-multiply with ``binom_units(u, m, n)`` to equal ints."""
    if f.layout != h.layout:
        raise ValueError(f"mixed layouts {f.layout} and {h.layout}")
    m = f.order
    shift = n * m
    f_terms, h_terms = f.terms, h.terms
    top = min(f.top, h.top - shift)
    low = top + 1  # the lowest failing exponent among f's terms, past top if none
    for k, lhs in f_terms.items():
        if k > top:
            break
        u = k + shift
        base = h_terms.get(u)
        num, den = binom_units(u, m, n)
        left, right = h.den * den, num * f.den
        if base is None or not num or lhs.keys() != base.keys() or any(
            x * left != y * right for c, xs in lhs.items() for x, y in zip(xs, base[c])
        ):
            low = k
            break
    # Below it, h's terms that meet a zero of f differ unless C(u/m, n) = 0.
    for u in h_terms:
        k = u - shift
        if k >= low:
            break
        if k not in f_terms and binom_units(u, m, n)[0]:
            return k
    return None if low > top else low


def _mismatch(f: CodedSeries, h: CodedSeries, n: int) -> str | None:
    """The witness "z^w: lhs - rhs" at the first difference of f and
    (d/dz)^n h / n!, or None where ``_first_difference`` finds none: one
    coefficient read from each side, h's scaled by C(w + n, n)."""
    k = _first_difference(f, h, n)
    if k is None:
        return None
    m = f.order
    w = Fraction(k, m)
    rhs = h.polynomial(k + n * m).scale(binom(w + n, n))
    return f"z^{w}: {f.polynomial(k) - rhs}"


def _low(fld: CodedSeries) -> int | None:
    """The lowest exponent of a coded field, in units of 1/m; None for 0."""
    return next(iter(fld.terms), None)


def check_multiplicative(a, b, g, W, symbol) -> CheckResult:
    """Y(ab,z) = Y(a,z)Y(b,z) up to W, on codes in the layout of ab.  Each
    factor is built to W plus the pole order of the other's field at W, so
    the product is exact up to W, where the comparison ends; a field with
    no pole leaves its partner at W."""
    top = floor_units(W, g.order)
    layout = _layout(g, a, b)
    prod = _field(a * b, g, top, layout)
    poles = [-min(_low(_field(p, g, top, layout)) or 0, 0) for p in (a, b)]
    fa = _field(a, g, top + poles[1], layout)
    fb = _field(b, g, top + poles[0], layout)
    bad = _mismatch(prod, fa * fb, 0)
    name = f"multiplicative: {symbol}(ab,z) = {symbol}(a,z){symbol}(b,z)"
    return CheckResult(name, bad is None, bad)


def check_twisted_axioms(
    a: JetPoly,
    b: JetPoly,
    g: DiagAutomorphism,
    window,
    spec: SchemeSpec | None = None,
) -> list[CheckResult]:
    """Support coset, pole bound, vacuum, translation, multiplicativity.
    The coset and the pole bound read a's field in the layout of ab, where
    the multiplicative check reads it again."""
    W = Fraction(window)
    m = g.order
    out: list[CheckResult] = []

    if spec is not None:
        require_fits(spec, g)  # checks the scheme once
    fa = _field(a, g, floor_units(W, m), _layout(g, a, b))
    r = eigen_index(a, g.exponents)
    stray = next((k for k in fa.terms if (k + r) % m), None)
    out.append(
        CheckResult(
            f"support coset: exponents of Y_g(a) lie in -{r}/{m} + Z",
            stray is None,
            None if stray is None else f"stray exponent {Fraction(stray, m)}",
        )
    )

    low = _low(fa)
    pole_ok = low is None or Fraction(low, m) >= -_max_weight(a)
    out.append(
        CheckResult(
            "pole bound: order of pole of Y_g(a) at most the weight of a",
            pole_ok,
            None if pole_ok else f"minimum exponent {Fraction(low, m)}",
        )
    )

    out.append(check_vacuum(g, W, "Y_g"))
    out.append(check_translation(a, g, W, "Y_g"))
    out.append(check_multiplicative(a, b, g, W, "Y_g"))
    return out


def _mode(fld: CodedSeries, k: int, m: int):
    """The coded mode at k/m, the coefficient of z^((-k-m)/m); beyond the
    window it raises TruncationError."""
    row = fld.at(-k - m)
    if row is None:
        raise beyond_window(Fraction(-k - m, m), fld.top, m)
    return row


def _dead_from(fld: CodedSeries, m: int) -> int:
    """The lowest k from which every mode at k/m of a field with a window
    is known and zero.  The mode at k/m is the coefficient at -k-m, known
    when -k-m <= top and zero below the lowest visible term, at ``low``;
    a field with no term is zero up to its window, as if low were top + 1."""
    low = next(iter(fld.terms), fld.top + 1)
    return max(-fld.top, 1 - low) - m


# The field width a pair starts with, in bits.  Coded coordinates sit over
# an unreduced series denominator (a product of two for a mode product), so
# bounds run larger than over reduced scalars: the largest of an
# axioms-zeta4 job (seeds 7-9) is 373,680, below 2^19 (below 2^17 over
# reduced scalars), and none of its pairs widens.
_START_BITS = 32


class _PairContext:
    """What every Borcherds check of one pair (a, b) shares at one
    symmetry and window: the characters r_a and r_b, the coded fields fa
    and fb with the indices ``dead_a`` and ``dead_b``, in units of 1/m,
    from which each field's modes are all known and zero, the coded field
    of each inner product a_(-k-1) b = T^k(a)/k! * b, and two memos of
    packed polynomials: the modes of the inner fields met so far, keyed on
    (k, index), and the product of every two modes met so far.

    Every field of the pair is coded in one layout, that of ab (see
    ``_layout``): bits from deg a + deg b, k and unit from the coordinates
    of a and b.  A product of a mode of a and one of b has degree at most
    deg a + deg b, so its code is the sum of the two codes, with no carry
    from one exponent field into the next, and an inner field, on the same
    coordinates and of the same degree as ab, has codes in that layout too.
    So a mode is its coded coefficient as it is, and a product of two
    modes is worked out on codes and int coordinates, over fa.den * fb.den.

    The product memo is keyed on (i, j), for a's mode at i/m times b's at
    j/m.  The modes commute, so the identity's rhs term b_(l+n-i) a_(m+i)
    is read as a_(m+i) b_(l+n-i): one entry serves every term over the
    same two modes, whichever order the identity writes them in.  A
    product enters the memo only once both factors are read: a zero factor
    settles it, while a mode beyond the window raises on every check that
    needs it.

    A memo entry is a polynomial packed into one int, (den, packed, top).
    The pair numbers every monomial code it meets, in the order met, by one
    column map (code -> slot); each of the polynomial's phi(m) coordinates
    at a code is an int over ``den``, the denominator of its field or of
    the product, and coordinate j at slot s sits in the signed field of B
    bits at offset B*(s*phi(m) + j) of ``packed``: packed is the sum of
    coordinate * 2^offset.  ``top`` is the largest |coordinate|.  An
    exactly zero polynomial is kept as None.  A pair starts at B =
    ``_START_BITS`` and widens only when a check's sum could carry from one
    field into the next (see ``check_twisted_borcherds``): ``widen`` drops
    both packed memos, which refill at the new width as the checks read
    them.  The column map does not depend on B and stays.  Codes become
    monomials, through ``_coded_monomial``, only in ``unpack``, for a
    failing check's witness.
    """

    def __init__(self, a, b, g, window):
        # before the characters, which read g's exponents by position
        self.layout = _layout(g, a, b)
        self.r_a = eigen_index(a, g.exponents)
        self.r_b = eigen_index(b, g.exponents)
        if self.r_a is None or self.r_b is None:
            raise ValueError("Borcherds sources must be character-homogeneous")
        self._top = floor_units(window, g.order)
        self.fa = _field(a, g, self._top, self.layout)
        self.fb = _field(b, g, self._top, self.layout)
        self.dead_a = _dead_from(self.fa, g.order)
        self.dead_b = _dead_from(self.fb, g.order)
        self._source = (a, b, g)
        self._order = g.order
        self._phi = euler_phi(g.order)
        self.bits = _START_BITS
        self._columns: dict = {}  # code -> slot, in the order met
        self._inner: dict = {}  # k -> field of a_(-k-1) b, None when it is 0
        self._modes: dict = {}  # (k, index) -> packed mode, None when 0
        self._products: dict = {}  # (i, j) -> packed product, None when 0

    def _pack(self, row, den: int):
        """(den, packed, top) of a coded polynomial {code: coordinates} over
        den, or None when every coordinate is zero."""
        columns, phi, bits = self._columns, self._phi, self.bits
        packed = top = 0
        for code, xs in row.items():
            slot = columns.get(code)
            if slot is None:
                slot = columns[code] = len(columns)
            offset = slot * phi * bits
            for x in xs:
                if x:
                    packed += x << offset
                    if abs(x) > top:
                        top = abs(x)
                offset += bits
        # top, not packed: coordinates wider than a field may sum to 0
        return (den, packed, top) if top else None

    def widen(self, bound: int) -> None:
        """Make the fields wide enough for a sum of |values| up to bound:
        B at least doubles, to above bound's bit length, and the packed
        memos, made at the old width, are dropped."""
        self.bits = max(2 * self.bits, bound.bit_length() + 1)
        self._modes.clear()
        self._products.clear()

    def unpack(self, total: int, den: int) -> JetPoly:
        """The polynomial whose coordinates, over den, are the signed
        B-bit fields of total, each in [-2^(B-1), 2^(B-1)); each code is
        read as its monomial here, and only here."""
        bits, phi, m = self.bits, self._phi, self._order
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        columns = list(self._columns)
        found: dict = {}  # slot -> coordinates
        field = 0
        while total:
            x = total & mask
            if x >= half:
                x -= 1 << bits
            if x:
                slot, j = divmod(field, phi)
                found.setdefault(slot, [0] * phi)[j] = x
            total = (total - x) >> bits
            field += 1
        return JetPoly._from_dict(
            m,
            {
                _coded_monomial(columns[s], *self.layout)[0]: _canon(m, tuple(x), den)
                for s, x in found.items()
            },
        )

    def inner_field(self, k: int) -> CodedSeries | None:
        """The coded field of a_(-k-1) b, or None when that product is zero."""
        if k not in self._inner:
            a, b, g = self._source
            inner = divided_t_power(a, k) * b
            self._inner[k] = (
                None if inner.is_zero else _field(inner, g, self._top, self.layout)
            )
        return self._inner[k]

    def inner_mode(self, k: int, index: int):
        """The packed mode at index/m of the field of a_(-k-1) b, or None
        when the product or the mode is zero; a mode beyond the window
        raises TruncationError."""
        key = (k, index)
        if key not in self._modes:
            fld = self.inner_field(k)
            if fld is not None:
                fld = self._pack(_mode(fld, index, self._order), fld.den)
            self._modes[key] = fld
        return self._modes[key]

    def product(self, i: int, j: int):
        """The packed product of a's mode at i/m and b's at j/m, or None
        when it is zero.  A factor that is exactly zero settles the product
        even when the other lies beyond the window.  Otherwise a mode
        beyond the window raises TruncationError, a's before b's."""
        key = (i, j)
        if key not in self._products:
            m = self._order
            fa, fb = self.fa, self.fb
            p, q = fa.at(-i - m), fb.at(-j - m)
            if (p is not None and not p) or (q is not None and not q):
                self._products[key] = None
            else:
                p = _mode(fa, i, m) if p is None else p
                q = _mode(fb, j, m) if q is None else q
                acc: dict = {}
                mul_rows(acc, p, q, m)
                self._products[key] = self._pack(acc, fa.den * fb.den)
        return self._products[key]


# A sweep runs the whole index box of one pair before the next pair, so two
# entries serve it.  Each entry holds its memo of products: with 64 entries
# an axiom sweep's peak memory grew by a fifth.
_pair_context = lru_cache(maxsize=2)(_PairContext)


def _borcherds_parts(pair: _PairContext, l_idx: int, L: int, M: int, N: int):
    """The terms of lhs - rhs as (numerator, denominator, packed entry):
    the lhs modes first, then the rhs products in the order of the sum, a's
    mode before b's within each, which is the order in which a mode beyond
    the window raises.  The indices are in units of 1/m, l's as L.  A
    product is read from the pair's memo, and only a miss calls
    ``pair.product``."""
    order = pair._order
    products = pair._products
    parts = []
    i = 0
    while l_idx + i <= -1:
        entry = pair.inner_mode(-(l_idx + i) - 1, M + N - i * order)
        if entry is not None:
            num, den = binom_units(M, order, i)
            if num:
                parts.append((num, den, entry))
        i += 1

    sign_l = -1 if l_idx % 2 else 1
    i = 0
    while True:
        di = i * order
        if l_idx >= 0:
            if i > l_idx:
                break
        elif N + di >= pair.dead_b and M + di >= pair.dead_a:
            break
        # (-1)^i C(l, i), an integer: C(l, i) = (-1)^i C(i - l - 1, i) for l < 0
        if l_idx >= 0:
            c = -math.comb(l_idx, i) if i % 2 else math.comb(l_idx, i)
        else:
            c = math.comb(i - l_idx - 1, i)
        if c:
            t1 = products.get((L + M - di, N + di), False)
            if t1 is False:
                t1 = pair.product(L + M - di, N + di)
            if t1 is not None:
                parts.append((-c, 1, t1))
            t2 = products.get((M + di, L + N - di), False)
            if t2 is False:
                t2 = pair.product(M + di, L + N - di)
            if t2 is not None:
                parts.append((c * sign_l, 1, t2))
        i += 1
    return parts


def _packed_sum(parts) -> tuple[int, int, int]:
    """(total, den, bound) for terms (num, d, (den_t, packed_t, top_t)):
    over the lcm den of the d * den_t, each term's coefficient is the int
    c_t = num * den / (d * den_t); total is the sum of c_t * packed_t and
    bound the sum of |c_t| * top_t; an empty sum is (0, 1, 0)."""
    if not parts:
        return 0, 1, 0
    dens = [d * entry[0] for _, d, entry in parts]
    den = math.lcm(*dens)
    total = bound = 0
    for (num, _, (_, packed, top)), d in zip(parts, dens):
        c = num * (den // d)
        total += c * packed
        bound += abs(c) * top
    return total, den, bound


def check_twisted_borcherds(
    a: JetPoly,
    b: JetPoly,
    g: DiagAutomorphism,
    l_idx: int,
    m_idx,
    n_idx,
    window,
    spec: SchemeSpec | None = None,
) -> CheckResult:
    """Twisted Borcherds identity on the vacuum, all modes exact:

    sum_i C(m,i) (a_(l+i) b)_(m+n-i)
      = sum_i (-1)^i C(l,i) [ a_(l+m-i) b_(n+i) - (-1)^l b_(l+n-i) a_(m+i) ]

    with l an integer and m, n in the cosets picked out by the characters
    of a and b.

    Both sides are summed as one packed int, lhs minus rhs.  A
    ``_PairContext``, per pair (a, b), symmetry and window, holds the
    coded fields, all in the layout of ab, and two memos of polynomials
    packed into ints at a field width of B bits: the lhs modes of the inner
    fields, keyed on (k, index), and every product of two modes, read a's
    mode first (b_(l+n-i) a_(m+i) as a_(m+i) b_(l+n-i)), multiplied out
    once on codes and keyed on (a's index, b's index) in units of 1/m.  A
    mode product's monomial codes are sums of its factors' codes, with no
    carry, since the layout's bits cover deg a + deg b; each code gets a
    slot of the pair's column map, so the two kinds of field do not mix:
    exponent fields within a code, coordinate fields of B bits within a
    packed int.  A product with a factor that is exactly zero
    adds nothing, even when its other factor lies beyond the window;
    otherwise a mode beyond the window raises TruncationError: the lhs
    modes first, then the rhs products in the order of the sum, a's mode
    before b's within each.

    Each term is an int numerator over an int denominator times a packed
    entry (den_t, packed_t, top_t): C(m, i) is ``binom_units``' numerator
    over order^i * i!, worked out from m*order on ints, and the rhs
    coefficients are ints.  Over the lcm D of the term denominators times
    the entries' den_t, each term gets the int coefficient c_t, and

        total = sum_t c_t * packed_t,   bound = sum_t |c_t| * top_t.

    Why total decides the identity when bound < 2^(B-1): write packed_t as
    the sum over fields f of x_tf * 2^(B*f), |x_tf| <= top_t.  Then total
    is the sum of v_f * 2^(B*f) with v_f = sum_t c_t * x_tf, which is D
    times the coordinate of lhs - rhs that field f stands for, and
    |v_f| <= bound < 2^(B-1).  If some v_f were not zero, take the lowest
    such f: total = v_f * 2^(B*f) + a multiple of 2^(B*(f+1)), and 2^B does
    not divide v_f, as 0 < |v_f| < 2^B, so total would not be zero.  So
    total == 0 exactly when every coefficient of lhs - rhs is, and when it
    is not, each v_f is read back as the signed residue of its field.
    When bound reaches 2^(B-1), the pair widens B past the bound, drops its
    packed memos, and the check collects its terms again at the new width;
    the bound does not depend on B, so it then holds.

    The identity holds when total is zero; else the witness is lhs - rhs
    as a ``JetPoly``, read back from total over D, its codes read as
    monomials through ``_coded_monomial``.  No Fraction is made:
    the indices are ints in units of 1/m, and a Fraction index is built
    only to raise TruncationError.
    """
    for label, idx in (("l", l_idx), ("m", m_idx), ("n", n_idx)):
        if isinstance(idx, bool):
            raise ValueError(f"index {label} = {idx!r} must not be a bool")
    if not isinstance(l_idx, int):
        if Fraction(l_idx).denominator != 1:
            raise ValueError("the first Borcherds index must be an integer")
        l_idx = int(l_idx)
    if not isinstance(m_idx, (int, Fraction)):
        m_idx = Fraction(m_idx)
    if not isinstance(n_idx, (int, Fraction)):
        n_idx = Fraction(n_idx)
    if spec is not None:
        require_fits(spec, g)
    bad = _borcherds_witness(a, b, g, l_idx, m_idx, n_idx, window)
    return CheckResult(
        f"twisted borcherds(l={l_idx}, m={m_idx}, n={n_idx})", bad is None, bad
    )


def _borcherds_witness(a, b, g, l_idx: int, m_idx, n_idx, window) -> str | None:
    """The packed sum of ``check_twisted_borcherds``, and of
    ``va.check_borcherds`` at the trivial symmetry, for l an int and m, n
    ints or Fractions: None when the identity holds, else the witness
    lhs - rhs.  An index m or n off its coset is refused."""
    order = g.order
    pair = _pair_context(a, b, g, window)
    # The indices in units of 1/order: l*order, m*order, n*order.
    L = l_idx * order
    M = exact_units(m_idx, order)
    if M is None or (M - pair.r_a) % order:
        raise ValueError(f"index m = {m_idx} must lie in {pair.r_a}/{order} + Z")
    N = exact_units(n_idx, order)
    if N is None or (N - pair.r_b) % order:
        raise ValueError(f"index n = {n_idx} must lie in {pair.r_b}/{order} + Z")
    while True:
        total, den, bound = _packed_sum(_borcherds_parts(pair, l_idx, L, M, N))
        if bound < 1 << (pair.bits - 1):
            break
        pair.widen(bound)
    return str(pair.unpack(total, den)) if total else None


# ---------------------------------------------------------------------------
# descent of jet-equation generators into field coefficients
# ---------------------------------------------------------------------------


def check_descent(
    spec: SchemeSpec,
    g: DiagAutomorphism,
    rel_index: int,
    n: int,
    window,
) -> list[CheckResult]:
    """The coefficients of Y_g applied to the n-th divided translate of a
    defining equation are binomial multiples of the twisted jet-equation
    generators, and in particular lie in their span.

    ``rel_index`` is 1-based, matching the generator records; the translate
    n must be >= 0.

    The translate's field is a fresh expansion of T^n(rel)/n!, never a
    derivative of the relation's field, so that the first check compares
    two independent routes.  When it passes, every coefficient at z^w is
    C(w + n, n) times the generator (rel, w + n), or zero, and that
    generator is one of the polynomials the span is built from: the span
    check then holds by this certificate, with no elimination.  Only when
    the first check fails is the generators' span eliminated and every
    coefficient tested against it.

    The first check runs on the int kernel of ``substitute_jets``,
    ``substitute_coded``: the translate, n = 0 included, freshly at the
    window W, outside the memo ``jetpoly.expansion``, and every relation at
    W + n from ``jetscheme.coded_relations``, a prefix of its widest read
    in that memo, which the translates and the generator table share.  The
    prefix may keep a wider denominator, which cross-multiplying absorbs.
    T^n keeps each monomial's coordinates and degree, so the translate's
    codes have its relation's layout, and a translate that does not is
    refused.  The check is the translation identity taken n times,
    ``_first_difference`` with n: the field's coefficient at z^(k/m) must
    be that of (d/dz)^n Y_g(rel) / n!, C(k/m + n, n) times the relation's
    at u = k + n*m.  A passing check builds no ``JetPoly``.  A failing one
    reads one coefficient of each side at the lowest failing exponent, for
    the witness lhs - rhs (``_mismatch``), and materialises the translate
    and the generators once, for the span.
    """
    W = window if type(window) is int else Fraction(window)
    if isinstance(rel_index, bool) or not isinstance(rel_index, int):
        raise ValueError(f"relation index {rel_index!r} must be an int")
    if not 1 <= rel_index <= len(spec.relations):
        raise ValueError(f"relation index {rel_index} out of range")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"translate {n!r} must be an int")
    if n < 0:
        raise ValueError(f"translate {n} must be >= 0")
    m = spec.order
    top = floor_units(W, m)  # the window in units of 1/m
    require_preserved(spec, g)
    rel = spec.relations[rel_index - 1]
    if eigen_index(rel, g.exponents) is None:
        raise ValueError("relation is not character-homogeneous for this symmetry")
    relations = coded_relations(spec, g, top + n * m)
    coded = substitute_coded(divided_t_power(rel, n), g.exponents, top)
    expansion = relations[rel_index - 1]
    if coded.layout != expansion.layout:
        raise ValueError(
            f"translate {n} of relation {rel_index} is coded as {coded.layout}, "
            f"its relation as {expansion.layout}"
        )
    witness = _mismatch(coded, expansion, n)
    stray = None
    if witness is not None:
        fld = coded.materialise()
        gens = (p for series in relations for p in series.materialise().terms.values())
        k = SpanBasis(m, gens).first_outside(fld.terms.values())
        stray = None if k is None else fld.support()[k]
    return [
        CheckResult(
            f"descent coefficients: rel {rel_index}, translate {n}",
            witness is None,
            witness,
        ),
        CheckResult(
            f"descent span: rel {rel_index}, translate {n}, coefficients in "
            "the twisted generator span",
            stray is None,
            None if stray is None else f"coefficient at z^{stray}",
        ),
    ]
