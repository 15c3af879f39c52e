"""Canonical finite field extensions F_{q^d} with deterministic arithmetic.

Fields are built as F_q[t]/(modulus) where the modulus is the
lexicographically least monic irreducible polynomial of degree d: candidates
t^d + c_{d-1} t^{d-1} + ... + c_0 are ordered by the tuple
(c_{d-1}, ..., c_0).  No table lookups (Conway or otherwise): the search runs
from scratch, so the same (q, d) always yields bit-identical moduli.

The first q candidates, the binomials t^d + c, are decided by the binomial
criterion (Lidl & Niederreiter, Thm 3.75); Ben-Or's test, which stops at
the first factor degree it finds, decides the rest and confirms the binomial.

Elements are immutable coefficient tuples (c_0, ..., c_{d-1}), their stored
form.  The canonical order on elements compares the integer key
sum(c_i * q^i), which is the same as comparing (c_{d-1}, ..., c_0)
lexicographically.  "Least root" and sorted root lists refer to this order.
For d >= 2, a product packs each polynomial into w-bit slots of one int
(Kronecker substitution; von zur Gathen & Gerhard, MCA 8.4), multiplies
once and folds the d - 1 high slots back through the field's table of
t^k mod f; a power stays packed until its end.  Over F_q, * and ** are ints.

Exponents are arbitrary-precision throughout.  p-th roots come from
one deterministic Adleman-Manders-Miller extractor, seeded like the roots of
unity of ``kummerlab.cyclotomic`` by one scan for a non-p-th power
(``first_nonresidue``).  ``is_pth_power``, ``first_nonresidue`` and
``pth_roots`` are generic: they serve the relative fields of
``kummerlab.splitting`` too.  Only this module reads an element's
coefficient tuple; other modules use ``key()``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import ntheory


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, f, q):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - lead * f[i]) % q
        a.pop()
    return _poly_trim(a)


def _pack(a, w):
    n = 0
    for c in reversed(a):
        n = (n << w) | c
    return n


def _reducer(f, q):
    """(d, q, w, mask, tab) for monic f over F_q: tab packs t^k mod f, k = d..2d-2.

    A folded slot holds at most (2d - 1)(q - 1)^2, which fits in w bits.
    """
    d = len(f) - 1
    w = ((2 * d - 1) * (q - 1) ** 2).bit_length()
    r, tab = [-c % q for c in f[:-1]], []
    for _ in range(d - 1):
        tab.append(_pack(r, w))
        r = [(x - r[-1] * c) % q for x, c in zip([0] + r[:-1], f)]
    return d, q, w, (1 << w) - 1, tab


def _fold(n, red):
    """The d reduced coefficients of a packed product n of two reduced polynomials."""
    d, q, w, mask, tab = red
    acc, n = n & ((1 << w * d) - 1), n >> w * d
    for t in tab:
        acc += (n & mask) % q * t
        n >>= w
    return [(acc >> w * i & mask) % q for i in range(d)]


def _poly_powmod(a, e, red):
    """a^e mod (f, q) for a reduced a: packed throughout, unpacked once."""
    w = red[2]
    base, result = _pack(a, w), 1
    while e:
        if e & 1:
            result = _pack(_fold(result * base, red), w)
        e >>= 1
        if e:
            base = _pack(_fold(base * base, red), w)
    return tuple(_fold(result, red))


def _poly_gcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, q)
        b = [(c * inv) % q for c in b]
        a, b = b, _poly_rem(a, b, q)
    return a


def _is_irreducible(f, q):
    """Monic f over F_q: Ben-Or's test.

    f is reducible iff it has an irreducible factor of some degree i <= d/2,
    i.e. iff gcd(f, t^(q^i) - t) != 1; the scan stops at the least such i.
    """
    h, red = (0, 1), _reducer(f, q)
    for _ in range((len(f) - 1) // 2):
        h = _poly_powmod(h, q, red)
        g = list(h)
        g[1] = (g[1] - 1) % q      # t^(q^i) - t
        if len(_poly_gcd(f, _poly_trim(g), q)) != 1:
            return False
    return True


def _irreducible_binomials(q, d):
    """The c in 1..q-1, ascending, with t^d + c irreducible over F_q (d >= 2).

    Lidl & Niederreiter, Thm 3.75: t^d - a (a != 0) is irreducible iff every
    prime r | d divides q - 1 and a^((q-1)/r) != 1, and q = 1 mod 4 when
    4 | d.  When q fails the conditions on q alone, no c is tried.
    """
    rs = ntheory.primefactors(d)
    if any((q - 1) % r for r in rs) or (d % 4 == 0 and q % 4 == 3):
        return
    for c in range(1, q):
        if all(pow(q - c, (q - 1) // r, q) != 1 for r in rs):
            yield c


@lru_cache(maxsize=None)
def make_ext_field(q: int, d: int) -> "ExtField":
    """The canonical F_{q^d}.  Cached; (q, d) -> identical object."""
    if not ntheory.isprime(q):
        raise ValueError(f"q = {q} is not prime")
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    if d > 1:
        for c in _irreducible_binomials(q, d):    # the least c, if any, is the modulus
            f = (c,) + (0,) * (d - 1) + (1,)
            if not _is_irreducible(f, q):
                raise ArithmeticError(f"binomial criterion and Ben-Or disagree on {f} mod {q}")
            return ExtField(q, d, f)
    for n in range(q if d > 1 else 0, q ** d):
        # the base-q digits of n, most significant first, are (c_{d-1}, ..., c_0)
        f = [n // q ** i % q for i in range(d)] + [1]
        if _is_irreducible(f, q):
            return ExtField(q, d, tuple(f))
    raise AssertionError("no irreducible polynomial found")


class ExtField:
    """F_{q^d} under the canonical modulus.  Build via make_ext_field, which
    hands out one object per (q, d): fields compare by identity."""

    __slots__ = ("q", "d", "modulus", "size", "_nonres", "_red", "_zero", "_one")

    def __init__(self, q, d, modulus):
        self.q, self.d, self.modulus, self.size = q, d, modulus, q ** d
        self._nonres = {}
        self._red = _reducer(modulus, q)
        self._zero = FFElement(self, (0,) * d)
        self._one = FFElement(self, (1,) + (0,) * (d - 1))

    def element(self, coeffs) -> "FFElement":
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = [x % self.q for x in coeffs]
        if len(c) > self.d:
            c = _poly_rem(c, list(self.modulus), self.q)
        c = tuple(c) + (0,) * (self.d - len(c))
        return FFElement(self, c)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_index(self, n: int) -> "FFElement":
        return FFElement(self, tuple(n // self.q ** i % self.q for i in range(self.d)))

    def nonresidue(self, p: int) -> "FFElement":
        """The first non-p-th power from t^(d-1) on (`first_nonresidue`).

        Memoised per field: it seeds `pth_roots` and builds the roots of
        unity of `cyclotomic.cyclo_primes_above`.
        """
        if p not in self._nonres:
            self._nonres[p] = first_nonresidue(self, p, self.q ** (self.d - 1))
        return self._nonres[p]

    def __repr__(self):
        return f"ExtField(q={self.q}, d={self.d})"


class FFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def key(self) -> int:
        """Canonical integer key; comparing keys = canonical element order."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.q + c
        return k

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        q = self.field.q
        return FFElement(self.field, tuple((a + b) % q
                                           for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        q = self.field.q
        return FFElement(self.field, tuple((a - b) % q
                                           for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        q = self.field.q
        return FFElement(self.field, tuple((-a) % q for a in self.coeffs))

    # Products and powers come back reduced (mod q and mod the modulus) from
    # the packed core.  Over F_q (d = 1) the modulus is t, and no constant
    # reduces by it: ints mod q and the builtin pow give the tuple.

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        if f.d == 1:
            return FFElement(f, (self.coeffs[0] * other.coeffs[0] % f.q,))
        w = f._red[2]
        prod = _pack(self.coeffs, w) * _pack(other.coeffs, w)
        return FFElement(f, tuple(_fold(prod, f._red)))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        if f.d == 1:
            return FFElement(f, (pow(self.coeffs[0], e, f.q),))
        if self.is_zero():
            return f.one() if e == 0 else f.zero()
        return FFElement(f, _poly_powmod(self.coeffs, e % (f.size - 1), f._red))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.size - 2)

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element((other,))
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element((other,))
        return (isinstance(other, FFElement) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        q, terms = self.field.q, []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(str(c) if i == 0 else
                             (f"t^{i}" if c == 1 else f"{c}*t^{i}").replace("t^1", "t"))
        return " + ".join(terms) if terms else "0"


def is_pth_power(x, p: int) -> bool:
    """Euler's criterion: x is a p-th power iff x^((N-1)/p) = 1, N = |F|.

    0 = 0^p is one, and so is everything when p does not divide N - 1 (the
    p-power map is a bijection).  Generic: x needs ``is_zero()``,
    ``field.size``, ``field.one()`` and ``**``.
    """
    if x.is_zero():
        return True
    n_ = x.field.size - 1
    if n_ % p != 0:
        return True
    return x ** (n_ // p) == x.field.one()


def first_nonresidue(field, p: int, start: int):
    """The first non-p-th power in index order from `start`, wrapping round.

    From the generator's top power, the lower-degree elements (for degree
    >= 2 often all p-th powers) come last.  The field needs ``size`` and
    ``from_index``.
    """
    for n in itertools.chain(range(start, field.size), range(1, start)):
        x = field.from_index(n)
        if not is_pth_power(x, p):
            return x
    raise ValueError(f"every element of F_{field.size} is a {p}-th power")


def sylow_valuation(n: int, p: int) -> int:
    """v_p(n): the p-Sylow subgroup of a cyclic group of order n has p^s elements."""
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s


def order_p_valuation(x, p: int) -> int:
    """v_p of the multiplicative order of x, without factoring the group order.

    Generic: x needs ``is_zero()``, ``field.size``, ``field.one()`` and ``**``.
    """
    if x.is_zero():
        raise ValueError("zero input")
    n = x.field.size - 1
    s = sylow_valuation(n, p)
    z = x ** (n // p ** s)
    one = x.field.one()
    v = 0
    while z != one:
        z = z ** p
        v += 1
        if v > s:
            raise AssertionError("order valuation exceeded Sylow size")
    return v


def pth_roots(x, p: int) -> list:
    """All y with y^p = x in x's own field, sorted by ``key()``.

    Length 0, 1 or p.  Generic: beyond what `amm_pth_roots` needs, the field
    gives ``zero()`` and ``nonresidue(p)``, the AMM seed.
    """
    field = x.field
    if x.is_zero():
        return [field.zero()]
    n_ = field.size - 1
    if n_ % p != 0:
        return [x ** pow(p, -1, n_)]
    if not is_pth_power(x, p):
        return []
    return amm_pth_roots(x, p, field.nonresidue(p))


def amm_pth_roots(x, p: int, z) -> list:
    """Adleman-Manders-Miller: the p roots of x, sorted by ``key()``.

    x is a nonzero p-th power in a field whose unit group has order divisible
    by p, and z is any non-p-th power there; the root set does not depend on
    z.  Generic: elements need ``field.size``, ``field.one()``, ``**``, ``*``
    and ``key()``.
    """
    n = x.field.size - 1
    s = sylow_valuation(n, p)
    m = n // p ** s
    g = z ** m                     # generates the p-Sylow subgroup
    zeta = g ** (p ** (s - 1))     # order p
    # digits of dlog_g(x^m) base p
    zeta_pows = {}
    w = x.field.one()
    for j in range(p):
        zeta_pows[w.key()] = j
        w = w * zeta
    k = 0
    xm = x ** m
    for i in range(s):
        probe = (xm * g ** (-k % n)) ** (p ** (s - 1 - i))
        k += zeta_pows[probe.key()] * p ** i
    if k % p != 0:
        raise AssertionError("dlog not divisible by p for a p-th power")
    u = pow(p, -1, m) if m > 1 else 0
    v = (p * u - 1) // m
    y = (x ** u) * g ** ((-(k // p) * v) % n)
    roots = []
    for _ in range(p):
        roots.append(y)
        y = y * zeta
    return sorted(roots, key=lambda r: r.key())
