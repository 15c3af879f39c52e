"""Exact arithmetic in Q(zeta_m) and its residue data at unramified primes.

An element is an integer vector `num` of length phi(m) over the power
basis 1, zeta, ..., zeta^(phi(m)-1), reduced mod the m-th cyclotomic
polynomial, and one common denominator `den > 0` with gcd(den, *num) = 1.
Arithmetic runs on ints; `coeffs` gives the Fraction coefficients for display
and for exact conversion.  zeta^k is read from the field's integer table of
t^j mod Phi_m.  Primes above an unramified rational q are represented
by residue data only: the pair (q, zbar) with zbar a root of Phi_m in
F_{q^f}, f = ord(q mod m).  One prime per Frobenius orbit of roots, orbit
representative and ordering fixed by the canonical element order of the
residue field.  No ideal arithmetic anywhere.  (Z/N)^* = Gal(Q(zeta_N)/Q)
is described once, by generators (`unit_group_structure`) and every unit's
logs over them (`_unit_logs`); residue degrees (`unit_orders`), the units
of Q(zeta_m) and the characters of `automorphic` read that table.

A Datum is a cyclotomic element times a rational scalar, kept separate so
that q-adic valuations of planner-modified data can be read off the rational
part exactly (the cyclotomic core is checked to be a q-unit via its norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from . import ntheory
from .finitefield import FFElement, is_pth_power, make_ext_field, sylow_valuation
from .ntheory import InconclusiveError

DEFAULT_WITNESS_BOUND = 10 ** 4
NORM_FACTOR_BOUND = 10 ** 12


@lru_cache(maxsize=None)
def cyclotomic_poly_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first.

    Phi_m is the product of (x^d - 1)^mu(m/d) over d | m: multiply by the
    binomials with mu = 1, then divide exactly by those with mu = -1.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    ells = list(ntheory.factorint(m))
    ups, downs = [], []
    for j in range(len(ells) + 1):
        for sub in combinations(ells, j):
            (downs if j % 2 else ups).append(m // math.prod(sub))
    poly = [1]
    for d in ups:        # times x^d - 1
        prod = [0] * d + poly
        for i, c in enumerate(poly):
            prod[i] -= c
        poly = prod
    for d in downs:      # P = Q (x^d - 1) gives Q[i] = Q[i - d] - P[i]
        quo = [0] * (len(poly) - d)
        for i in range(len(quo)):
            quo[i] = (quo[i - d] if i >= d else 0) - poly[i]
        poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def CycloField(m: int) -> "_CycloField":
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m % 2 == 0 and m % 4 != 0 and m > 2:
        # Q(zeta_2k) = Q(zeta_k) for odd k; insist on the canonical conductor
        raise ValueError(f"conductor {m} is not canonical (use {m // 2})")
    return _CycloField(m)


class _CycloField:
    """Q(zeta_m).  Obtain through the cached CycloField(m) constructor."""

    def __init__(self, m):
        self.m = m
        phi = cyclotomic_poly_coeffs(m)
        self.degree = len(phi) - 1
        self._phi = phi
        # t^j mod Phi_m for j = 0..m (covers Galois exponent folding); Phi_m
        # is monic over Z, so every row is an integer vector
        rows = []
        cur = (1,) + (0,) * (self.degree - 1)
        for _ in range(max(m + 1, 2 * self.degree)):
            rows.append(cur)
            cur = self._shift(cur)
        self._power_rows = rows

    def _shift(self, vec):
        # multiply by t, reduce by the monic Phi_m
        top = vec[-1]
        return tuple(a - top * c for a, c in zip((0,) + vec[:-1], self._phi))

    def element(self, coeffs) -> "CycloElement":
        if isinstance(coeffs, (int, Fraction)):
            # a Fraction is already in lowest terms with a positive denominator
            num = (coeffs.numerator,) + (0,) * (self.degree - 1)
            return CycloElement(self, num, coeffs.denominator)
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        vec = [0] * self.degree
        for j, c in enumerate(coeffs):
            if c:
                n = c.numerator * (den // c.denominator)
                if j < self.degree:
                    vec[j] += n
                else:
                    for i, r in enumerate(self._power_rows[j % self.m]):
                        vec[i] += n * r
        return _reduced(self, vec, den)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def zeta_power(self, k: int) -> "CycloElement":
        """zeta^k, read from the power table (zeta^m = 1)."""
        return CycloElement(self, self._power_rows[k % self.m])

    def zeta(self):
        return self.zeta_power(1)

    def galois(self, x: "CycloElement", a: int) -> "CycloElement":
        """sigma_a: zeta -> zeta^a for gcd(a, m) = 1."""
        if math.gcd(a, self.m) != 1:
            raise ValueError(f"{a} not a unit mod {self.m}")
        vec = [0] * self.degree
        for j, c in enumerate(x.num):
            if c:
                for i, r in enumerate(self._power_rows[(a * j) % self.m]):
                    if r:
                        vec[i] += c * r
        # sigma_a permutes Z[zeta] and each q Z[zeta], so num / den stays in
        # lowest terms
        return CycloElement(self, vec, x.den)

    def units(self):
        return list(_unit_logs(self.m))

    def __repr__(self):
        return f"CycloField({self.m})"


class CycloElement:
    """num / den: an integer vector over the power basis and a common denominator.

    Canonical form: len(num) = phi(m), den > 0, gcd(den, *num) = 1, so zero is
    (0, ..., 0) over 1.  The constructor raises on any other form.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        num = tuple(num)
        if len(num) != field.degree or den < 1 or math.gcd(den, *num) != 1:
            raise ValueError(f"non-canonical element of {field}: {num} / {den}")
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients over the power basis, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        other = self._coerce(other)
        return _combine(self, other, 1)

    def __sub__(self, other):
        other = self._coerce(other)
        return _combine(self, other, -1)

    def __neg__(self):
        return CycloElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        deg = f.degree
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        conv[i + j] += a * b
        vec = conv[:deg]
        for j in range(deg, 2 * deg - 1):
            c = conv[j]
            if c:
                for i, r in enumerate(f._power_rows[j]):
                    if r:
                        vec[i] += c * r
        return _reduced(f, vec, self.den * other.den)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers not supported on elements")
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field is not self.field:
                raise ValueError("elements of different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    def conjugate(self):
        return self.field.galois(self, -1 % self.field.m if self.field.m > 1 else 1)

    def norm(self) -> Fraction:
        """Product of all Galois conjugates (absolute norm to Q)."""
        out = self.field.one()
        for a in self.field.units():
            out = out * self.field.galois(self, a)
        return out.as_fraction()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        return (isinstance(other, CycloElement) and self.field is other.field
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.field.m, self.num, self.den))

    def __repr__(self):
        out = ""
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                z = "z" if i == 1 else f"z^{i}"
                body = z if mag == 1 else f"{mag}*{z}"
            out += f"{sign} {body} " if out else f"{sign}{body} "
        return out.strip() if out else "0"


def _reduced(field, num, den: int) -> CycloElement:
    """num / den brought to canonical form (den > 0 on every caller)."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return CycloElement(field, num, den)


def _combine(x: CycloElement, y: CycloElement, sign: int) -> CycloElement:
    """x + sign * y over the least common denominator."""
    if x.den == y.den:
        return _reduced(x.field, [a + sign * b for a, b in zip(x.num, y.num)],
                        x.den)
    g = math.gcd(x.den, y.den)
    sx, sy = y.den // g, sign * (x.den // g)
    return _reduced(x.field, [a * sx + b * sy for a, b in zip(x.num, y.num)],
                    x.den * sx)


# ---------------------------------------------------------------------------
# (Z/N)^* = Gal(Q(zeta_N)/Q), as explicit cyclic factors

@lru_cache(maxsize=None)
def unit_group_structure(N: int) -> tuple[tuple[int, int], ...]:
    """Generators of (Z/N)^* as (g, order) pairs, g lifted mod N via CRT.

    Odd prime powers are cyclic on the least primitive root; 2^k for k >= 3
    splits as <-1> x <5>.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    if N <= 2:
        return ()
    local: list[tuple[int, int, int]] = []   # (prime power, generator, order)
    for ell, k in ntheory.factorint(N).items():
        pk = ell ** k
        if ell == 2:
            if k == 1:
                continue
            if k == 2:
                local.append((4, 3, 2))
            else:
                local.append((pk, pk - 1, 2))
                local.append((pk, 5, 2 ** (k - 2)))
        else:
            local.append((pk, ntheory.primitive_root(pk), pk - pk // ell))
    gens = []
    for pk, g, d in local:
        rest = N // pk
        # g at this factor, 1 at every other factor
        lift = (g * rest * pow(rest, -1, pk) + pk * pow(pk, -1, rest)) % N \
            if rest > 1 else g % N
        gens.append((lift, d))
    return tuple(gens)


@lru_cache(maxsize=None)
def _unit_logs(N: int) -> dict[int, tuple[int, ...]]:
    """Every unit of Z/N, ascending, written in exponents over
    unit_group_structure(N)."""
    gens = unit_group_structure(N)
    logs = {1 % N: (0,) * len(gens)}
    frontier = [1 % N]
    while frontier:
        a = frontier.pop()
        ea = logs[a]
        for i, (g, d) in enumerate(gens):
            b = (a * g) % N
            if b not in logs:
                eb = list(ea)
                eb[i] = (eb[i] + 1) % d
                logs[b] = tuple(eb)
                frontier.append(b)
    return dict(sorted(logs.items()))


def _units(N: int) -> tuple[int, ...]:
    return tuple(_unit_logs(N))


@lru_cache(maxsize=None)
def unit_orders(m: int) -> tuple[int, ...]:
    """ord(a mod m) at each unit a of Z/m, 0 at every other residue.

    Entry q % m is the residue degree of every prime of Q(zeta_m) above an
    unramified q (Washington, Thm 2.13), and the nonzero entries number
    phi(m).  A unit with log e over the generators (g_i, d_i) has order
    lcm_i d_i / gcd(d_i, e_i).  m = 1 gives (1,).
    """
    if m == 1:
        return (1,)
    orders = [d for _, d in unit_group_structure(m)]
    table = [0] * m
    for a, e in _unit_logs(m).items():
        table[a] = math.lcm(*(d // math.gcd(d, x) for d, x in zip(orders, e)))
    return tuple(table)


@lru_cache(maxsize=None)
def cyclo_primes_above(m: int, q: int) -> tuple["CycloPrime", ...]:
    """Primes above unramified q, one per Frobenius orbit of Phi_m roots.

    The orbit of zeta^a in F_{q^f}, f = ord(q mod m), is zeta^(a<q>) for the
    coset a<q> in (Z/m)^*; a prime is its orbit's least-key root.
    """
    if not ntheory.isprime(q):
        raise ValueError(f"q = {q} is not prime")
    if m > 1 and m % q == 0:
        raise ValueError(f"q = {q} ramifies in conductor {m}")
    f = unit_orders(m)[q % m]
    field = make_ext_field(q, f)
    n_ = field.size - 1
    if n_ % m:
        raise AssertionError(f"F_{q}^{f} has no primitive {m}-th root of unity")
    # a non-ell-th power to the (n/ell^k)-th has order exactly ell^k
    one = field.one()
    root = one
    factors = ntheory.factorint(m)
    for ell, k in factors.items():
        root = root * field.nonresidue(ell) ** (n_ // ell ** k)
    powers = [one]
    for _ in range(m):
        powers.append(powers[-1] * root)
    if powers[m] != one or any(powers[m // ell] == one for ell in factors):
        raise AssertionError(f"{root} is not a primitive {m}-th root of "
                             f"unity in F_{q}^{f}")
    zbars, seen = [], set()
    for a in _unit_logs(m):
        if a not in seen:
            coset = {a * pow(q, i, m) % m for i in range(f)}
            seen |= coset
            zbars.append(min((powers[b] for b in coset), key=FFElement.key))
    zbars.sort(key=FFElement.key)
    return tuple(CycloPrime(m, q, f, z) for z in zbars)


@dataclass(frozen=True)
class CycloPrime:
    """A prime of Q(zeta_m) above q as residue data (q, zbar)."""

    m: int
    q: int
    f: int
    zbar: FFElement

    @property
    def norm(self) -> int:
        return self.q ** self.f

    def reduce_ints(self, num, scale: int = 1) -> FFElement:
        """Image of scale times the integer vector num over the power basis."""
        q = self.q
        field = self.zbar.field
        acc = field.zero()
        zpow = field.one()
        for c in num:
            if c:
                acc = acc + zpow * (c * scale % q)
            zpow = zpow * self.zbar
        return acc

    def __repr__(self):
        return f"CycloPrime(m={self.m}, q={self.q}, f={self.f}, zbar={self.zbar})"


# ---------------------------------------------------------------------------
# Kummer data and p-th-power certificates

@dataclass(frozen=True)
class Datum:
    """alpha = rat * cyc with the rational scalar kept separate.

    The cyclotomic core is treated as a unit away from its norm's support;
    valuations of planner multipliers live in `rat` and are exact.
    """

    cyc: CycloElement
    rat: Fraction = Fraction(1)

    @staticmethod
    def of(value, m: int = 1) -> "Datum":
        if isinstance(value, CycloElement):
            return Datum(value)
        return Datum(CycloField(m).one(), Fraction(value))

    @property
    def m(self) -> int:
        return self.cyc.field.m

    def value(self) -> CycloElement:
        return self.cyc * self.rat

    def is_zero(self):
        return self.rat == 0 or self.cyc.is_zero()

    def is_signed_root_of_unity(self, p: int) -> bool:
        """Is alpha = +-zeta for a p-th root of unity zeta != 1, p odd?

        Then alpha^(1/p) generates mu_{p^2} over Q(zeta_p), since -1 is a
        p-th power.
        """
        v, one = self.value(), self.cyc.field.one()
        return p != 2 and any(w != one and w ** p == one for w in (v, -v))

    def scale(self, r) -> "Datum":
        return Datum(self.cyc, self.rat * Fraction(r))

    @cached_property
    def _core_ints(self) -> tuple[int, int, int]:
        # the core's norm, worked out once, and its denominator
        n = self.cyc.norm()
        return n.numerator, n.denominator, self.cyc.den

    def core_support(self) -> set[int]:
        """Primes where valuations cannot be read off the rational part."""
        return {ell for v in self._core_ints for ell in ntheory.primefactors(abs(v))}

    def reading(self, prime: CycloPrime) -> tuple[int, FFElement]:
        """v_P(alpha) at a base prime P, and the image of alpha / q^v_P(alpha).

        q is unramified in Q(zeta_m), so the rational part and the core's
        denominator count with their q-adic valuations.  The core's integer
        vector c is reduced once: where its image is nonzero, v_P(c) = 0 and
        the image is read off.  Where P is the only prime above q dividing
        c, w = v_P(c) = v_q(N(c)) / f, and u, the product of the conjugates
        of c over the other cosets of the decomposition group <q>, is a
        P-unit with c * u divisible by q^w in Z[zeta_m]; the image of
        c / q^w is that of c * u / q^w over that of u.  With two or more
        such primes v_P(c) is not readable: ValueError.
        """
        if prime.m != self.m:
            raise ValueError("conductor mismatch")
        q, num, den = prime.q, self.rat.numerator, self.rat.denominator
        a = sylow_valuation(num, q)
        b = sylow_valuation(den * self.cyc.den, q)
        unit = num // q ** a * pow(den * self.cyc.den // q ** b, -1, q)
        img = prime.reduce_ints(self.cyc.num, unit % q)
        if not img.is_zero():
            return a - b, img
        hits = sum(P.reduce_ints(self.cyc.num).is_zero()
                   for P in cyclo_primes_above(self.m, q))
        if hits > 1:
            raise ValueError(f"valuation at q = {q} not readable: {hits} "
                             "primes above q divide the core")
        # N(c) = N(core) * den^phi(m)
        n_num, n_den, c_den = self._core_ints
        w = (sylow_valuation(n_num, q) - sylow_valuation(n_den, q)
             + self.cyc.field.degree * sylow_valuation(c_den, q)) // prime.f
        F, m = self.cyc.field, self.m
        c = CycloElement(F, self.cyc.num)
        decomposition = {pow(q, i, m) for i in range(prime.f)}
        u, seen = F.one(), set(decomposition)
        for s in _units(m):
            if s not in seen:
                seen |= {s * x % m for x in decomposition}
                u = u * F.galois(c, s)
        cu = (c * u).num
        if any(x % q ** w for x in cu):
            raise AssertionError(f"q^{w} does not divide c * u at q = {q}")
        img = prime.reduce_ints([x // q ** w for x in cu], unit % q)
        return a - b + w, img * prime.reduce_ints(u.num).inverse()

    def unit_part_image(self, prime: CycloPrime) -> FFElement:
        """Image of alpha / q^{v_P(alpha)} in the residue field at `prime`."""
        return self.reading(prime)[1]

    def __repr__(self):
        if self.rat == 1:
            return f"Datum({self.cyc!r})"
        return f"Datum({self.rat} * ({self.cyc!r}))"


def bad_primes(m: int, p: int, data) -> set[int]:
    """Rational primes left out of every claim about the data's p-th roots.

    p, the primes of the conductor m, and for each datum its core support
    and the primes of its rational part.  Away from this set every datum is
    a unit and every step k(d^(1/p)) over Q(zeta_m) is unramified; claims
    about "all but finitely many places" exclude exactly these primes.
    """
    bad = {p, *ntheory.primefactors(m)}
    for d in data:
        bad |= d.core_support()
        bad.update(ntheory.primefactors(abs(d.rat.numerator)))
        bad.update(ntheory.primefactors(d.rat.denominator))
    return bad


def bad_product(m: int, p: int, data) -> int:
    """A multiple of exactly `bad_primes(m, p, data)`: no factoring needed."""
    return m * p * math.prod(d.rat.numerator * d.rat.denominator
                             * math.prod(d._core_ints) for d in data)


def _fraction_is_pth_power(r: Fraction, p: int) -> bool:
    if r == 0:
        return True
    if p % 2 == 0 and r < 0:
        return False
    for part in (abs(r.numerator), r.denominator):
        if ntheory.iroot(part, p) ** p != part:
            return False
    return True


def exact_pth_power_in_rationals(d: Datum, p: int):
    """Exact decision over Q, norm-based partial decision otherwise.

    Returns True / False / None (None = exact route inconclusive).  A p-th
    power in Q stays one in Q(zeta_m), but a rational non-power may become
    one there (-1 = i^2), so "no" is read off Q only when the field is Q.
    """
    val = d.value()
    if val.is_rational():
        if _fraction_is_pth_power(val.as_fraction(), p):
            return True
        if d.cyc.field.degree == 1:
            return False
    n = val.norm()
    if max(abs(n.numerator), n.denominator) > NORM_FACTOR_BOUND:
        return None
    if not _fraction_is_pth_power(abs(n), p):
        return False  # norm of a p-th power is a p-th power
    return None


def exact_root_in_extension(d: Datum, p: int):
    """Factor x^p - d over Q(zeta_m); True/False when feasible, else None."""
    m = d.m
    deg = d.cyc.field.degree
    if deg * p > 30:
        return None
    import sympy   # algebraic factoring only; nothing else in kummerlab needs it
    x = sympy.Symbol("x")
    z = sympy.exp(2 * sympy.pi * sympy.I / m)
    expr = sympy.Integer(0)
    for i, c in enumerate(d.value().coeffs):
        if c:
            expr += sympy.Rational(c.numerator, c.denominator) * z ** i
    try:
        ext = [z] if m > 2 else []
        poly = sympy.Poly(x ** p - sympy.expand(expr), x, extension=ext or None,
                          domain=None if ext else "QQ")
        factors = poly.factor_list()[1]
    except Exception:
        return None
    return any(f.degree() == 1 for f, _ in factors)


@dataclass(frozen=True)
class PowerCertificate:
    """Outcome of a non-p-th-power search for a datum."""

    datum: Datum
    p: int
    witness_q: int | None        # prime with a non-p-th-power reduction
    witness_prime: CycloPrime | None
    is_pth_power: bool           # True when detected to be a p-th power


def datum_power_certificate(d: Datum, p: int,
                            bound: int = DEFAULT_WITNESS_BOUND) -> PowerCertificate:
    """Certify that d is not a p-th power by a residue witness <= bound.

    Raises InconclusiveError when no witness is found and the exact route
    cannot settle the question either.  Never defaults.
    """
    if d.is_zero():
        raise ValueError("zero datum")
    exact = exact_pth_power_in_rationals(d, p)
    if exact is True:
        return PowerCertificate(d, p, None, None, True)
    m = d.m
    skip = bad_primes(m, p, (d,))
    for q in ntheory.primerange(2, bound + 1):
        if q in skip:
            continue
        for prime in cyclo_primes_above(m, q):
            if not is_pth_power(d.unit_part_image(prime), p):
                return PowerCertificate(d, p, q, prime, False)
    if exact is False:
        raise InconclusiveError(
            f"datum is certainly not a {p}-th power (norm test) "
            f"but no witness prime <= {bound} was found")
    if exact_root_in_extension(d, p) is True:
        return PowerCertificate(d, p, None, None, True)
    raise InconclusiveError(
        f"no certifying prime below {bound}; datum may be a {p}-th power")


def require_not_pth_power(d: Datum, p: int,
                          bound: int = DEFAULT_WITNESS_BOUND) -> PowerCertificate:
    """Like datum_power_certificate but a detected p-th power is an error."""
    cert = datum_power_certificate(d, p, bound)
    if cert.is_pth_power:
        raise ValueError(f"datum {d!r} is a {p}-th power")
    return cert


# ---------------------------------------------------------------------------
# biquadratic subfield lattice

@dataclass(frozen=True)
class SubfieldTag:
    """One quadratic subfield of the compositum, as a Kummer datum over Q."""

    label: int
    datum: Datum
    subgroup: tuple[tuple[int, int], ...]  # the H_i it is fixed by


class PPSubfieldLattice:
    """E = Q(sqrt a_K, sqrt a_F) over Q with its three quadratic subfields.

    Galois coordinates: g = (x, y) acts by g(sqrt a_K) = (-1)^x sqrt a_K,
    g(sqrt a_F) = (-1)^y sqrt a_F.  Label 0 is K, fixed by (0, 1); 1 is F,
    fixed by (1, 0); 2 is Q(sqrt(a_K a_F)), fixed by (1, 1).  Frobenius at
    an odd prime q off the data is the pair of Legendre symbols
    ((a_K/q), (a_F/q)) in additive form.
    """

    def __init__(self, K_datum: Datum, F_datum: Datum):
        if K_datum.m != 1 or F_datum.m != 1:
            raise ValueError("lattice data must be rational (over Q)")
        mixed = Datum(K_datum.cyc * F_datum.cyc, K_datum.rat * F_datum.rat)
        # each datum's rational value, read once: Frobenius reads them at
        # every prime
        self.rational = {d: d.value().as_fraction()
                         for d in (K_datum, F_datum, mixed)}
        for d in (K_datum, F_datum):
            if d.is_zero():
                raise ValueError("zero datum")
            if _fraction_is_pth_power(self.rational[d], 2):
                raise ValueError(f"datum {d!r} is a 2-th power")
        if _fraction_is_pth_power(self.rational[mixed], 2):
            raise ValueError(f"K and F coincide: datum {mixed!r} is a 2-th power")
        self.K_datum = K_datum
        self.F_datum = F_datum
        self.subfields = (SubfieldTag(0, K_datum, ((0, 1),)),
                          SubfieldTag(1, F_datum, ((1, 0),)),
                          SubfieldTag(2, mixed, ((1, 1),)))
        self._bad = frozenset(bad_primes(1, 2, (K_datum, F_datum)))

    def kummer_exponent(self, d: Datum, q: int) -> int:
        """The Legendre symbol (d/q) in additive form, for d one of the
        three subfield data: 0 iff d is a square mod q."""
        if not ntheory.isprime(q):
            raise ValueError(f"q = {q} is not prime")
        r = self.rational[d]
        if q == 2 or (s := ntheory.jacobi(r.numerator * r.denominator, q)) == 0:
            raise ValueError(f"q = {q} is wild or ramified for {d!r}")
        return 0 if s == 1 else 1

    def frobenius_coordinates(self, q: int) -> tuple[int, int]:
        return (self.kummer_exponent(self.K_datum, q),
                self.kummer_exponent(self.F_datum, q))

    def bad_primes(self) -> set[int]:
        """The module rule `bad_primes` for both data, as a fresh set."""
        return set(self._bad)


def pp_lattice(K_datum: Datum, F_datum: Datum) -> PPSubfieldLattice:
    return PPSubfieldLattice(K_datum, F_datum)
