"""Rankin-Selberg coefficient series and the pole bookkeeping near s = 1.

Coefficients are exact elements of Q(zeta_L), L the lcm of all character
orders in play; floats enter only when a series is evaluated at a real
s > 1.  The comparison series Z has coefficients (1/r)|trace difference|^2,
manifestly nonnegative, so positivity is certified by construction and the
only exact question is which coefficients vanish.

Slope reports fit log Z(1+eps) against log(1/eps).  A finite prime cutoff X
saturates the sum once eps log X is small, so the raw fit is reported next
to two cutoff-aware companions: one completes the ordinate with a
prime-density tail estimate, one replaces the abscissa by the truncated
response E1(eps log 2) - E1(eps log X) of a single simple pole.  Neither
peeks at the predicted pole order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .automorphic import IsobaricRep, moduli_lcm, pair_components, ramified_primes
from .cyclotomic import CycloField, _unit_logs
from .splitting import Field

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# exact roots of unity

def value_field(*reps: IsobaricRep):
    """The cyclotomic field holding every character value of the given reps."""
    L = 1
    for pi in reps:
        for chi, _ in pi.components:
            L = L * chi.order // math.gcd(L, chi.order)
    if L % 2 == 0 and L % 4 != 0 and L > 2:
        L //= 2                    # zeta_2k lives in Q(zeta_k) for odd k
    return CycloField(L)


def root_of_unity(field, angle: Fraction):
    """exp(2 pi i angle) as an exact element of the field.

    zeta_m^k is read from the field's power table, which folds k mod m, so
    the angle needs no reduction mod 1.
    """
    if not isinstance(angle, Fraction):
        angle = Fraction(angle)
    d = angle.denominator
    m = field.m
    if m % d == 0:
        return field.zeta_power(angle.numerator * (m // d))
    k = d // 2
    if d % 2 == 0 and k % 2 == 1 and m % k == 0:
        # zeta_2k = -zeta_k^((k+1)/2) for odd k
        inner = Fraction(angle.numerator * ((k + 1) // 2), k)
        return -root_of_unity(field, inner)
    raise ValueError(f"order {d} root does not live in Q(zeta_{m})")


def to_complex(elem) -> complex:
    m = elem.field.m
    return sum(float(c) * complex(math.cos(2 * math.pi * k / m),
                                  math.sin(2 * math.pi * k / m))
               for k, c in enumerate(elem.coeffs) if c)


# ---------------------------------------------------------------------------
# place selection

@dataclass(frozen=True)
class PrimeSelector:
    """Finite, reproducible set of unramified places with Nv <= cutoff.

    Places are the rows of the field's `splitting.Field.places` cut at the
    cutoff.  Degrees are residue degrees over the rationals; the exception
    list removes whole rational primes on top of the always-excluded bad set.
    """

    field_desc: object = 1
    cutoff: int = 100
    degrees: frozenset | None = None
    exclude: frozenset = dfield(default_factory=frozenset)

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.degrees is not None and not self.degrees:
            raise ValueError("empty degree filter selects nothing forever")

    def places(self) -> list:
        """(Nv, q, f) sorted by (Nv, q); one entry per place."""
        out = []
        for q, f, count in Field.of(self.field_desc).places(self.cutoff):
            Nv = q ** f
            if (Nv > self.cutoff or q in self.exclude
                    or (self.degrees is not None and f not in self.degrees)):
                continue
            out.extend([(Nv, q, f)] * count)
        out.sort()
        return out


# ---------------------------------------------------------------------------
# coefficient series

@dataclass(frozen=True)
class CoefficientSeries:
    """m -> c_m over Q(zeta_L); all other coefficients are zero."""

    kind: str                     # "log" or "Z"
    coeffs: dict                  # m -> CycloElement
    value_field: object
    cutoff: int

    def floats(self) -> dict:
        out = {}
        for m, c in sorted(self.coeffs.items()):
            z = to_complex(c)
            out[m] = z.real if self.kind == "Z" else z
        return out


def _unitary_pair(pi: IsobaricRep, pi2: IsobaricRep):
    if pi.t != 0 or pi2.t != 0:
        raise ValueError("series need the unitary model (t = 0)")
    if pi.field != pi2.field:
        raise ValueError("the pair must live over one field")


def _trace_table(pi: IsobaricRep, F, N: int) -> dict:
    """Residue class of Nv mod N -> exact trace of A_v(pi)."""
    table = {}
    for a in _unit_logs(N):
        acc = F.zero()
        for chi, mult in pi.components:
            acc = acc + root_of_unity(F, chi.angle(a)) * mult
        table[a] = acc
    return table


def rs_coeffs(pi: IsobaricRep, pi2: IsobaricRep, selector: PrimeSelector,
              M: int, kind: str = "log") -> CoefficientSeries:
    """Exact c_m for prime powers m = Nv^r <= M over the selected places.

    kind "log": c_m = sum_v (1/r) conj(tr A_v^r) tr A'_v^r, the coefficient
    series of log L(conj(pi) x pi2).  kind "Z": (1/r)|tr A_v^r - tr A'_v^r|^2,
    the four-fold combination whose positivity drives everything.
    """
    if kind not in ("log", "Z"):
        raise ValueError("kind must be 'log' or 'Z'")
    _unitary_pair(pi, pi2)
    N = moduli_lcm(pi, pi2)
    plist = selector.places()
    ramified = ramified_primes(pi, pi2)
    for _Nv, q, _f in plist:
        if q in ramified:
            raise ValueError(f"selector includes q = {q}, ramified "
                             "for a component")
    F = value_field(pi, pi2)
    tr1 = _trace_table(pi, F, N)
    tr2 = _trace_table(pi2, F, N)
    coeffs: dict = {}
    cls_cache: dict = {}
    for Nv, q, _f in plist:
        m = Nv
        r = 1
        while m <= M:
            a = m % N
            if (a, r) not in cls_cache:
                if kind == "log":
                    val = tr1[a].conjugate() * tr2[a] * Fraction(1, r)
                else:
                    z = tr1[a] - tr2[a]
                    val = z * z.conjugate() * Fraction(1, r)
                cls_cache[(a, r)] = val
            val = cls_cache[(a, r)]
            if not val.is_zero():
                coeffs[m] = coeffs[m] + val if m in coeffs else val
            m *= Nv
            r += 1
    return CoefficientSeries(kind, coeffs, F, M)


@dataclass(frozen=True)
class PoleBook:
    """Predicted -ord_{s=1} of the comparison ratio Z, from the components."""

    mu: int
    mu2: int
    shared: int

    def __post_init__(self):
        if self.mu < 1 or self.mu2 < 1 or self.shared < 0:
            raise ValueError("mu, mu' >= 1 and shared >= 0")

    @property
    def neg_ord(self) -> int:
        return self.mu + self.mu2 - 2 * self.shared


def pole_book(pi: IsobaricRep, pi2: IsobaricRep) -> PoleBook:
    _unitary_pair(pi, pi2)
    mu = sum(m * m for _, m in pi.components)
    mu2 = sum(m * m for _, m in pi2.components)
    pairs, _, _ = pair_components(pi, pi2)
    shared = sum(m * m2 for _, m, _, m2 in pairs)
    return PoleBook(mu, mu2, shared)


@dataclass(frozen=True)
class PositivityReport:
    checked: int
    zero: int
    min_value: float
    all_nonnegative: bool


def positivity_check(pi: IsobaricRep, pi2: IsobaricRep,
                     selector: PrimeSelector, M: int) -> PositivityReport:
    """Exact nonnegativity of every Z coefficient.

    Each c_m is a sum of (1/r) z conj(z): nonnegative by construction, so
    the report certifies the structural form, counts the exact zeros, and
    evaluates the minimum only for display.
    """
    series = rs_coeffs(pi, pi2, selector, M, "Z")
    candidates = set()
    for Nv, _q, _f in selector.places():
        m = Nv
        while m <= M:
            candidates.add(m)
            m *= Nv
    # a Z coefficient is a sum of squared moduli, so a missing candidate
    # can only mean every term vanished exactly
    zeros = len(candidates) - len(series.coeffs)
    fl = series.floats()
    min_val = min(fl.values(), default=0.0)
    ok = all(v > -1e-12 for v in fl.values())
    if not ok:
        raise AssertionError("squared-modulus coefficient evaluated negative")
    return PositivityReport(len(candidates), zeros, min_val, ok)


def tail_threshold(n: int) -> int:
    """Least residue degree excluded from the agreement hypothesis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n * n + 1) // 2 + 1


# ---------------------------------------------------------------------------
# slope experiment

def exp1(x: float) -> float:
    """The exponential integral E1(x) for x > 0."""
    if x <= 0:
        raise ValueError("E1 needs x > 0")
    if x <= 1:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            inc = -term / k
            total += inc
            if abs(inc) < 1e-18:
                break
        return total
    # modified Lentz continued fraction: E1 = e^-x / (x + 1 - 1/(x+3 - 4/...))
    tiny = 1e-300
    f = x + 1
    c = f
    d = 0.0
    for k in range(1, 200):
        a = -k * k
        b = x + 2 * k + 1
        d = b + a * d
        d = tiny if d == 0 else d
        c = b + a / c
        c = tiny if c == 0 else c
        d = 1 / d
        delta = c * d
        f *= delta
        if abs(delta - 1) < 1e-16:
            break
    return math.exp(-x) / f


@dataclass(frozen=True)
class SlopeReport:
    cutoff: int
    grid: tuple
    log_values: tuple             # log Z_X(1 + eps) per grid point
    raw_slope: float              # vs log(1/eps), cutoff-blind
    completed_slope: float        # ordinate completed by a density tail
    compensated_slope: float      # abscissa = truncated one-pole response
    mean_tail_coeff: float


def _lsq_slope(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def slope_experiment(pi: IsobaricRep, pi2: IsobaricRep,
                     selector: PrimeSelector,
                     grid=(0.1, 0.05, 0.02, 0.01)) -> SlopeReport:
    """Measure how log Z grows as s -> 1+ under a finite cutoff.

    The mean Z coefficient over the top decade of the cutoff estimates the
    prime density of the series; its tail integral is E1(eps log X) exactly.
    """
    if (len(grid) < 2 or not grid[-1] > 0
            or not all(a > b for a, b in zip(grid, grid[1:]))):
        raise ValueError("grid must have two or more points and decrease "
                         "strictly toward 0")
    X = selector.cutoff
    series = rs_coeffs(pi, pi2, selector, X, "Z")
    fl = series.floats()
    decade = [c for m, c in fl.items() if m > X // 10]
    n_decade = sum(1 for Nv, _, _ in selector.places() if Nv > X // 10)
    mean_c = (sum(decade) / n_decade) if n_decade else 0.0
    ys = tuple(math.fsum(c * m ** (-(1 + e)) for m, c in fl.items())
               for e in grid)
    xs_raw = [math.log(1 / e) for e in grid]
    ys_completed = [y + mean_c * exp1(e * math.log(X))
                    for y, e in zip(ys, grid)]
    xs_comp = [exp1(e * math.log(2)) - exp1(e * math.log(X)) for e in grid]
    return SlopeReport(
        cutoff=X, grid=tuple(grid), log_values=ys,
        raw_slope=_lsq_slope(xs_raw, ys),
        completed_slope=_lsq_slope(xs_raw, ys_completed),
        compensated_slope=_lsq_slope(xs_comp, ys),
        mean_tail_coeff=mean_c)
