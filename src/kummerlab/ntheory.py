"""Integer number theory on machine-sized ints, in plain Python.

Primes come from one bytearray sieve that grows on demand.  Above the
sieve, `isprime` runs Miller-Rabin on the first 13 prime bases, which
decides every n < 3.3 * 10^24 (Sorenson & Webster, Math. Comp. 86, 2017);
a larger n gets the strong Baillie-PSW test (Baillie & Wagstaff, Math.
Comp. 35, 1980), which has no known pseudoprime and is the test sympy
runs there.  `factorint` divides out the small primes and splits what
is left as a perfect power, by Brent's variant of Pollard rho (Brent 1980),
by Pollard p - 1, or by ECM with bounded effort; past that bound it raises
InconclusiveError instead of searching on.  `jacobi` is the one quadratic
symbol: the Lucas test and every Legendre symbol (a / q) read it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import compress, count

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981   # least strong pseudoprime to MR_BASES
TRIAL_BOUND = 1000                      # factorint divides by primes below it
RHO_STEPS = 1 << 14                     # then rho, to factors near 10^8
PM1_BOUND = 10 ** 5                     # then p - 1 to this stage-1 bound
# then ECM: (B1, curves) for factors of 15 and 20 digits (GMP-ECM's table);
# a 60-digit n that outlasts both gives up after about 20 s on a 2-core Xeon
ECM_ROUNDS = ((2000, 25), (11000, 90))

_sieve = bytearray()     # _sieve[n] == 1 exactly when n is prime
_primes: list[int] = []  # the primes below len(_sieve), ascending


class InconclusiveError(RuntimeError):
    """A search exhausted its bound without a verdict."""


def _grow(n: int) -> None:
    """Sieve at least [0, n], at least doubling the sieve."""
    global _sieve, _primes
    size = max(n + 1, 2 * len(_sieve), 1 << 12)
    s = bytearray([1]) * size
    s[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(size - 1) + 1):
        if s[i]:
            s[i * i::i] = bytes(len(range(i * i, size, i)))
    _sieve, _primes = s, list(compress(range(size), s))


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending."""
    if b > len(_sieve):
        _grow(b)
    return _primes[bisect_left(_primes, a):bisect_left(_primes, b)]


def isprime(n: int) -> bool:
    """Read off the sieve below its end, by Miller-Rabin or BPSW above it."""
    if 0 <= n < len(_sieve):
        return _sieve[n] == 1
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n < MR_LIMIT:
        return _strong_probable_prime(n, MR_BASES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin on the odd n > 2 to each base."""
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0; the Legendre symbol for n prime."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test on the odd n > 2 with Selfridge's P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1   # n + 1 = d * 2^s, d odd
    d = (n + 1) >> s

    def half(x):
        return ((x + n if x & 1 else x) >> 1) % n

    U, V, Qk = 1, 1, Q % n     # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho(n: int, steps: int) -> int | None:
    """A proper factor of the odd composite n, or None if Brent's cycle
    search on x^2 + c, c = 1, 2, ..., finds none in about 2 * `steps` steps."""
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            if r > steps:
                return None
            steps -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:   # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _lcm_upto(B: int) -> int:
    """lcm(1, ..., B): the exponent that kills every B-power-smooth order."""
    out = 1
    for ell in primerange(2, B + 1):
        q = ell
        while q * ell <= B:
            q *= ell
        out *= q
    return out


def _pm1(n: int, B: int) -> int | None:
    """Pollard p - 1, stage 1: a factor q of n with q - 1 B-power-smooth.

    Base 3, since 2 has a small order mod every Mersenne prime."""
    g = math.gcd(pow(3, _lcm_upto(B), n) - 1, n)
    return g if 1 < g < n else None


def _xdbl(P, a24, n):
    """2P on a Montgomery curve, x-only: (X : Z) with a24 = (A + 2)/4."""
    X, Z = P
    s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(P, Q, diff, n):
    """P + Q on a Montgomery curve, x-only, from diff = P - Q."""
    u = (P[0] - P[1]) * (Q[0] + Q[1])
    v = (P[0] + P[1]) * (Q[0] - Q[1])
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ladder(k: int, P, a24, n):
    """kP for k >= 1 by the Montgomery ladder."""
    R0, R1 = P, _xdbl(P, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            R0, R1 = _xadd(R1, R0, P, n), _xdbl(R1, a24, n)
        else:
            R0, R1 = _xdbl(R0, a24, n), _xadd(R1, R0, P, n)
    return R0


def _ecm(n: int, bound: int) -> int | None:
    """A proper factor of n by Lenstra's elliptic curve method, or None.

    Suyama's curves, sigma = 6, 7, ..., in Montgomery's x-only form.  Stage 1
    multiplies by lcm(1..B1); stage 2 catches one more prime q <= B2 = 100 B1
    from x(rQ) = x(dQ) whenever q = r -+ d, r a multiple of 2D and d < D odd
    (Montgomery, Math. Comp. 48, 1987).  The rounds of ECM_ROUNDS run while
    B1 <= bound.
    """
    sigma = 5
    for B1, curves in ECM_ROUNDS:
        if B1 > bound:
            break
        k, B2 = _lcm_upto(B1), 100 * B1
        D = math.isqrt(B2) & ~1   # so the giant steps r start at 4D or more
        odd = range(1, D, 2)
        if B2 + D >= len(_sieve):
            _grow(B2 + D)
        rs = range(B1 // (2 * D) * (2 * D), B2 + D, 2 * D)
        # per giant step r, the indices of the d with r - d or r + d prime
        plan = [[i for i, d in enumerate(odd)
                 if B1 < r - d and _sieve[r - d] or r + d <= B2 and _sieve[r + d]]
                for r in rs]
        for _ in range(curves):
            sigma += 1
            u, v = (sigma * sigma - 5) % n, 4 * sigma % n
            den = 16 * pow(u, 3, n) * v % n
            g = math.gcd(den, n)
            if g > 1:
                if g < n:
                    return g
                continue
            a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
            Q = _ladder(k, (pow(u, 3, n), pow(v, 3, n)), a24, n)
            g = math.gcd(Q[1], n)
            if g > 1:
                if g < n:
                    return g
                continue
            Q2 = _xdbl(Q, a24, n)
            S = [Q, _xadd(Q2, Q, Q, n)]          # S[i] = (2i + 1)Q
            while len(S) < len(odd):
                S.append(_xadd(S[-1], Q2, S[-2], n))
            xz = [X * Z % n for X, Z in S]
            W = _ladder(2 * D, Q, a24, n)
            R, T = _ladder(rs[0], Q, a24, n), _ladder(rs[0] - 2 * D, Q, a24, n)
            acc = 1
            for ds in plan:
                XR, ZR = R
                xzR = XR * ZR
                for i in ds:   # XR ZS - XS ZR, in one product
                    X, Z = S[i]
                    acc = acc * ((XR - X) * (ZR + Z) - xzR + xz[i]) % n
                R, T = _xadd(R, W, T, n), R
            g = math.gcd(acc, n)
            if 1 < g < n:
                return g
    return None


def _split(n: int, bound: int) -> int:
    """A proper factor of the composite n, which has no prime factor below
    TRIAL_BOUND: a perfect-power root, then rho, p - 1 and ECM to B1 = bound."""
    for k in primerange(2, n.bit_length() // 9 + 1):   # n >= 1000^k
        r = iroot(n, k)
        if r ** k == n:
            return r
    d = _rho(n, RHO_STEPS) or _pm1(n, PM1_BOUND) or _ecm(n, bound)
    if d is None:
        raise InconclusiveError(f"no factor of {n} found with ECM up to B1 = {bound}")
    return d


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, primes ascending.

    Raises InconclusiveError for a composite part that every ECM round
    leaves whole.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for ell in primerange(2, TRIAL_BOUND):
        if ell * ell > n:
            break
        while n % ell == 0:
            out[ell] = out.get(ell, 0) + 1
            n //= ell
    stack = [n] if n > 1 else []
    while stack:
        x = stack.pop()
        if x < TRIAL_BOUND ** 2 or isprime(x):
            out[x] = out.get(x, 0) + 1
            continue
        d = _split(x, ECM_ROUNDS[-1][0])
        stack += [d, x // d]
    return dict(sorted(out.items()))


def primefactors(n: int) -> list[int]:
    """The primes dividing n, ascending; [] for n in (0, 1)."""
    return list(factorint(n)) if n > 1 else []


def squarefree_kernel(x) -> int:
    """Signed squarefree representative of the square class of a rational x."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator
    k = -1 if n < 0 else 1
    for q, e in factorint(abs(n)).items():
        if e % 2:
            k *= q
    return k


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for ell, k in factorint(n).items():
        out = [d * ell ** i for d in out for i in range(k + 1)]
    return sorted(out)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by Newton's method from above."""
    if n < 0 or k < 1:
        raise ValueError(f"no real {k}-th root of {n}")
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def primitive_root(n: int) -> int:
    """The least primitive root mod an odd prime power n."""
    fs = factorint(n) if n > 2 else {}
    if len(fs) != 1 or 2 in fs:
        raise ValueError(f"{n} is not an odd prime power")
    ell = next(iter(fs))
    phi = n // ell * (ell - 1)
    cofactors = [phi // r for r in primefactors(phi)]
    return next(g for g in range(2, n) if g % ell
                and all(pow(g, c, n) != 1 for c in cofactors))
