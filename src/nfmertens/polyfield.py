"""Exact arithmetic over Z and over prime fields F_p.

Integers are tested prime by deterministic Miller-Rabin (is_prime) and
factored by trial division (factor), the one factoriser of the package.
real_root_count counts the real roots of an integer polynomial (Sturm).

Polynomials are coefficient tuples, lowest degree first: over Z immutable
IntPolys of Python ints (discriminants overflow 64 bits even for modest
cubics), over F_p trimmed tuples with every coefficient in [0, p), the
modulus passed alongside.

Over F_p there are the squarefree and distinct-degree stages of the
classical factorization (Cohen, GTM 138, sec. 3.4), but no equal-degree
stage: splitting.py and field.py read only factor degrees and
multiplicities, and a product of degree k of factors of degree d holds k / d
of them. Dedekind's criterion (dedekind_index_test) works on the same
kernels, plus one product mod p^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CompositeModulus, ZeroPolynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict[int, int]:
    """{p: e} with n = prod(p^e) for n >= 1, by trial division: about
    sqrt(n) / 2 steps for a prime n."""
    if n < 1:
        raise ValueError(f"factor takes n >= 1, not {n}")
    found = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        found[n] = 1
    return found


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


# Integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Polynomial over Z; coeffs[k] multiplies x^k, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "IntPoly":
        return IntPoly(_trim(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def derivative(self) -> "IntPoly":
        return IntPoly(_trim(k * c for k, c in enumerate(self.coeffs) if k))


def _sylvester_resultant(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Resultant of two integer polynomials via Bareiss elimination."""
    da, db = len(a) - 1, len(b) - 1
    if db == 0:
        return b[0] ** da
    if da == 0:
        return a[0] ** db
    n = da + db
    m = [[0] * n for _ in range(n)]
    for i in range(db):
        for j, c in enumerate(reversed(a)):
            m[i][i + j] = c
    for i in range(da):
        for j, c in enumerate(reversed(b)):
            m[db + i][i + j] = c
    # fraction-free Gaussian elimination (Bareiss)
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def poly_discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') for monic f, exactly."""
    if f.is_zero:
        raise ZeroPolynomial("discriminant of the zero polynomial")
    if not f.is_monic or f.degree < 1:
        raise ValueError("discriminant requires a monic polynomial of degree >= 1")
    d = f.degree
    res = _sylvester_resultant(f.coeffs, f.derivative().coeffs)
    return (-1) ** (d * (d - 1) // 2) * res


def real_root_count(f: IntPoly) -> int:
    """The number of distinct real roots of f, degree >= 1, by Sturm's
    theorem (Cohen, GTM 138, sec. 4.1)."""
    # the sign changes of f, f', -rem(f, f'), ... at -infinity less those at
    # +infinity; each remainder over Z is scaled by |lc| > 0 per step and
    # divided by its content, so its signs are those over Q
    chain = [f.coeffs, f.derivative().coeffs]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(r) >= len(b):
            lead, shift = sign * r[-1], len(r) - len(b)
            r = [scale * c - (lead * b[i - shift] if i >= shift else 0)
                 for i, c in enumerate(r[:-1])]
        r = _trim(r)
        if not r:
            break
        chain.append(tuple(-c // gcd(*r) for c in r))

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes([(c[-1] > 0) == (len(c) % 2 == 1) for c in chain]) \
        - changes([c[-1] > 0 for c in chain])


# Polynomials over F_p: every kernel takes and returns trimmed coefficient
# tuples.


def _psub(a, b, p):
    n = max(len(a), len(b))
    c = [0] * n
    for i, v in enumerate(a):
        c[i] = v
    for i, v in enumerate(b):
        c[i] = (c[i] - v) % p
    return _trim(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return _trim(v % p for v in c)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] % p
        if c:
            c = c * inv % p
            q[i - db] = c
            for j, bj in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * bj) % p
    return _trim(q), _trim(r)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pmonic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return _trim(v * inv % p for v in a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return _pmonic(a, p)


def _pderiv(a, p):
    return _trim(k * c % p for k, c in enumerate(a) if k)


def _ppowmod(base, e, mod, p):
    result = (1,)
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


_X = (0, 1)


def _pth_root(a, p):
    # in F_p[x], a polynomial with zero derivative is b(x^p); coefficients
    # are fixed by Frobenius, so the root just reindexes them
    return _trim(a[i] for i in range(0, len(a), p))


def _squarefree_parts(f, p):
    """f monic -> list of (g, m): f = prod g^m, g monic squarefree, coprime."""
    parts = []

    def run(f, mult):
        df = _pderiv(f, p)
        if not df:
            run(_pth_root(f, p), mult * p)
            return
        c = _pgcd(f, df, p)
        w = _pdivmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _pgcd(w, c, p)
            fac = _pdivmod(w, y, p)[0]
            if len(fac) > 1:
                parts.append((fac, i * mult))
            w = y
            c = _pdivmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            run(_pth_root(c, p), mult * p)

    run(_pmonic(f, p), 1)
    parts.sort(key=lambda gm: (gm[1], len(gm[0]), gm[0]))
    return parts


def _distinct_degree_parts(g, p):
    """g monic squarefree -> list of (product of irreducibles of degree d, d)."""
    parts = []
    h = _X
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(h, p, g, p)
        gd = _pgcd(_psub(h, _X, p), g, p)
        if len(gd) > 1:
            parts.append((gd, d))
            g = _pdivmod(g, gd, p)[0]
            h = _pmod(h, g, p)
    if len(g) > 1:
        parts.append((g, len(g) - 1))
    return parts


def _dedekind_from_parts(f: IntPoly, p: int, parts) -> bool:
    """Dedekind criterion given the squarefree decomposition of f mod p."""
    if all(m == 1 for _, m in parts):
        return True
    gbar = (1,)
    hbar = (1,)
    for g, m in parts:
        gbar = _pmul(gbar, g, p)
        for _ in range(m - 1):
            hbar = _pmul(hbar, g, p)
    # T = (g h - f) / p mod p for the lifts g, h with coefficients in [0, p):
    # g h = f mod p, so T is (g h mod p^2 - f) mod p^2, floor-divided by p.
    # g h and f are monic of the same degree
    tbar = _trim((a - c) % (p * p) // p
                 for a, c in zip(_pmul(gbar, hbar, p * p), f.coeffs))
    return len(_pgcd(_pgcd(tbar, gbar, p), hbar, p)) == 1


def dedekind_index_test(f: IntPoly, p: int) -> bool:
    """True iff p does not divide the index of Z[x]/(f) in the maximal order.

    When true, the splitting of p can be read directly from the factorization
    of f mod p.
    """
    if not is_prime(p):
        raise CompositeModulus(f"modulus {p} is not prime")
    if not f.is_monic:
        raise ValueError("Dedekind criterion requires a monic polynomial")
    # f is monic, so f mod p keeps its degree
    fbar = tuple(c % p for c in f.coeffs)
    return _dedekind_from_parts(f, p, _squarefree_parts(fbar, p))
