"""Reference arithmetic for the benchmark's correctness oracles.

Nothing here imports perffield: the oracles must not share a code path
with what they check. Three pieces:

- dense Z_p[t] helpers and a brute-force search for the first monic
  irreducible of degree n in encoding order (constant term fastest),
  which is how perffield documents its canonical moduli;
- GF, a finite field F_{p^m} on integer encodings (digit i is the
  coefficient of t^i) with exp/log tables, used to evaluate expressions
  and library values at random points;
- sparse multivariate polynomials over Z_p as {exponent tuple: coeff}
  dicts, with a heap-driven exact division for divisibility checks.
"""

from __future__ import annotations

import heapq

# -- dense Z_p[t] -------------------------------------------------------------


def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def pmod(a, f, p):
    r = ptrim(list(a))
    df = len(f) - 1
    inv = pow(f[-1], p - 2, p)
    while len(r) - 1 >= df and r:
        q = r[-1] * inv % p
        shift = len(r) - 1 - df
        for i, c in enumerate(f):
            r[shift + i] = (r[shift + i] - q * c) % p
        ptrim(r)
    return r


def pmulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pmod([c % p for c in out], f, p)


def ppowmod(a, e, f, p):
    result, base = [1], pmod(a, f, p)
    while e:
        if e & 1:
            result = pmulmod(result, base, f, p)
        e >>= 1
        if e:
            base = pmulmod(base, base, f, p)
    return result


def decode(k, n, p):
    out = []
    for _ in range(n):
        out.append(k % p)
        k //= p
    return out


def encode(coeffs, p):
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


def poly_str(coeffs):
    """Dense Z_p[t] polynomial printed highest degree first, as perffield's
    finite-field output spells it."""
    chunks = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            chunks.append(str(c))
        else:
            var = "t" if e == 1 else f"t^{e}"
            chunks.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(chunks) if chunks else "0"


_IRRED: dict = {}


def first_irreducible(p, n):
    """Coefficients (constant first, monic) of the first irreducible of
    degree n, found by trial division by every monic polynomial of degree
    1..n//2."""
    key = (p, n)
    if key not in _IRRED:
        divisors = [
            decode(k, d, p) + [1] for d in range(1, n // 2 + 1) for k in range(p**d)
        ]
        for k in range(p**n):
            f = decode(k, n, p) + [1]
            if n == 1 or all(pmod(f, g, p) for g in divisors):
                _IRRED[key] = f
                break
    return _IRRED[key]


# -- F_{p^m} on encodings -------------------------------------------------------


class Pole(Exception):
    """A denominator vanished at the evaluation point."""


class GF:
    """F_{p^m} modulo a given monic modulus (constant coefficient first)."""

    def __init__(self, p, modulus):
        self.p = p
        self.m = m = len(modulus) - 1
        self.q = q = p**m
        self.modulus = list(modulus)
        # log/exp tables from a primitive element of the form t + c
        for c in range(p):
            exp = self._powers(c)
            if exp is not None:
                break
        else:
            raise RuntimeError("no primitive element of the form t + c")
        self.exp = exp
        self.log = [0] * q
        for i, v in enumerate(exp):
            self.log[v] = i

    def _powers(self, c):
        """The encodings of (t + c)^0, (t + c)^1, ..., or None if t + c is not
        primitive. Needs m >= 2, where t + c is never zero."""
        p, m, q, f = self.p, self.m, self.q, self.modulus
        cur = [1] + [0] * (m - 1)
        out = []
        for _ in range(q - 1):
            k = encode(cur, p)
            if out and k == 1:
                return None
            out.append(k)
            # cur * (t + c) mod f
            top = cur[-1]
            nxt = [0] + cur[:-1]
            for i in range(m):
                nxt[i] = (nxt[i] + c * cur[i] - top * f[i]) % p
            cur = nxt
        return out if encode(cur, p) == 1 else None

    def const(self, c):
        return c % self.p

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        r, w = 0, 1
        while a or b:
            r += (a % p + b % p) % p * w
            a //= p
            b //= p
            w *= p
        return r

    def neg(self, a):
        p = self.p
        r, w = 0, 1
        while a:
            r += (-(a % p)) % p * w
            a //= p
            w *= p
        return r

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a, e):
        if not a:
            if e < 0:
                raise Pole("zero to a negative power")
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def inv(self, a):
        return self.pow(a, -1)

    def div(self, a, b):
        if not b:
            raise Pole("division by zero")
        return self.mul(a, self.inv(b))

    def root(self, a, k):
        """The unique b with b^(p^k) = a."""
        return self.pow(a, self.p ** ((-k) % self.m))

    def frob(self, a, k=1):
        return self.pow(a, self.p**k)


def oracle_field(p, m):
    return GF(p, first_irreducible(p, m))


# -- sparse multivariate polynomials over Z_p ---------------------------------


def smul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _heap_key(mono):
    # grlex maximum first: heapq pops the smallest key
    return (-sum(mono), tuple(-e for e in mono))


def sdivexact(a, b, p):
    """Quotient a/b when b divides a exactly, else None."""
    lm_b = max(b, key=lambda m: (sum(m), m))
    inv = pow(b[lm_b], p - 2, p)
    rem = dict(a)
    heap = [(_heap_key(m), m) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        _, lm = heapq.heappop(heap)
        if lm not in rem:
            continue
        qm = tuple(x - y for x, y in zip(lm, lm_b))
        if min(qm) < 0:
            return None
        qc = rem[lm] * inv % p
        quot[qm] = qc
        for m, c in b.items():
            mm = tuple(x + y for x, y in zip(qm, m))
            s = (rem.get(mm, 0) - qc * c) % p
            if s:
                if mm not in rem:
                    heapq.heappush(heap, (_heap_key(mm), mm))
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return quot


def grlex_lc(a):
    return a[max(a, key=lambda m: (sum(m), m))]
