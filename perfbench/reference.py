"""Reference values the benchmark checks results against.

Nothing here imports grdcalc.  Each function restates a formula of the
paper in code of its own, so that a change to the program cannot change the
value it is checked against.  The CLI reference is a stored table of stdout
digests, written once by ``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

CLI_REFERENCE = Path(__file__).with_name("cli_reference.json")

# The one triple whose quadric locus is proven to be a divisor.
PROVEN_TRIPLE = (21, 6, 24)


def rho_zero_triples(g_max: int, g_min: int = 1):
    """Every (g, r, d) with g_min <= g <= g_max, r >= 1 and rho = 0.

    rho = 0 forces (r+1) | g; with s = g/(r+1) the degree is d = g + r - s.
    """
    out = []
    for g in range(g_min, g_max + 1):
        for r in range(1, g):
            if g % (r + 1) == 0:
                out.append((g, r, g + r - g // (r + 1)))
    return out


def castelnuovo(g: int, r: int, d: int) -> int:
    """g! * prod_{i<=r} i! / prod_{i<=r} (g-d+r+i)!  for rho = 0."""
    num = factorial(g)
    den = 1
    for i in range(r + 1):
        num *= factorial(i)
        den *= factorial(g - d + r + i)
    value, rest = divmod(num, den)
    if rest:
        raise ValueError(f"Castelnuovo quotient not integral at {(g, r, d)}")
    return value


def schubert_integral(r: int, d: int, k: int, b) -> int:
    """Degree of zeta^k . sigma_b on the Grassmannian of r-planes in P^d.

    With a_i = b_i + i the degree is k! prod_{i<j} (a_j - a_i) over
    prod_i (k - d + r + a_i)!, and 0 when the codimensions do not add up to
    the dimension (r+1)(d-r) or a factorial argument is negative.
    """
    if r * k + sum(b) != (r + 1) * (d - r):
        return 0
    a = [x + i for i, x in enumerate(b)]
    shifts = [k - d + r + x for x in a]
    if min(shifts) < 0:
        return 0
    num = factorial(k)
    for i, ai in enumerate(a):
        for aj in a[i + 1:]:
            num *= aj - ai
    den = 1
    for s in shifts:
        den *= factorial(s)
    value, rest = divmod(num, den)
    if rest:
        raise ValueError(f"Schubert degree not integral at {(r, d, k, tuple(b))}")
    return value


def box_indices(rows: int, width: int, weight: int):
    """Weakly increasing tuples of `rows` entries in [0, width] summing to weight."""
    out = []

    def rec(prefix, lo, left):
        if len(prefix) == rows:
            if left == 0:
                out.append(tuple(prefix))
            return
        slots = rows - len(prefix)
        for v in range(lo, width + 1):
            if v * slots > left:
                break
            rec(prefix + [v], v, left - v)

    rec([], 0, weight)
    return out


def quadric_slope(g: int, r: int, d: int) -> tuple[Fraction, Fraction]:
    """(lambda, delta_0) coefficients per cover degree of 2a - b - (r+2)c + lambda.

    a, b, c are the push-forwards of alpha, beta and gamma as stated in the
    paper; only their lambda and delta_0 coefficients are needed.
    """
    xi = 3 * (g - 1) + Fraction((r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3),
                                g - d + 2 * r + 1)
    rr = r * (r + 2)
    pa = Fraction(d, 6 * (g - 1) * (g - 2))
    pb = Fraction(d, 2 * (g - 1))
    pc = Fraction(1, 2 * (g - 1) * (g - 2))
    lam = (2 * pa * 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4)
           - pb * 12
           - (r + 2) * pc * (-(g + 3) * xi + 5 * rr)
           + 1)
    d0 = (2 * pa * (2 * g * g - g * d + 3 * g - 4 * d - 2)
          + pb
          - (r + 2) * pc * ((g + 1) * xi - 3 * rr) / 6)
    return lam, d0


def m_family_triple(m: int) -> tuple[int, int, int]:
    return (m * (2 * m + 1), 2 * m, 2 * m * (m + 1))


def m_family_gap(m: int) -> Fraction:
    """The paper's gap 6 + 12/(g+1) - slope along the m-family, as printed."""
    num = (-6, 3, 48, -57, -24, 36)
    den = (0, 2, 13, 16, 23, 0, -10, -4, -8, 16)
    return Fraction(sum(c * m ** i for i, c in enumerate(num)),
                    sum(c * m ** i for i, c in enumerate(den)))


def slope_expected(g: int, r: int, d: int) -> dict:
    """Every field of a slope report, from ``quadric_slope`` alone."""
    lam, d0 = quadric_slope(g, r, d)
    ratio = lam / (-d0)
    bound = 6 + Fraction(12, g + 1)
    return {"lambda_coeff": lam, "delta0_coeff": d0, "ratio": ratio,
            "bound": bound, "gap": bound - ratio,
            "violates": ratio < bound and d0 < 0,
            "conjectural": (g, r, d) != PROVEN_TRIPLE}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_cli_reference() -> dict:
    """argv joined by spaces -> stdout digest, for valid queries that exit 0."""
    return json.loads(CLI_REFERENCE.read_text())
