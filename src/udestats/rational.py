"""Univariate polynomials in the crossover probability with exact rational
coefficients.

Used wherever exactness matters: per-matrix undetected-error-probability
polynomials and the exhaustive-enumeration moments that adjudicate closed
forms coefficient by coefficient.  Products and weight-count polynomials
work on integer numerators over one denominator: one Fraction per output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class RationalPoly:
    """Polynomial sum_j c_j * eps^j with Fraction coefficients.

    Immutable by convention; trailing zero coefficients are trimmed so
    equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        ln = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(self[j] + other[j] for j in range(ln))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        ln = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(self[j] - other[j] for j in range(ln))

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly(c * other for c in self.coeffs)
        xs, dx = _numerators(self.coeffs)
        ys, dy = _numerators(other.coeffs)
        out = [0] * (len(xs) + len(ys))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i + j] += x * y
        return RationalPoly(Fraction(c, dx * dy) for c in out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, eps):
        """Evaluate by Horner; exact when eps is a Fraction."""
        acc = eps * 0
        for c in reversed(self.coeffs):
            acc = acc * eps + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPoly(0)"
        parts = [f"({c})*eps^{j}" for j, c in enumerate(self.coeffs) if c != 0]
        return "RationalPoly(" + " + ".join(parts) + ")"

    def pretty(self) -> str:
        """Human-oriented rendering, e.g. '3/8*eps^2 - 3/8*eps^3'."""
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "1" if j == 0 else ("eps" if j == 1 else f"eps^{j}")
            mag = abs(c)
            body = term if (mag == 1 and j > 0) else (
                f"{mag}" if j == 0 else f"{mag}*{term}")
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + body)
        return " ".join(parts)


def _numerators(values: Sequence[Rat]) -> tuple[list[int], int]:
    """Integer numerators of values over the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [int(v.numerator) * (den // v.denominator) for v in values], den


def poly_from_weight_counts(counts: Sequence[Rat], n: int) -> RationalPoly:
    """sum_{w>=1} A_w eps^w (1-eps)^(n-w) as an exact polynomial.

    Horner in (1 - eps): after step w, acc holds
    sum_{v<=w} A_v eps^v (1-eps)^(w-v) as numerators over one denominator.
    """
    nums, den = _numerators(counts[1:n + 1])
    acc = [0] * (n + 1)
    for w, a in enumerate(nums, 1):
        for j in range(w, 1, -1):       # times (1 - eps); acc[0] stays 0
            acc[j] -= acc[j - 1]
        acc[w] += a
    return RationalPoly(Fraction(c, den) for c in acc)
