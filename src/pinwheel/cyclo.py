"""Exact scalars, hyperplane values in Q(zeta_r), and points on roots-of-unity rays.

An exact scalar is an `int` or a `fractions.Fraction`, kept as given (the two
compare, hash and serialize alike); floats, bools and strings are refused.
Zeta stays symbolic, reduced modulo the r-th cyclotomic polynomial, so every
value has one canonical coefficient tuple and equal values have equal tuples.
Hyperplane evaluation has one private per-pair kernel, `_hyperplane_coeffs`:
it sums magnitudes per power of zeta and combines the sums through a per-r
table of the reduced powers zeta^k, whose coefficients are integers.  The
public `hyperplane_eval` and `on_hyperplane` gate their arguments on every
call and wrap it; `verify --suite nonempty` calls `_on_hyperplane_coords`
once per distinct restriction of the vertices to a hyperplane's subset.
`hyperplane_eval` returns a `CycloNum`, read through its coefficient tuple:
the value is rational exactly when every coefficient past the first is 0.
All types are immutable named tuples and all functions are pure.
Constructors check outside input; `_of_fields` builds every value any module
computes, unchecked.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Iterable, Mapping

__all__ = [
    "CycloNum",
    "YPoint",
    "cyclotomic_polynomial",
    "delta",
    "hyperplane_eval",
    "on_hyperplane",
]

_is_decimal = re.compile(r"-?[0-9]+").fullmatch


def _exact_polydiv(num: list[int], den: list[int]) -> list[int]:
    # Long division in Z[x]; the remainder must vanish.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        q, rem = divmod(num[shift + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("non-exact polynomial division")
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


# Cached: the recursion asks again for the polynomials of each divisor's
# divisors; (720, 1), under the default cap, asks 241 times for 30 of them.
@lru_cache(maxsize=128, typed=True)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients (ascending degree) of the r-th cyclotomic polynomial.

    Computed by exact division of x^r - 1 by the product of the cyclotomic
    polynomials of the proper divisors of r.  Monic with integer coefficients.
    """
    r = index(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r!r}")
    poly = [-1] + [0] * (r - 1) + [1]
    for d in range(1, r):
        if r % d == 0:
            poly = _exact_polydiv(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _degree(r: int) -> int:
    return len(cyclotomic_polynomial(r)) - 1


def _reduce(coeffs: list[int], r: int) -> tuple[int, ...]:
    mod = cyclotomic_polynomial(r)
    deg = len(mod) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, m in enumerate(mod):
                work[i - deg + j] -= c * m
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


def _check_rn(r: int, n: int | None = None) -> tuple[int, int]:
    """The pair (r, n) an object lives over, as ints; refused unless r >= 2 and n >= 0.

    A `CycloNum` lives over r alone and passes no n.  Caches keyed on (r, n) are
    typed, or 2.0 would hit the entry for 2.
    """
    try:
        r_int, n_int = index(r), 0 if n is None else index(n)
    except TypeError:
        r_int = n_int = -1
    if r_int < 2 or n_int < 0:
        if n is None:
            raise ValueError(f"need r >= 2, got r={r!r}")
        raise ValueError(f"need r >= 2 and n >= 0, got r={r!r}, n={n!r}")
    return r_int, n_int


def _check_indices(values: Iterable[int], lo: int, hi: int, what: str) -> tuple[int, ...]:
    """The indices as a sorted tuple of ints; refused unless each lies in lo..hi, once.

    index() refuses a float with TypeError, so no float is stored.
    """
    out = tuple(sorted(map(index, values)))
    if out and (out[0] < lo or out[-1] > hi):
        raise ValueError(f"{what} {out[0] if out[0] < lo else out[-1]} out of range {lo}..{hi}")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated {what} in {out}")
    return out


def _check_same_space(a, b) -> None:
    """Refuse two objects (anything with `r` and `n`) that live over different (r, n)."""
    if a.r != b.r or a.n != b.n:
        raise ValueError(f"objects live over different (r, n): ({a.r}, {a.n}) vs ({b.r}, {b.n})")


def _value_class(name: str, fields: str) -> type:
    """The namedtuple base of a value class with a checking constructor.

    The class's `__new__` builds the tuple and returns what its `__post_init__`
    makes of it: the canonical tuple, or a `ValueError`.  `_make`, and so
    `_replace`, go through that constructor too, not around it.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _of_fields(cls, *values):
    """The value class `cls` with these canonical fields, built with no check run again."""
    return tuple.__new__(cls, values)


def _check_nonnegative(name: str, value: int) -> int:
    value = index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_exact(value: object, what: str) -> None:
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def _int_pair(q: Fraction) -> list[str]:
    return [str(q.numerator), str(q.denominator)]


def _json_int(value: object, decimal: bool = False) -> int:
    """One integer field of a JSON input, refused unless it is exact.

    A number field takes only a JSON integer (no bool, no float); a
    decimal-string field (`decimal=True`) takes only a string -?[0-9]+.
    """
    if decimal:
        if type(value) is str and _is_decimal(value):
            return int(value)
        raise ValueError(f"expected a decimal integer string, got {value!r}")
    if type(value) is int:
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _coords_json(coords: tuple[tuple[int | Fraction, int], ...]) -> dict:
    """The JSON form of a point with these canonical coords."""
    return {"coords": [{"mag": _int_pair(mag), "branch": branch} for mag, branch in coords]}


def _pair_to_fraction(pair) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"expected a [numerator, denominator] pair, got {pair!r}")
    num, den = (_json_int(part, decimal=True) for part in pair)
    if not den:
        raise ValueError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


class CycloNum(_value_class("CycloNum", "r coeffs")):
    """Element of Q(zeta_r) in canonical form: the value `hyperplane_eval` returns.

    Stored as the remainder modulo the r-th cyclotomic polynomial in the
    power basis 1, zeta, ..., zeta^(phi(r)-1) with exact scalar coefficients,
    so two values are equal exactly when their coefficient tuples are equal.
    It carries no arithmetic and no JSON form; `coeffs` is all a caller reads.
    """

    __slots__ = ()

    def __new__(cls, r: int, coeffs: tuple[int | Fraction, ...]) -> "CycloNum":
        return tuple.__new__(cls, (r, coeffs)).__post_init__()

    def __post_init__(self) -> "CycloNum":
        coeffs = tuple(self.coeffs)
        r, _ = _check_rn(self.r)
        for c in coeffs:
            _check_exact(c, "coefficient")
        if len(coeffs) != _degree(r):
            raise ValueError(f"need {_degree(r)} coefficients for r={r}, got {len(coeffs)}")
        return tuple.__new__(type(self), (r, coeffs))


class YPoint(_value_class("YPoint", "r coords")):
    """Point of Y^n: per coordinate a nonnegative magnitude and a branch in Z_r.

    Magnitudes are exact scalars.  Zero magnitudes are stored with branch 0
    (the branch rays meet at the origin), so equality of points is structural.
    """

    __slots__ = ()

    def __new__(cls, r: int, coords: tuple[tuple[int | Fraction, int], ...]) -> "YPoint":
        return tuple.__new__(cls, (r, coords)).__post_init__()

    def __post_init__(self) -> "YPoint":
        coords = tuple(self.coords)
        r, _ = _check_rn(self.r, len(coords))
        norm = []
        for mag, branch in coords:
            _check_exact(mag, "magnitude")
            if mag < 0:
                raise ValueError(f"magnitude must be nonnegative, got {mag}")
            norm.append((mag, index(branch) % r if mag else 0))
        return tuple.__new__(type(self), (r, tuple(norm)))

    @property
    def n(self) -> int:
        return len(self.coords)

    def magnitudes(self) -> tuple[int | Fraction, ...]:
        return tuple(mag for mag, _ in self.coords)

    def to_json(self) -> dict:
        return _coords_json(self.coords)

    @staticmethod
    def from_json(data: Mapping, r: int) -> "YPoint":
        coords = tuple(
            (_pair_to_fraction(c["mag"]), _json_int(c["branch"])) for c in data["coords"]
        )
        return YPoint(r, coords)


def delta(n: int, k: int) -> int:
    """The descending partial sum n + (n-1) + ... + (n-k+1)."""
    n = _check_nonnegative("n", n)
    (k,) = _check_indices((k,), 0, n, "k")
    return k * n - k * (k - 1) // 2


# Cached: the nonempty scan reads this table once per kernel call.
@lru_cache(maxsize=64)
def _zeta_powers(r: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of zeta^k modulo Phi_r for k = 0..r-1; integers, as Phi_r is monic."""
    return tuple(_reduce([0] * k + [1], r) for k in range(r))


def _hyperplane_coeffs(
    r: int, coords: tuple[tuple[int | Fraction, int], ...], terms: Iterable[tuple[int, int]]
) -> list[int | Fraction]:
    """Canonical coefficients of sum over (i, e) in terms of zeta^e * x_(i+1).

    `coords` are a point's canonical coords and each term a 0-based index
    into them with its exponent; neither is checked here.  The magnitudes
    are summed per power of zeta, then the r sums are combined through the
    reduced zeta^k table.
    """
    by_power = [0] * r
    for i, e in terms:
        mag, branch = coords[i]
        by_power[(e + branch) % r] += mag
    powers = _zeta_powers(r)
    coeffs = [0] * len(powers[0])
    for total, power in zip(by_power, powers):
        if total:
            for j, c in enumerate(power):
                coeffs[j] += total * c
    return coeffs


def _on_hyperplane_coords(
    r: int, coords: tuple[tuple[int | Fraction, int], ...], terms: Iterable[tuple[int, int]], target: int
) -> bool:
    """Whether `_hyperplane_coeffs(r, coords, terms)` is the rational `target`, exactly."""
    coeffs = _hyperplane_coeffs(r, coords, terms)
    return coeffs[0] == target and not any(coeffs[1:])


def _hyperplane_terms(
    point: YPoint, elements: Iterable[int], decoration: Mapping[int, int]
) -> list[tuple[int, int]]:
    """The kernel's (0-based index, exponent) terms.

    Refused unless the elements are distinct, lie in 1..n and are decorated.
    """
    terms = []
    for i in _check_indices(elements, 1, point.n, "element"):
        if i not in decoration:
            raise ValueError(f"decoration undefined on element {i}")
        terms.append((i - 1, decoration[i]))
    return terms


def hyperplane_eval(point: YPoint, elements: Iterable[int], decoration: Mapping[int, int]) -> CycloNum:
    """Exact value of sum over i in the subset of zeta^{decoration(i)} * x_i.

    Gates the arguments, then wraps `_hyperplane_coeffs`.
    """
    terms = _hyperplane_terms(point, elements, decoration)
    return _of_fields(CycloNum, point.r, tuple(_hyperplane_coeffs(point.r, point.coords, terms)))


def on_hyperplane(point: YPoint, elements: Iterable[int], decoration: Mapping[int, int]) -> bool:
    """Whether the decorated-subset sum equals the bound for its size, exactly.

    Gates the arguments as `hyperplane_eval` does, then wraps `_on_hyperplane_coords`.
    """
    terms = _hyperplane_terms(point, elements, decoration)
    return _on_hyperplane_coords(point.r, point.coords, terms, delta(point.n, len(terms)))
