import random
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest
from math import gcd

import pytest

from pinwheel import (
    CycloNum,
    YPoint,
    cyclotomic_polynomial,
    delta,
    enumerate_vertices,
    hyperplane_eval,
    on_hyperplane,
)
from pinwheel.cyclo import _hyperplane_coeffs, _on_hyperplane_coords, _zeta_powers

from conftest import decorated_subsets, random_ypoints


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_remainder(poly, mod):
    """Independent long-division oracle over the rationals."""
    work = [Fraction(c) for c in poly]
    deg = len(mod) - 1
    while len(work) > deg:
        c = work[-1]
        if c:
            for j, m in enumerate(mod):
                work[len(work) - 1 - deg + j] -= c * m
        work.pop()
    work += [Fraction(0)] * (deg - len(work))
    return work


def euler_phi(r):
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


class TestCyclotomicPolynomial:
    def test_standard_identities(self):
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    @pytest.mark.parametrize("r", range(1, 31))
    def test_product_over_divisors_rebuilds_x_r_minus_1(self, r):
        prod = [1]
        for d in range(1, r + 1):
            if r % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (r - 1) + [1]

    @pytest.mark.parametrize("r", range(2, 31))
    def test_degree_is_euler_phi(self, r):
        assert len(cyclotomic_polynomial(r)) - 1 == euler_phi(r)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


def zeta_sum(r, exps, mags=None):
    """`hyperplane_eval` of the sum of mags[k] * zeta^exps[k] (every magnitude 1 by default).

    Coordinate k + 1 carries magnitude mags[k] on branch 0 and is decorated exps[k].
    """
    mags = [1] * len(exps) if mags is None else mags
    point = YPoint(r, tuple((m, 0) for m in mags))
    return hyperplane_eval(point, range(1, len(exps) + 1), dict(enumerate(exps, start=1)))


def random_mags(rng, size):
    """`size` magnitudes: fractions >= 0 of denominator at most 6, numerators below 10^1 to 10^12."""
    return [Fraction(rng.randrange(10 ** rng.randint(1, 12)), rng.randint(1, 6)) for _ in range(size)]


# Per r, a nonnegative multiple of Phi_r of degree below 6, where one exists:
# 1 + zeta + ... + zeta^(r-1) = 0 for r <= 6, and zeta^4 = -1 for r = 8.
VANISHING = {r: [1] * r for r in range(2, 7)} | {8: [1, 0, 0, 0, 1]}


def equal_mags(rng, r, mags):
    """At most 6 magnitudes with the same sum as `mags`.

    A vanishing sum times zeta^k is added where r has one, and trailing
    zeros are added or dropped.
    """
    out = list(mags) + [0] * (6 - len(mags))
    zero = VANISHING.get(r)
    if zero:
        k, t = rng.randrange(7 - len(zero)), Fraction(rng.randint(1, 30), rng.randint(1, 6))
        for j, z in enumerate(zero):
            out[k + j] += t * z
    last = max((i for i, m in enumerate(out) if m), default=0)
    return out[: rng.randint(last + 1, 6)]


def power(k):
    """The polynomial x^k, ascending coefficients."""
    return [0] * k + [1]


class TestZetaPowers:
    @pytest.mark.parametrize("r", range(2, 31))
    def test_table_matches_poly_remainder(self, r):
        table = _zeta_powers(r)
        assert len(table) == r
        for k, row in enumerate(table):
            assert list(row) == poly_remainder(power(k), cyclotomic_polynomial(r)), k
            assert all(type(c) is int for c in row)


class TestCycloNum:
    def test_zeta_power_table_starts_at_one(self):
        assert _zeta_powers(3)[0] == (1, 0)
        assert zeta_sum(3, [0]).coeffs == (1, 0)

    def test_zeta_powers_reduce_by_minimal_polynomial(self):
        # zeta^2 = -1 - zeta in Q(zeta_3)
        assert _zeta_powers(3)[2] == (-1, -1)
        assert zeta_sum(3, [2]).coeffs == (-1, -1)
        # zeta^2 = -1 in Q(zeta_4)
        assert zeta_sum(4, [2], [2]).coeffs == (-2, 0)

    def test_sum_of_all_cube_roots_vanishes(self):
        assert zeta_sum(3, [0, 1, 2]).coeffs == (0, 0)

    def test_zeta4_squared_is_minus_one(self):
        assert poly_remainder(power(2), cyclotomic_polynomial(4)) == [-1, 0]
        assert zeta_sum(4, [2]).coeffs == (-1, 0)

    def test_high_power_reduces_to_rational(self):
        # oracle: remainder of x^3 modulo the third cyclotomic polynomial
        rem = poly_remainder(power(3), cyclotomic_polynomial(3))
        assert rem == [1, 0]
        assert zeta_sum(3, [3], [1]).coeffs == (1, 0)
        assert zeta_sum(3, [3, 0], [1, 2]).coeffs == (3, 0)

    @pytest.mark.parametrize("r", range(2, 13))
    def test_all_roots_sum_to_zero(self, r):
        oracle = poly_remainder([1] * r, cyclotomic_polynomial(r))
        assert not any(oracle)
        assert not any(zeta_sum(r, range(r)).coeffs)

    @pytest.mark.parametrize("r", range(2, 13))
    def test_zeta_to_the_r_is_one(self, r):
        assert poly_remainder(power(r), cyclotomic_polynomial(r))[0] == 1
        assert zeta_sum(r, [r]).coeffs == (1,) + (0,) * (euler_phi(r) - 1)
        # Exponents are read modulo r, below 0 and beyond r alike.
        assert zeta_sum(r, [r + 1]) == zeta_sum(r, [1]) == zeta_sum(r, [1 - r])

    def test_equality_is_coefficient_equality(self):
        # Two sums are equal exactly when their difference reduces to 0
        # modulo Phi_r, by the test's own long division.  Each r in 2..9 and
        # each pair of list sizes in 1..6 takes an independent pair, an equal
        # twin and the twin with one magnitude moved: 864 pairs.
        rng = random.Random(36)
        outcomes = Counter()
        for r, size_a, size_b in product(range(2, 10), range(1, 7), range(1, 7)):
            mags_a = random_mags(rng, size_a)
            twin = equal_mags(rng, r, mags_a)
            moved = list(twin)
            moved[rng.randrange(len(moved))] += Fraction(1, rng.randint(1, 6))
            for mags_b in (random_mags(rng, size_b), twin, moved):
                a, b = (zeta_sum(r, range(len(mags)), mags) for mags in (mags_a, mags_b))
                diff = [x - y for x, y in zip_longest(mags_a, mags_b, fillvalue=0)]
                assert (a == b) == (a.coeffs == b.coeffs) == (not any(poly_remainder(diff, cyclotomic_polynomial(r))))
                outcomes[a == b] += 1
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes

    def test_int_coefficients_are_kept_and_equal_their_fraction_twins(self):
        value = CycloNum(3, (1, -2))
        twin = CycloNum(3, (Fraction(1), Fraction(-2)))
        assert type(value.coeffs[0]) is int
        assert value == twin and hash(value) == hash(twin)
        built = (zeta_sum(3, []), zeta_sum(3, [0]), zeta_sum(3, [2], [2]), zeta_sum(3, [1, 1], [1, 3]))
        assert [c.coeffs for c in built] == [(0, 0), (1, 0), (-2, -2), (0, 4)]
        assert all(type(x) is int for c in built for x in c.coeffs)
        half = zeta_sum(3, [2], [Fraction(1, 2)])
        assert half.coeffs == (Fraction(-1, 2), Fraction(-1, 2)) and type(half.coeffs[0]) is Fraction

    @pytest.mark.parametrize("coeff", [0.5, False, "1"])
    def test_inexact_coefficient_refused(self, coeff):
        with pytest.raises(ValueError, match="coefficient must be an int or a Fraction"):
            CycloNum(3, (coeff, 0))


class TestDelta:
    def test_reference_values(self):
        assert delta(4, 1) == 4
        assert delta(4, 3) == 9
        assert delta(2, 2) == 3

    def test_zero_prefix(self):
        assert delta(5, 0) == 0

    def test_out_of_range(self):
        # The shared nonnegative and index rules, with their texts.
        for n, k, text in [
            (-1, 0, "n must be >= 0, got -1"),
            (3, 4, "k 4 out of range 0..3"),
            (3, -1, "k -1 out of range 0..3"),
        ]:
            with pytest.raises(ValueError) as err:
                delta(n, k)
            assert str(err.value) == text


class TestHyperplane:
    def test_worked_cube_root_case(self):
        x = YPoint(3, ((Fraction(1), 1), (Fraction(2), 0)))
        value = hyperplane_eval(x, (1, 2), {1: 2, 2: 0})
        assert value.coeffs == (3, 0)
        assert on_hyperplane(x, (1, 2), {1: 2, 2: 0})

    def test_all_branches_zero(self):
        x = YPoint(2, ((Fraction(1), 0), (Fraction(2), 0)))
        assert on_hyperplane(x, (1, 2), {1: 0, 2: 0})

    def test_irrational_value_misses(self):
        x = YPoint(3, ((Fraction(2), 0), (Fraction(1), 0)))
        value = hyperplane_eval(x, (1,), {1: 1})
        assert any(value.coeffs[1:])
        assert not on_hyperplane(x, (1,), {1: 1})

    def test_missing_decoration_rejected(self):
        x = YPoint(3, ((Fraction(1), 0), (Fraction(1), 0)))
        with pytest.raises(ValueError):
            hyperplane_eval(x, (1, 2), {1: 0})

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_triangle_equality_characterization(self, r, n):
        # On a decorated subset the sum hits the bound exactly when every
        # positive coordinate sits on the opposite branch and the magnitudes
        # add up to the bound.
        subsets = decorated_subsets(r, n)
        for x in random_ypoints(r, n, 120, seed=1000 * r + n):
            for s in subsets:
                elems, dec = s.elements, dict(zip(s.elements, s.exps))
                branches_ok = all(
                    x.coords[i - 1][1] == (-dec[i]) % r
                    for i in elems
                    if x.coords[i - 1][0]
                )
                magnitude_ok = sum(x.coords[i - 1][0] for i in elems) == delta(n, len(elems))
                assert on_hyperplane(x, elems, dec) == (branches_ok and magnitude_ok)


def term_by_term_eval(point, elements, decoration):
    """The reference: the sum of mag * x^(exp + branch) reduced modulo Phi_r by `poly_remainder`."""
    r = point.r
    poly = [0] * r
    for i in elements:
        mag, branch = point.coords[i - 1]
        poly[(decoration[i] + branch) % r] += mag
    return CycloNum(r, tuple(poly_remainder(poly, cyclotomic_polynomial(r))))


class TestHyperplaneKernel:
    MAGNITUDES = [Fraction(0), Fraction(1), Fraction(2), Fraction(4), Fraction(1, 2), Fraction(7, 3), Fraction(5, 6)]

    @pytest.mark.parametrize("r", range(2, 13))
    def test_matches_term_by_term_sum(self, r):
        # Composite r (4, 6, 8, 9, 12) reduce zeta^k to several nonzero and
        # negative coefficients; exponents run below 0 and beyond r.
        rng = random.Random(r)
        n = 4
        hits = 0
        for trial in range(300):
            elems = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            if trial % 2:
                point = YPoint(r, tuple((rng.choice(self.MAGNITUDES), rng.randrange(-r, 2 * r)) for _ in range(n)))
                dec = {i: rng.randrange(-2 * r, 3 * r) for i in elems}
            else:
                # A vertex with each exponent cancelling its branch up to a
                # multiple of r, or, every other time, one step past it.
                mags = rng.sample(range(1, n + 1), n)
                point = YPoint(r, tuple((Fraction(m), rng.randrange(r)) for m in mags))
                step = trial % 4 // 2
                dec = {i: rng.randrange(-2, 3) * r - point.coords[i - 1][1] + step for i in elems}
            want = term_by_term_eval(point, elems, dec)
            assert hyperplane_eval(point, elems, dec) == want
            expected = want.coeffs == (delta(n, len(elems)),) + (0,) * (len(want.coeffs) - 1)
            assert on_hyperplane(point, elems, dec) == expected
            hits += expected
        assert hits


class TestPerPairKernel:
    """The scan's ungated kernel against the gated public wrappers."""

    @staticmethod
    def kernel_agrees(point, elems, dec):
        """Assert that both kernels match their wrappers on one pair; return on_hyperplane."""
        r, coords, terms = point.r, point.coords, [(i - 1, dec[i]) for i in elems]
        assert _hyperplane_coeffs(r, coords, terms) == list(hyperplane_eval(point, elems, dec).coeffs)
        on = on_hyperplane(point, elems, dec)
        assert _on_hyperplane_coords(r, coords, terms, delta(point.n, len(elems))) == on
        return on

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_every_vertex_and_decorated_subset(self, r, n):
        hits, subsets = 0, decorated_subsets(r, n)
        for v in enumerate_vertices(r, n):
            for s in subsets:
                hits += self.kernel_agrees(v, s.elements, dict(zip(s.elements, s.exps)))
        # Each vertex lies on exactly its n chain layers.
        assert hits == n * len(enumerate_vertices(r, n))

    @pytest.mark.parametrize("r", [4, 6])
    def test_random_fraction_points(self, r):
        # Phi_4 and Phi_6 are not x^(r-1) + ... + 1, so zeta^k reduces to
        # other coefficient patterns than at prime r.
        n = 3
        subsets = decorated_subsets(r, n)
        for x in random_ypoints(r, n, 25, seed=7000 + r):
            for s in subsets:
                self.kernel_agrees(x, s.elements, dict(zip(s.elements, s.exps)))


class TestYPoint:
    def test_zero_magnitude_gets_branch_zero(self):
        x = YPoint(3, ((Fraction(0), 2), (Fraction(1), 5)))
        assert x.coords == ((Fraction(0), 0), (Fraction(1), 2))

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            YPoint(3, ((Fraction(-1), 0),))

    def test_json_roundtrip(self):
        x = YPoint(3, ((Fraction(1, 2), 2), (Fraction(0), 0)))
        assert YPoint.from_json(x.to_json(), 3) == x
        assert x.to_json()["coords"][0] == {"mag": ["1", "2"], "branch": 2}

    def test_int_magnitude_is_kept_and_equals_its_fraction_twin(self):
        x = YPoint(3, ((2, 1), (0, 2)))
        twin = YPoint(3, ((Fraction(2), 1), (Fraction(0), 2)))
        assert type(x.coords[0][0]) is int
        assert x == twin and hash(x) == hash(twin)
        assert x.to_json() == twin.to_json()

    @pytest.mark.parametrize("mag", [0.1, True, "1"])
    def test_inexact_magnitude_refused(self, mag):
        with pytest.raises(ValueError, match="magnitude must be an int or a Fraction"):
            YPoint(2, ((mag, 0),))
