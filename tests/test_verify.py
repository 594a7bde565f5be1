import pytest

from pinwheel import (
    CapExceeded,
    VerifyConfig,
    verify_all,
    verify_equivariance,
    verify_nonemptiness,
    verify_products,
    verify_threeway,
)


class TestThreeway:
    def test_octagon_counts(self):
        report = verify_threeway(2, 2)
        assert report.ok
        assert report.counts_by_dim == [8, 8, 1]

    def test_r3_counts(self):
        report = verify_threeway(3, 2)
        assert report.ok
        assert report.counts_by_dim == [18, 15, 1]

    def test_point_case(self):
        report = verify_threeway(4, 0)
        assert report.ok and report.counts_by_dim == [1]

    def test_cap(self):
        with pytest.raises(CapExceeded, match="max_group_order"):
            verify_threeway(4, 4)

    def test_cap_override(self):
        config = VerifyConfig(max_group_order=10**6)
        assert verify_threeway(2, 2, config).ok


class TestEquivariance:
    def test_octagon(self):
        report = verify_equivariance(2, 2)
        assert report.ok and report.counts_by_dim == [8, 8, 1]

    def test_r3(self):
        assert verify_equivariance(3, 2).ok

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify_equivariance(3, 5)


class TestProducts:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_envelope_cases(self, r, n):
        assert verify_products(r, n).ok


class TestNonemptiness:
    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 1)])
    def test_small_cases(self, r, n):
        assert verify_nonemptiness(r, n).ok

    def test_family_cap(self):
        with pytest.raises(CapExceeded, match="max_families"):
            verify_nonemptiness(3, 3, VerifyConfig(max_families=100))


class TestReports:
    def test_json_schema(self):
        report = verify_threeway(2, 2)
        data = report.to_json()
        assert sorted(data) == ["counts_by_dim", "n", "r", "suite", "violations"]
        assert data["suite"] == "threeway"
        assert data["violations"] == []

    def test_verify_all_runs_each_suite_once(self):
        reports = verify_all(2, 2)
        assert [rep.suite for rep in reports] == [
            "threeway",
            "equivariance",
            "products",
            "nonempty",
        ]
        assert all(rep.ok for rep in reports)
