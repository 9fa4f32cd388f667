import json
import math
from fractions import Fraction

import pytest

from delcode import (
    redundancy,
    redundancy_bound,
    simulate,
    singleton_report,
    size_lower_bound,
)


class TestSizeLowerBound:
    def test_small_example(self):
        exact, log2_value = size_lower_bound(8, 5, 2)
        assert exact == Fraction(120, 100_000) * Fraction(56, 256)
        assert float(exact) == pytest.approx(0.0002625, abs=1e-10)
        assert log2_value == pytest.approx(math.log2(0.0002625), abs=1e-9)

    def test_large_alphabet_example(self):
        exact, _ = size_lower_bound(100, 5, 1)
        assert exact == Fraction(120, 100) * Fraction(75_287_520, 200)
        assert float(exact) == pytest.approx(451_725.12, abs=1e-6)

    def test_strictly_below_unpenalized_product(self):
        for q, n, t in ((8, 5, 1), (8, 5, 2), (12, 6, 3)):
            exact, _ = size_lower_bound(q, n, t)
            assert 0 < exact < math.factorial(n) * math.comb(q, n)

    def test_direct_and_log_space_agree(self):
        # independent recomputation of both readings, ten decimal digits
        for q, n, t in ((8, 5, 2), (100, 5, 1), (1024, 16, 2), (10**6, 20, 3)):
            exact, log2_direct = size_lower_bound(q, n, t)
            recomputed = (
                sum(math.log2(q - i) for i in range(n))
                - (3 * t - 1) * math.log2(2 * n)
                - t * math.log2(2 * q)
            )
            assert abs(log2_direct - recomputed) < 1e-10
            assert log2_direct == pytest.approx(
                math.log2(exact.numerator) - math.log2(exact.denominator), abs=1e-10
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            size_lower_bound(4, 5, 1)
        with pytest.raises(ValueError):
            size_lower_bound(8, 5, 0)

    def test_radius_above_n_refused(self):
        assert size_lower_bound(8, 4, 4)[0] > 0
        with pytest.raises(ValueError, match="got t=5, n=4"):
            size_lower_bound(8, 4, 5)
        with pytest.raises(ValueError, match="got t=10, n=4"):
            singleton_report(8, 4, 10)


class TestRedundancy:
    def test_full_space_has_zero_redundancy(self):
        assert redundancy(8, 5, 8**5) == pytest.approx(0.0, abs=1e-12)

    def test_four_codewords(self):
        assert redundancy(8, 5, 4) == 13.0

    def test_single_codeword(self):
        assert redundancy(8, 5, 1) == pytest.approx(5 * 3.0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            redundancy(8, 5, 0)


class TestRedundancyBound:
    def test_plug_in_values(self):
        assert redundancy_bound(1024, 16, 1) == 21.0
        assert redundancy_bound(256, 8, 2) == 38.0

    def test_affine_in_t(self):
        for q, n in ((64, 9), (1024, 16), (300, 7)):
            step = math.log2(q) + 3 * math.log2(n) + 4
            for t in range(1, 4):
                got = redundancy_bound(q, n, t + 1) - redundancy_bound(q, n, t)
                assert got == pytest.approx(step, abs=1e-9)

    def test_requires_q_above_n(self):
        with pytest.raises(ValueError):
            redundancy_bound(8, 8, 1)

    def test_dominates_guaranteed_size_redundancy_on_wide_alphabets(self):
        # the +1 absorbs the falling-factorial slack once q > n^2
        for n in range(3, 9):
            for q in (n * n + 1, 2 * n * n, 4 * n * n):
                for t in (1, 2):
                    exact, _ = size_lower_bound(q, n, t)
                    assert redundancy(q, n, exact) <= redundancy_bound(q, n, t) + 1


class TestSingletonReport:
    def test_zero_gap_at_singleton_size(self):
        report = singleton_report(8, 5, 2, code_size=8**3)
        assert report["eta"] == pytest.approx(0.0, abs=1e-12)
        assert report["singleton_log_size"] == 9.0

    def test_small_example_gap(self):
        report = singleton_report(8, 5, 2, code_size=4)
        assert report["singleton_log_size"] == 9.0
        assert report["log2_code_size"] == 2.0
        assert report["eta"] == pytest.approx(5 - 2 - 2 / 3)
        assert report["redundancy_actual"] == 13.0
        assert report["alpha"] == pytest.approx(3 / math.log2(5))
        assert report["alpha_threshold"] == pytest.approx(5 / (7 / 3))
        assert report["alpha_exceeds_threshold"] is False

    def test_gap_shrinks_with_size(self):
        etas = [singleton_report(64, 5, 1, code_size=s)["eta"] for s in (4, 64, 4096)]
        assert etas == sorted(etas, reverse=True)

    def test_without_code_size(self):
        report = singleton_report(8, 5, 2)
        assert list(report) == list(singleton_report(8, 5, 2, code_size=4))
        sized = list(report)[-6:]
        assert sized[0] == "code_size" and all(report[key] is None for key in sized)

    def test_multfree_count_is_exact_falling_factorial(self):
        report = singleton_report(9, 4, 1)
        assert report["log2_multfree_count"] == pytest.approx(math.log2(9 * 8 * 7 * 6))

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_nonpositive_code_size(self, size):
        with pytest.raises(ValueError, match="must be positive"):
            singleton_report(8, 5, 2, code_size=size)

    def test_rejects_code_size_above_the_multfree_count(self):
        # 500 * 499 * 498 multiplicity-free words of length 3
        assert singleton_report(500, 3, 1, code_size=500 * 499 * 498)["redundancy_actual"] >= 0
        with pytest.raises(ValueError, match="at most q!/\\(q-n\\)! = 124251000"):
            singleton_report(500, 3, 1, code_size=500 * 499 * 498 + 1)
        with pytest.raises(ValueError):
            singleton_report(500, 3, 1, code_size=10**28)

    def test_json_dict(self):
        data = singleton_report(8, 5, 2, code_size=4)
        assert data["q"] == 8 and data["redundancy_actual"] == 13.0
        assert json.loads(json.dumps(data, allow_nan=False)) == data

    def test_json_dict_writes_non_finite_as_null(self):
        assert singleton_report(5, 2, 1, code_size=5)["alpha_threshold"] is None  # eta is 0
        assert singleton_report(5, 1, 1)["alpha"] is None


class TestSimulate:
    def test_zero_budget_always_succeeds(self, explicit_spec):
        report = simulate(explicit_spec, trials=200, t_max=0, seed=11)
        assert report.failures == 0
        assert report.by_weight[0]["trials"] == 200

    def test_within_budget_always_succeeds(self, explicit_spec):
        report = simulate(explicit_spec, trials=1000, t_max=2, seed=5)
        assert report.failures == 0
        assert report.successes == 1000
        assert sum(slot["trials"] for slot in report.by_weight.values()) == 1000

    def test_deterministic_for_fixed_seed(self, explicit_spec):
        first = simulate(explicit_spec, trials=300, t_max=2, seed=42)
        second = simulate(explicit_spec, trials=300, t_max=2, seed=42)
        assert first == second
        assert first != simulate(explicit_spec, trials=300, t_max=2, seed=43)

    def test_beyond_budget_failures_are_reported_not_raised(self, explicit_spec):
        report = simulate(explicit_spec, trials=400, t_max=3, seed=1)
        assert report.successes + report.failures == 400
        assert sum(slot["trials"] for slot in report.by_weight.values()) == 400
        # weight-3 deletions sit outside the guarantee; nothing is asserted
        # about them beyond being tallied
        assert set(report.by_weight) == {0, 1, 2, 3}

    def test_invalid_budget(self, explicit_spec):
        with pytest.raises(ValueError):
            simulate(explicit_spec, trials=10, t_max=6, seed=0)

    def test_json_shape(self, explicit_spec):
        data = simulate(explicit_spec, trials=50, t_max=1, seed=2).to_json_dict()
        assert data["trials"] == 50
        assert set(data["by_weight"]) == {"0", "1"}
