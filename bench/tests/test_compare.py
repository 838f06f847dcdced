"""The verdict rules of bench/compare.py."""

from bench.compare import quartiles, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(factor: float) -> list[float]:
    return [value * factor for value in BASE]


def test_same_numbers_are_within_bound():
    assert verdict(BASE, list(reversed(BASE)), "lower", 0.10) == "within bound"


def test_worse_than_the_bound_is_a_regression_in_either_direction():
    assert verdict(BASE, shifted(1.2), "lower", 0.10) == "regressed"
    assert verdict(BASE, shifted(0.8), "higher", 0.10) == "regressed"


def test_a_small_slowdown_stays_within_bound():
    assert verdict(BASE, shifted(1.05), "lower", 0.10) == "within bound"


def test_winning_nine_of_ten_pairs_by_more_than_the_spread_is_an_improvement():
    assert verdict(BASE, shifted(0.9), "lower", 0.10) == "improved"
    assert verdict(BASE, shifted(1.1), "higher", 0.10) == "improved"
    # A gap inside the base's own spread is not a claimable gain.
    assert verdict(BASE, shifted(0.9995), "lower", 0.10) == "within bound"
    # Fewer than ten pairs never support a claim.
    assert verdict(BASE[:3], shifted(0.5)[:3], "lower", 0.10) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, list(reversed(noisy)), "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert verdict(noisy, [v + 200.0 for v in noisy], "lower", 0.10) == "regressed"


def test_quartiles_of_a_single_run():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
