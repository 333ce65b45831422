import itertools
import math
import random
import sys

import numpy as np
import pytest

from unruhcap import channelsim, combinat, engine, regions, spectra
from unruhcap.combinat import block_dimension, block_normalizer, composition_matrix, eigen_multiplicity


def brute_compositions(d, k):
    """Exhaustive enumeration oracle over the full integer box."""
    return [c for c in itertools.product(range(k + 1), repeat=d) if sum(c) == k]


def rows(d, k):
    return [tuple(row) for row in composition_matrix(d, k).tolist()]


def test_compositions_d2_k2_order():
    assert rows(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_compositions_zero_weight():
    assert rows(3, 0) == [(0, 0, 0)]


def test_compositions_match_enumeration_oracle():
    for d, k in [(3, 2), (2, 5), (4, 3)]:
        got = rows(d, k)
        assert sorted(got) == sorted(brute_compositions(d, k))
        assert len(set(got)) == len(got)
        assert got == sorted(got, reverse=True)  # lexicographic descending


def test_compositions_d3_k2_count():
    assert len(rows(3, 2)) == len(brute_compositions(3, 2)) == 6


def test_compositions_rejects_bad_arguments():
    with pytest.raises(ValueError):
        composition_matrix(3, -1)


def test_block_dimension_examples():
    assert block_dimension(2, 1) == 2
    # Exact factorial-ratio oracle for C(14, 4).
    import math

    assert block_dimension(5, 10) == math.factorial(14) // (math.factorial(4) * math.factorial(10)) == 1001
    for d in range(2, 7):
        assert block_dimension(d, 1) == d


def test_block_dimension_counts_compositions():
    for d in range(2, 6):
        for k in range(0, 9):
            assert block_dimension(d, k) == len(rows(d, k))


def test_block_normalizer_examples():
    assert block_normalizer(2, 2) == 3
    for d in range(2, 7):
        assert block_normalizer(d, 1) == 1
    # Trace-identity oracle: M = sum over compositions of the first entry.
    trace_sum = sum(c[0] for c in brute_compositions(3, 4))
    assert trace_sum == 20
    assert block_normalizer(3, 4) == trace_sum


def test_eigen_multiplicity_examples():
    assert eigen_multiplicity(2, 5, 3) == 1
    # Oracle: number of length-(d-1) compositions of k - b.
    assert eigen_multiplicity(3, 2, 1) == len(brute_compositions(2, 1)) == 2
    for d in range(2, 6):
        for k in range(1, 7):
            assert eigen_multiplicity(d, k, k) == 1


def test_eigen_multiplicity_rejects_out_of_range():
    for b in (0, 6, -1):
        with pytest.raises(ValueError):
            eigen_multiplicity(3, 5, b)


def test_trace_identity_exact():
    for d in range(2, 7):
        for k in range(1, 13):
            total = sum(b * eigen_multiplicity(d, k, b) for b in range(1, k + 1))
            assert total == block_normalizer(d, k)


def test_multiplicity_sum_counts_occupied_first_mode():
    for d in range(2, 6):
        for k in range(1, 9):
            occupied = sum(1 for c in brute_compositions(d, k) if c[0] >= 1)
            total = sum(eigen_multiplicity(d, k, b) for b in range(1, k + 1))
            assert total == occupied == block_dimension(d, k - 1)


def test_composition_matrix_is_readonly():
    mat = combinat.composition_matrix(3, 4)
    with pytest.raises(ValueError):
        mat[0, 0] = 7


def test_composition_table_stacks_every_weight_in_matrix_order():
    for d in range(1, 6):
        for horizon in range(0, 7):
            table = combinat.composition_table(d, horizon)
            assert table.shape == (d, math.comb(horizon + d, d))
            for j in range(horizon + 1):
                start = math.comb(j + d - 1, d)
                block = table[:, start : start + math.comb(j + d - 1, d - 1)]
                assert block.T.tolist() == composition_matrix(d, j).tolist()
    with pytest.raises(ValueError):
        combinat.composition_table(3, 4)[0, 0] = 7
    with pytest.raises(ValueError):
        combinat.composition_table(0, 3)
    with pytest.raises(ValueError):
        combinat.composition_table(2, -1)


@pytest.mark.parametrize(
    "count, text",
    [
        (7, "7"),
        (99, "99"),
        (100, "1.0e2"),
        (101, "1.1e2"),
        (999, "1.0e3"),  # rounded up past a power of 10
        (1_000_001, "1.1e6"),
        (10**22 - 1, "1.0e22"),
        (10**22, "1.0e22"),
        (2**1024, "1.8e308"),  # just past the float range, and reads so
        (10**5000 + 1, "1.1e5000"),  # past the 4,300-digit limit of str(int)
    ],
    ids=lambda value: value if isinstance(value, str) else "n",  # not str(value): 5,001 digits
)
def test_rounded_count_rounds_up_to_two_digits(count, text):
    assert combinat.rounded_count(count) == text


def digit_rounded_count(count: int) -> str:
    """``rounded_count`` by integer digit arithmetic: the oracle the decimal
    rounding is held to."""
    if count < 100:
        return str(count)
    exp = int(math.log10(count))  # the float log may be one off near a power of 10
    exp += (10 ** (exp + 1) <= count) - (10**exp > count)
    lead = -(-count // 10 ** (exp - 1))  # ceil: 10..100
    if lead == 100:
        lead, exp = 10, exp + 1
    return f"{lead // 10}.{lead % 10}e{exp}"


def test_rounded_count_matches_the_digit_arithmetic():
    rng = random.Random(26)
    counts = [n for k in range(2000) for n in (10**k - 1, 10**k, 10**k + 1)]
    counts += [rng.randrange(10 ** rng.randrange(1, 2000)) + 1 for _ in range(2000)]
    counts += [rng.randrange(100, 10**6) for _ in range(3000)]
    for count in counts:
        assert combinat.rounded_count(count) == digit_rounded_count(count), count


# Every cap a binomial gate asks ``capped_comb`` with.
GATE_CAPS = {
    "grid points": regions.MAX_GRID_POINTS,
    "histogram dim_K": 2**53 - 1,
    "spectrum rows": spectra.MAX_SPECTRUM_ROWS,
    "block normalizer": int(sys.float_info.max),
    "multiplicity": int(np.iinfo(np.int64).max),
    "matrix entries": channelsim.MATRIX_DIM_CAP**2,
}


def test_capped_comb_agrees_with_the_exact_count():
    # Over its cap exactly when the count is, and the count itself whenever
    # it is built.
    for n in range(301):
        for k in range(n + 1):
            count = math.comb(n, k)
            for cap in GATE_CAPS.values():
                got = combinat.capped_comb(n, k, cap)
                assert (got > cap) == (count > cap), (n, k, cap)
                assert got == count or got == math.inf, (n, k, cap)


def test_capped_comb_refuses_a_huge_count_unbuilt(forbid):
    # m_1 of `spectrum --d 300000 --k 300000`: C(599997, 299998) has 180,615
    # digits, and the bound alone refuses it.
    forbid("built a count the bound refuses", combinat.math, "comb")
    for cap in GATE_CAPS.values():
        assert combinat.capped_comb(599997, 299998, cap) == math.inf
    assert combinat.count_text(599997, 299998, math.inf) == "C(599997, 299998) >= 2**299998"
    assert combinat.count_text(9, 2, math.inf, 3) == "3 * C(9, 2) >= 2**2"
    assert combinat.count_text(9, 2, 36, 3) == "1.1e2"


GATES_PAST_THE_BOUND = {
    "grid": (lambda: regions.sweep_resolution(300000, 300000), "C(599999, 299999) >= 2**299999"),
    "kernels": (lambda: engine.pick_kernel(300000, 300000), "299999 * C(599999, 299999) >= 2**299999"),
    "normalizer": (lambda: spectra.check_normalizer(300000, 300000), "C(599999, 300000) >= 2**299999"),
    "multiplicity": (lambda: spectra.cloner_spectrum(300000, 300000), "C(599997, 299998) >= 2**299998"),
    "ensemble-spectrum": (
        lambda: spectra.ensemble_spectrum_B(300000, 300000, spectra.EnsembleParams.uniform(300000)),
        "C(599999, 299999) >= 2**299999",
    ),
    "check-route-triple": (
        lambda: regions.cloner_entropy_triple(300000, 300000, spectra.EnsembleParams.vertex(300000)),
        "C(599999, 299999) >= 2**299999",
    ),
    "block-dimension": (
        lambda: channelsim.verify_cloner_equivalence(300000, 300000),
        "C(599999, 299999) >= 2**299999",
    ),
    "choi-dimension": (
        lambda: channelsim.choi_ppt_check(300000, 300000),
        "300000 * C(599998, 299999) >= 2**299999",
    ),
}


@pytest.mark.parametrize("call, bound", GATES_PAST_THE_BOUND.values(), ids=GATES_PAST_THE_BOUND.keys())
def test_every_binomial_gate_refuses_past_the_bound_unbuilt(call, bound, forbid):
    forbid("built a count the bound refuses", combinat.math, "comb")
    with pytest.raises(combinat.SizeCapError) as excinfo:
        call()
    assert bound in str(excinfo.value)
