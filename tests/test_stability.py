import pytest

from spanrep.combinat import Partition, pad, partitions_of
from spanrep.errors import PaddingError
from spanrep.formula import FixedCodim, FixedK, stable_multiplicity
from spanrep.stability import (
    VERDICT_FAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_PASS,
    MultiplicitySequence,
    detect_onset,
    first_row_extension_bijective,
    multiplicity_sequence,
)


# -- sequences ------------------------------------------------------------


def test_sequence_trivial_rep_in_h2():
    seq = multiplicity_sequence(Partition(), 1, FixedK(2), 8)
    assert seq.values[:5] == ((1, 0), (2, 0), (3, 1), (4, 1), (5, 1))
    assert seq.truncated_at is None


@pytest.mark.parametrize("source", ["formula", "oracle"])
def test_sequence_refuses_negative_degree(source):
    with pytest.raises(ValueError, match="s must be nonnegative"):
        multiplicity_sequence(Partition(), -1, FixedK(2), 4, source=source)


@pytest.mark.parametrize(
    "make, value, message",
    [
        (FixedK, 0, "need k >= 1"),
        (FixedK, -3, "need k >= 1"),
        (FixedCodim, -1, "need m >= 0"),
        (FixedCodim, -5, "need m >= 0"),
    ],
)
def test_modes_refuse_out_of_range_parameters(make, value, message):
    # FixedCodim(-1) used to give an all-zero sequence that passed as stable
    with pytest.raises(ValueError, match=message):
        make(value)


def test_sequence_zero_when_mu_exceeds_s():
    seq = multiplicity_sequence(Partition((2,)), 1, FixedK(3), 9)
    assert all(v == 0 for _, v in seq.values)


def test_sequence_trivial_rep_in_h0():
    for mode in (FixedK(2), FixedCodim(1)):
        seq = multiplicity_sequence(Partition(), 0, mode, 8)
        for n, v in seq.values:
            k = 2 if isinstance(mode, FixedK) else n - 1
            expected = 1 if 1 <= k <= n else 0
            assert v == expected, (mode, n)


def test_sequence_formula_oracle_agreement():
    for mu in [Partition(), Partition((1,)), Partition((1, 1))]:
        for s in range(3):
            for mode in (FixedK(2), FixedK(3), FixedCodim(0), FixedCodim(1)):
                f = multiplicity_sequence(mu, s, mode, 5, source="formula")
                o = multiplicity_sequence(mu, s, mode, 5, source="oracle")
                assert f.values == o.values, (mu, s, mode)


def test_sequence_oracle_truncates_past_guard():
    seq = multiplicity_sequence(Partition(), 0, FixedK(2), 9, source="oracle")
    assert seq.truncated_at == 8
    assert seq.values[-1][0] == 7


def test_sequence_validation():
    with pytest.raises(ValueError):
        multiplicity_sequence(Partition(), 0, FixedK(2), 0)
    with pytest.raises(ValueError):
        multiplicity_sequence(Partition(), 0, FixedK(2), 5, source="guess")


# -- onset detection ---------------------------------------------------------


def test_onset_worked_example():
    seq = multiplicity_sequence(Partition(), 1, FixedK(2), 10)
    report = detect_onset(seq)
    assert report.verdict == VERDICT_PASS
    assert report.n_obs == 3
    assert report.n_bound == 4
    assert report.stable_value == 1


def test_onset_all_zero_sequence():
    seq = multiplicity_sequence(Partition((2, 1)), 1, FixedK(2), 10)
    report = detect_onset(seq)
    assert report.verdict == VERDICT_PASS
    assert report.n_obs == 1
    assert report.stable_value == 0


def test_onset_fixed_codim_example():
    mu = Partition((1, 1))
    seq = multiplicity_sequence(mu, 1, FixedCodim(0), 10)
    report = detect_onset(seq)
    assert report.n_bound == 4
    assert report.verdict == VERDICT_PASS
    assert report.stable_value == stable_multiplicity(mu, 1, FixedCodim(0)) == 0


def test_onset_inconclusive_when_short():
    seq = multiplicity_sequence(Partition(), 1, FixedK(2), 5)
    report = detect_onset(seq)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_onset_inconclusive_when_truncated():
    seq = MultiplicitySequence(Partition(), 0, FixedK(2), ((1, 1), (2, 1)), truncated_at=3)
    assert detect_onset(seq).verdict == VERDICT_INCONCLUSIVE


def test_onset_fails_on_wrong_tail():
    # a doctored sequence whose tail disagrees with the closed form
    seq = MultiplicitySequence(
        Partition(), 1, FixedK(2),
        tuple((n, 7) for n in range(1, 11)),
    )
    report = detect_onset(seq)
    assert report.verdict == VERDICT_FAIL


def test_onset_fails_on_late_onset():
    values = tuple((n, 0) for n in range(1, 9)) + ((9, 1), (10, 1), (11, 1), (12, 1))
    seq = MultiplicitySequence(Partition(), 1, FixedK(2), values)
    report = detect_onset(seq)
    assert report.verdict == VERDICT_FAIL
    assert report.n_obs == 9


def test_onset_inconclusive_with_a_short_tail():
    # the bound is 4 at (mu, s, k) = ((), 1, 2) and the sequence reaches 6,
    # but its last value starts at n = 5: one sample past the onset
    values = ((1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2))
    report = detect_onset(MultiplicitySequence(Partition(), 1, FixedK(2), values))
    assert (report.verdict, report.n_obs, report.stable_value) == (VERDICT_INCONCLUSIVE, 5, 2)
    assert report.detail == "only 1 samples beyond the observed onset"


def test_onset_refuses_values_not_contiguous_in_n():
    values = tuple((n, 1) for n in (1, 2, 3, 5, 6, 7, 8))  # n = 4 is missing
    with pytest.raises(ValueError, match="contiguous ascending in n"):
        detect_onset(MultiplicitySequence(Partition(), 1, FixedK(2), values))


# -- the proven bounds, swept -----------------------------------------------


def test_fixed_k_bound_sweep_small():
    for mu_size in range(3):
        for mu in partitions_of(mu_size):
            for s in range(3):
                for k in range(1, 4):
                    mode = FixedK(k)
                    seq = multiplicity_sequence(mu, s, mode, detect_onset_bound(mu, s, mode) + 4)
                    report = detect_onset(seq)
                    assert report.verdict == VERDICT_PASS, (mu, s, k, report)


def test_fixed_codim_bound_sweep_small():
    for mu_size in range(3):
        for mu in partitions_of(mu_size):
            for s in range(3):
                for m in range(2):
                    mode = FixedCodim(m)
                    seq = multiplicity_sequence(mu, s, mode, detect_onset_bound(mu, s, mode) + 4)
                    report = detect_onset(seq)
                    assert report.verdict == VERDICT_PASS, (mu, s, m, report)


def detect_onset_bound(mu, s, mode):
    from spanrep.formula import stabilization_bound

    return stabilization_bound(mu, s, mode)


# -- the box-adding bijection --------------------------------------------------


def test_first_row_extension_examples():
    assert first_row_extension_bijective(Partition((1,)), 1, 3)
    assert first_row_extension_bijective(Partition((2, 1)), 3, 7)
    for s in range(3):
        for n in range(2 * s + 1, 8):
            assert first_row_extension_bijective(Partition(), s, n)


def test_first_row_extension_validation():
    with pytest.raises(ValueError):
        first_row_extension_bijective(Partition((1,)), 2, 4)  # n <= 2s
    with pytest.raises(PaddingError):
        first_row_extension_bijective(Partition((3,)), 2, 5)  # pad infeasible


def test_sign_multiplicity_defeats_unfixed_degree_stability():
    # total (all-degrees) flag quotient carries the sign shape once for every n,
    # a padded label of unbounded depth
    from spanrep.oracle import decompose_coinvariants

    for n in range(1, 6):
        dec = decompose_coinvariants(n, n)
        sign = Partition((1,) * n)
        total = sum(
            exp.coefficient(sign).coefficient() for exp in dec.by_degree.values()
        )
        assert total == 1
