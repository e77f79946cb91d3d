import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import BitConfig
from spinamp.automaton import _half_step, ca_half_step, ca_run, ca_vs_hamiltonian_report

from oracles import ca_half_step_bits, ca_report_rows


def _walls(b):
    return sum(x != y for x, y in zip(b.bits, b.bits[1:])) + b.bits[-1]


def test_half_step_examples():
    assert str(ca_half_step(BitConfig.from_string("100"), "even")) == "110"
    assert str(ca_half_step(BitConfig.from_string("000000"), "even")) == "000000"
    assert str(ca_half_step(BitConfig.from_string("000000"), "odd")) == "000000"
    assert str(ca_half_step(BitConfig.from_string("100000"), "even")) == "110000"


def test_half_step_rejects_bad_parity():
    with pytest.raises(ValueError):
        ca_half_step(BitConfig.from_string("10"), "both")


def test_site_one_never_flips():
    for i in range(1 << 6):
        b = BitConfig.from_index(6, i)
        for parity in ("even", "odd"):
            assert ca_half_step(b, parity).bits[0] == b.bits[0]


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("parity", ("even", "odd"))
def test_half_step_matches_per_bit_oracle(n, parity):
    expected = [ca_half_step_bits(BitConfig.from_index(n, i), parity).index
                for i in range(1 << n)]
    assert [ca_half_step(BitConfig.from_index(n, i), parity).index
            for i in range(1 << n)] == expected
    assert _half_step(np.arange(1 << n), n, parity).tolist() == expected


def test_canonical_amplification_run():
    run = ca_run(BitConfig.from_string("100000"), 5, "even")
    assert [str(c) for c in run.trajectory] == [
        "100000", "110000", "111000", "111100", "111110", "111111",
    ]
    assert run.half_steps == ("even", "odd", "even", "odd", "even")


def test_run_validation():
    with pytest.raises(ValueError):
        ca_run(BitConfig.from_string("10"), -1)
    with pytest.raises(ValueError):
        ca_run(BitConfig.from_string("10"), 2, "sideways")


@pytest.mark.parametrize("n", range(2, 11))
def test_same_parity_involution(n):
    for i in range(1 << n):
        b = BitConfig.from_index(n, i)
        for parity in ("even", "odd"):
            assert ca_half_step(ca_half_step(b, parity), parity) == b


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.data(), st.sampled_from(("even", "odd")))
def test_wall_count_is_conserved(n, data, parity):
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    b = BitConfig(n, bits)
    assert _walls(ca_half_step(b, parity)) == _walls(b)


def test_ones_grow_monotonically_from_seed():
    run = ca_run(BitConfig.from_string("10000000"), 7, "even")
    weights = [c.weight for c in run.trajectory]
    assert weights == sorted(weights)
    assert weights[-1] == 8


def test_comparison_report_n5():
    rows = ca_vs_hamiltonian_report(5)
    assert len(rows) == 32
    for row in rows:
        assert row.agree
        assert row.continuous_prob > 1.0 - 1e-8
    by_input = {str(r.input): r for r in rows}
    assert str(by_input["10000"].mirror_output) == "11111"
    assert by_input["10000"].ca_hit_step == 4      # N-1 half-steps
    assert by_input["00000"].ca_hit_step == 0


def test_comparison_report_records_misses_without_failing():
    rows = ca_vs_hamiltonian_report(6)
    assert all(r.agree for r in rows)
    # not every mirror image appears in the CA trajectory; that is
    # recorded per row rather than asserted
    assert any(r.ca_hit_step == -1 for r in rows)


@pytest.mark.parametrize("n", range(2, 9))
def test_report_matches_per_config_oracle(n):
    # the oracle takes each continuous output as the column argmax of
    # |U|^2 for the full Kronecker-product unitary, and runs the CA one
    # config at a time
    rows = ca_vs_hamiltonian_report(n)
    expected = ca_report_rows(n)
    assert len(rows) == len(expected) == 1 << n
    for row, (b, continuous, prob, mirror, agree, hit) in zip(rows, expected):
        assert (row.input, row.continuous_output, row.mirror_output) == (b, continuous, mirror)
        assert abs(row.continuous_prob - prob) <= 1e-12
        assert (row.agree, row.ca_hit_step) == (agree, hit)

