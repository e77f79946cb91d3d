import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.algebra import BitConfig
from spinamp.automaton import ca_half_step, ca_vs_hamiltonian_report
from spinamp.maps import mirror_map

from oracles import ca_half_step_bits, ca_report_rows


def _walls(b):
    return sum(x != y for x, y in zip(b.bits, b.bits[1:])) + b.bits[-1]


def _trajectory(b: BitConfig, k: int) -> list:
    """The basis indices of k half-steps from ``b``, starting on the even sites."""
    out = [b.index]
    for step in range(k):
        out.append(ca_half_step(out[-1], b.n_sites, ("even", "odd")[step % 2]))
    return out


def test_half_step_examples():
    for text, parity, expected in (("100", "even", "110"), ("000000", "even", "000000"),
                                   ("000000", "odd", "000000"), ("100000", "even", "110000")):
        n, x = len(text), BitConfig.from_string(text).index
        assert str(BitConfig.from_index(n, ca_half_step(x, n, parity))) == expected


def test_half_step_rejects_bad_parity():
    with pytest.raises(ValueError):
        ca_half_step(1, 2, "both")


def test_site_one_never_flips():
    x = np.arange(1 << 6)
    for parity in ("even", "odd"):
        assert np.array_equal(ca_half_step(x, 6, parity) & 1, x & 1)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("parity", ("even", "odd"))
def test_half_step_matches_per_bit_oracle(n, parity):
    expected = [ca_half_step_bits(BitConfig.from_index(n, i), parity).index
                for i in range(1 << n)]
    assert [ca_half_step(i, n, parity) for i in range(1 << n)] == expected
    assert ca_half_step(np.arange(1 << n), n, parity).tolist() == expected


@pytest.mark.parametrize("parity, first", (("even", 2), ("odd", 3)))
def test_parity_mask_matches_site_by_site_sum(parity, first):
    # x's neighbour XOR, x_{i-1} ^ x_{i+1}, is 1 on every bit from 0 to
    # past site N, so the half-step flips exactly the mask's bits
    for n in range(1, 1025):
        x = sum(1 << j for j in range(n + 2) if j % 4 in (1, 2))
        mask = sum(1 << (site - 1) for site in range(first, n + 1, 2))
        assert ca_half_step(x, n, parity) ^ x == mask


def test_canonical_amplification_run():
    trajectory = _trajectory(BitConfig.from_string("100000"), 5)
    assert [str(BitConfig.from_index(6, x)) for x in trajectory] == [
        "100000", "110000", "111000", "111100", "111110", "111111",
    ]


@pytest.mark.parametrize("n", range(2, 11))
def test_same_parity_involution(n):
    x = np.arange(1 << n)
    for parity in ("even", "odd"):
        assert np.array_equal(ca_half_step(ca_half_step(x, n, parity), n, parity), x)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.data(), st.sampled_from(("even", "odd")))
def test_wall_count_is_conserved(n, data, parity):
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    b = BitConfig(n, bits)
    assert _walls(BitConfig.from_index(n, ca_half_step(b.index, n, parity))) == _walls(b)


def test_ones_grow_monotonically_from_seed():
    weights = [x.bit_count() for x in _trajectory(BitConfig.from_string("10000000"), 7)]
    assert weights == sorted(weights)
    assert weights[-1] == 8


def test_ca_reaches_the_mirror_on_a_long_chain():
    # the CA runs on Python ints, so it follows the mirror theorem far past
    # the exhaustive report's range
    n = 256
    b = BitConfig(n, tuple(np.random.default_rng(256).integers(0, 2, n)))
    assert mirror_map(b).index in _trajectory(b, 4 * n)


def test_comparison_report_n5():
    report = ca_vs_hamiltonian_report(5)
    assert len(report.inputs) == 32
    assert report.agree.all()
    assert (report.continuous_prob > 1.0 - 1e-8).all()
    row = {int(x): k for k, x in enumerate(report.inputs)}
    seed, empty = BitConfig.from_string("10000").index, 0
    assert report.mirror_output[row[seed]] == BitConfig.from_string("11111").index
    assert report.ca_hit_step[row[seed]] == 4      # N-1 half-steps
    assert report.ca_hit_step[row[empty]] == 0


def test_comparison_report_records_misses_without_failing():
    report = ca_vs_hamiltonian_report(6)
    assert report.agree.all()
    # not every mirror image appears in the CA trajectory; that is
    # recorded per row rather than asserted
    assert (report.ca_hit_step == -1).any()


@pytest.mark.parametrize("n", range(2, 9))
def test_report_matches_per_config_oracle(n):
    # the oracle takes each continuous output as the column argmax of
    # |U|^2 for the full Kronecker-product unitary, and runs the CA one
    # config at a time
    report = ca_vs_hamiltonian_report(n)
    expected = ca_report_rows(n)
    assert len(report.inputs) == len(expected) == 1 << n
    for k, (b, continuous, prob, mirror, agree, hit) in enumerate(expected):
        assert (report.inputs[k], report.continuous_output[k], report.mirror_output[k]) == (
            b.index, continuous.index, mirror.index)
        assert abs(report.continuous_prob[k] - prob) <= 1e-12
        assert (report.agree[k], report.ca_hit_step[k]) == (agree, hit)
