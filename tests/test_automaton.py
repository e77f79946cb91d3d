from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp import automaton
from spinamp.algebra import BitConfig
from spinamp.automaton import ca_half_step, ca_vs_hamiltonian_report
from spinamp.chains import CouplingProfile, cluster_chain
from spinamp.evolution import PST_TIME, block_unitaries
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
    b = BitConfig(bits)
    assert _walls(BitConfig.from_index(n, ca_half_step(b.index, n, parity))) == _walls(b)


def test_ones_grow_monotonically_from_seed():
    weights = [x.bit_count() for x in _trajectory(BitConfig.from_string("10000000"), 7)]
    assert weights == sorted(weights)
    assert weights[-1] == 8


def test_ca_reaches_the_mirror_on_a_long_chain():
    # the CA runs on Python ints, so it follows the mirror theorem far past
    # the exhaustive report's range
    n = 256
    b = BitConfig(tuple(np.random.default_rng(256).integers(0, 2, n)))
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


def _block_columns(profile: CouplingProfile) -> np.ndarray:
    """|U|^2 of the cluster chain at the transfer time, column b holding
    the output probabilities of config b, from the dense block route."""
    dim = 1 << profile.n_sites
    probs = np.zeros((dim, dim))
    for indices, u in block_unitaries(cluster_chain(profile), PST_TIME):
        probs[indices[:, :, None], indices[:, None, :]] = abs(u) ** 2
    return probs


@pytest.mark.parametrize("n", range(2, 13))
def test_report_matches_block_unitaries(n):
    # the determinant route against each column's argmax and maximum of
    # |U|^2, block by block, the way the report read them before
    dim = 1 << n
    output, prob = np.empty(dim, dtype=np.intp), np.empty(dim)
    for indices, u in block_unitaries(cluster_chain(CouplingProfile.engineered(n)), PST_TIME):
        probs = abs(u) ** 2
        output[indices] = np.take_along_axis(indices, probs.argmax(axis=1), axis=1)
        prob[indices] = probs.max(axis=1)
    report = ca_vs_hamiltonian_report(n)
    assert np.array_equal(report.continuous_output, output[report.inputs])
    assert np.max(np.abs(report.continuous_prob - prob[report.inputs])) <= 1e-12
    assert report.agree.all()
    # u = (-i)^(N-1) R exactly, so every p is 1; with V orthogonal to
    # rounding the determinants stay within a few ulps of it
    assert np.max(np.abs(report.continuous_prob - 1.0)) <= 4e-15


@pytest.mark.parametrize("n", range(3, 9))
def test_report_does_not_guess_below_one_half(n, monkeypatch):
    # on uniform couplings the mirror is often unlikely: its probability
    # still matches |U[mirror(b), b]|^2, and a row whose mirror has p <= 1/2
    # has no continuous output (-1) and does not agree
    monkeypatch.setattr(automaton, "CouplingProfile",
                        SimpleNamespace(engineered=CouplingProfile.uniform))
    report = ca_vs_hamiltonian_report(n)
    probs = _block_columns(CouplingProfile.uniform(n))
    assert np.max(np.abs(report.continuous_prob
                         - probs[report.mirror_output, report.inputs])) <= 1e-12
    likely = report.continuous_prob > 0.5
    assert (~likely).any() and likely.any()
    assert np.array_equal(report.continuous_output[~likely], np.full((~likely).sum(), -1))
    assert np.array_equal(report.continuous_output[likely], report.mirror_output[likely])
    assert np.array_equal(probs[:, report.inputs[likely]].argmax(axis=0),
                          report.mirror_output[likely])
    assert np.array_equal(report.agree, likely)


@pytest.mark.parametrize("n", range(9, 15))
def test_ca_search_stops_as_a_search_over_every_earlier_state(n):
    # the report ends a search only on a return to the start; the literal
    # search, beyond the per-config oracle's range, ends on any revisit
    report = ca_vs_hamiltonian_report(n)
    trajectory = [report.inputs]
    for step in range(4 * n):
        trajectory.append(ca_half_step(trajectory[-1], n, ("even", "odd")[step % 2]))
    trajectory = np.array(trajectory)
    hits = trajectory == report.mirror_output
    revisits = np.array([(trajectory[:k] == row).any(axis=0) for k, row in enumerate(trajectory)])
    first = (hits | revisits).argmax(axis=0)
    expected = np.where(hits[first, np.arange(1 << n)], first, -1)
    assert np.array_equal(report.ca_hit_step, expected)

