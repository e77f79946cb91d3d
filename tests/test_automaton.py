import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp import automaton
from spinamp.algebra import BitConfig, SpinChainError
from spinamp.automaton import ca_half_step, ca_vs_hamiltonian_report
from spinamp.chains import CouplingProfile, cluster_chain
from spinamp.cli import main
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
    # the exhaustive report's range: N half-steps, and here no fewer
    n = 256
    b = BitConfig(tuple(np.random.default_rng(256).integers(0, 2, n)))
    assert _trajectory(b, n).index(mirror_map(b).index) == n


def _mirror_index(x: int, n: int) -> int:
    return mirror_map(BitConfig.from_index(n, x)).index


def _unit_vector_hits(n: int, steps: int, half_step=ca_half_step) -> list:
    """The counts m <= ``steps`` at which m half-steps from an even start
    equal the mirror map on all N unit vectors."""
    columns = [1 << j for j in range(n)]
    mirrors = [_mirror_index(x, n) for x in columns]
    hits = []
    for m in range(steps + 1):
        if columns == mirrors:
            hits.append(m)
        columns = [half_step(x, n, ("even", "odd")[m % 2]) for x in columns]
    return hits


@pytest.mark.parametrize("n", [2, 3, 9, 64, 200])
def test_half_step_and_mirror_are_linear_over_gf2(n):
    # so two such maps that agree on the N unit vectors agree on all 2^N configs
    rng = random.Random(n)
    for _ in range(50):
        x, y = rng.getrandbits(n), rng.getrandbits(n)
        for parity in ("even", "odd"):
            assert ca_half_step(x ^ y, n, parity) == (
                ca_half_step(x, n, parity) ^ ca_half_step(y, n, parity))
        assert _mirror_index(x ^ y, n) == _mirror_index(x, n) ^ _mirror_index(y, n)


@pytest.mark.parametrize("n", [*range(2, 21), 63, 64, 200])
def test_n_half_steps_are_the_mirror_map(n):
    # an additive CA (Martin, Odlyzko & Wolfram, Commun. Math. Phys. 93, 219
    # (1984)): N half-steps equal the mirror map on the unit vectors, so on
    # every config; for N >= 3 no smaller count does
    assert _unit_vector_hits(n, n) == ([1, 2] if n == 2 else [n])


def test_a_wrong_mask_bit_breaks_the_identity_and_the_report(monkeypatch, capsys):
    # site 1 put in the even mask: the half-step stays linear, but N of them
    # are no longer the mirror map, and the report refuses to print a table
    def half_step(x, n_sites, parity):
        wrong = 1 if parity == "even" else 0
        return ca_half_step(x, n_sites, parity) ^ (((x << 1) ^ (x >> 1)) & wrong)
    monkeypatch.setattr(automaton, "ca_half_step", half_step)
    for n in (2, 3, 5, 16):
        assert half_step(0b10, n, "even") == ca_half_step(0b10, n, "even") ^ 1
        assert n not in _unit_vector_hits(n, n, half_step)
        with pytest.raises(SpinChainError, match="not the mirror map"):
            ca_vs_hamiltonian_report(n)
    assert main(["ca-compare", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not the mirror map" in captured.err


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


def test_comparison_report_has_no_misses():
    # every row shows its mirror within N half-steps, among them the rows
    # that the even half-step leaves fixed, 010 and 111 at N = 3
    for n in range(3, 9):
        report = ca_vs_hamiltonian_report(n)
        assert report.agree.all()
        assert report.ca_hit_step.min() == 0 and report.ca_hit_step.max() == n
    report = ca_vs_hamiltonian_report(3)
    row = {int(x): k for k, x in enumerate(report.inputs)}
    for text in ("010", "111"):
        b = BitConfig.from_string(text)
        assert ca_half_step(b.index, 3, "even") == b.index
        assert report.ca_hit_step[row[b.index]] == 3


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


@pytest.mark.parametrize("n", range(9, 17))
def test_ca_search_stops_as_a_search_over_every_earlier_state(n):
    # a literal first-hit search, beyond the per-config oracle's range, with
    # no cap: a row runs until it shows its mirror or returns to an earlier
    # state, a config at the same parity of step (from there it only
    # repeats).  Every row hits, and the last at half-step N
    report = ca_vs_hamiltonian_report(n)
    trajectory = [report.inputs]
    hit = np.where(report.inputs == report.mirror_output, 0, -1)
    running = hit < 0
    while running.any():
        step = len(trajectory)
        now = ca_half_step(trajectory[-1], n, ("even", "odd")[(step - 1) % 2])
        hit[running & (now == report.mirror_output)] = step
        seen = np.zeros_like(running)
        for past in trajectory[step % 2::2]:
            seen |= past == now
        trajectory.append(now)
        running &= (hit < 0) & ~seen
    assert np.array_equal(report.ca_hit_step, hit)
    assert report.ca_hit_step.max() == n == len(trajectory) - 1
