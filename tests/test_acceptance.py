"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or ``-v``) in addition to the usual pytest verdict.
"""

import math

import numpy as np
import pytest

from spinamp.algebra import BitConfig, HamiltonianSpec, max_permuted_deviation
from spinamp.automaton import ca_half_step, ca_vs_hamiltonian_report
from spinamp.chains import (
    CouplingProfile,
    StarLayout,
    cluster_chain,
    cluster_field_terms,
    exchange_chain,
    spike_hamiltonians,
)
from spinamp.cli import _star_checks, main
from spinamp.evolution import (
    PST_TIME,
    Propagator,
    amplification_check,
    block_unitaries,
    transfer_fidelity,
)
from spinamp.maps import conjugate_hamiltonian, gamma_inverse_indices, mirror_map
from spinamp.noise import NoiseConfig, noise_sweep

from oracles import gamma_matrix, kron_dense, kron_unitary, pair_phase_deviations


def _report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {number:2d} [{label}]: {verdict}{tail}")
    assert ok, f"acceptance criterion {number} ({label}) failed{tail}"


def test_acceptance_01_conjugation_identity():
    worst = 0.0
    ok = True
    for n in range(2, 11):
        rng = np.random.default_rng(1000 + n)
        # the index permutation is the dense ladder of the oracle
        g = gamma_inverse_indices(n)
        ok = ok and np.array_equal(gamma_matrix(n), np.eye(1 << n)[g])
        for _ in range(20):
            prof = CouplingProfile(
                n,
                tuple(rng.uniform(0.2, 2.0, n - 1)),
                tuple(rng.normal(size=n)),
            )
            h_ex = exchange_chain(prof)
            conj = conjugate_hamiltonian(h_ex)
            if conj.term_map() != cluster_chain(prof).term_map():
                ok = False
            worst = max(worst, max_permuted_deviation(h_ex, conj, g))
    _report(1, "conjugation identity", ok and worst < 1e-12,
            f"max dense deviation {worst:.2e}")


def test_acceptance_02_wall_symmetry():
    worst = 0.0
    for n in range(2, 11):
        h = kron_dense(cluster_chain(CouplingProfile.engineered(n)))
        w = kron_dense(cluster_field_terms(n, (1.0,) * n))     # domain-wall count
        worst = max(worst, float(np.max(np.abs(h @ w - w @ h))))
    _report(2, "conserved wall symmetry", worst < 1e-12,
            f"max commutator entry {worst:.2e}")


def test_acceptance_03_perfect_amplification():
    a = 1.0 / math.sqrt(2.0)
    worst_fid = 1.0
    worst_residual = 0.0
    for n in range(2, 11):
        profile = CouplingProfile.engineered(n)
        result = amplification_check(Propagator(profile, "cluster"), a, a, math.pi / 2)
        worst_fid = min(worst_fid, result.fidelity)
        # |0...0> evolved block by block over the whole space stays put
        vac = np.zeros(1 << n, dtype=complex)
        vac[0] = 1.0
        out = np.zeros_like(vac)
        for indices, u in block_unitaries(cluster_chain(profile), math.pi / 2):
            out[indices] = (u @ vac[indices][:, :, None])[:, :, 0]
        worst_residual = max(worst_residual, float(np.linalg.norm(out - vac)))
    _report(3, "perfect amplification", worst_fid >= 1.0 - 1e-8
            and worst_residual < 1e-12,
            f"min fidelity {worst_fid:.12f}, vacuum residual {worst_residual:.2e}")


def test_acceptance_04_uniform_chain_imperfection():
    a = 1.0 / math.sqrt(2.0)
    ok = True
    details = []
    # near-recurrences bring N = 4, 5 within ~1e-4 of perfect inside the
    # 200-unit window, so those two get the looser 1e-5 imperfection bound;
    # N = 6 stays clear of 1 - 1e-3 throughout
    bounds = {4: 1e-5, 5: 1e-5, 6: 1e-3}
    for n, bound in bounds.items():
        prop = Propagator(CouplingProfile.uniform(n), "cluster")
        best = max(
            amplification_check(prop, a, a, float(t)).fidelity
            for t in np.arange(0.05, 200.0, 0.05)
        )
        details.append(f"N={n} best {best:.6f}")
        ok = ok and best < 1.0 - bound
    for n, t_star in ((2, math.pi / 2), (3, math.pi / math.sqrt(2.0))):
        prop = Propagator(CouplingProfile.uniform(n), "cluster")
        fid = amplification_check(prop, a, a, t_star).fidelity
        ok = ok and fid >= 1.0 - 1e-8
    _report(4, "uniform-chain imperfection", ok, "; ".join(details))


def _mirror_check(n):
    prop = Propagator(CouplingProfile.engineered(n), "cluster")
    worst = 1.0
    for i in range(1 << n):
        b = BitConfig.from_index(n, i)
        worst = min(worst, abs(prop.amplitudes(b, mirror_map(b), PST_TIME)[0]))
    return worst


def test_acceptance_05_mirror_theorem_and_ca():
    worst = _mirror_check(6)
    report = ca_vs_hamiltonian_report(6)
    all_agree = bool(report.agree.all())
    x = BitConfig.from_string("100000").index
    for step in range(5):
        x = ca_half_step(x, 6, ("even", "odd")[step % 2])
    canonical = x == BitConfig.from_string("111111").index
    _report(5, "mirror theorem / CA agreement",
            worst >= 1.0 - 1e-8 and all_agree and canonical,
            f"min N=6 amplitude {worst:.12f}, 64/64 rows agree={all_agree}")


@pytest.mark.slow
def test_acceptance_05b_mirror_theorem_n8():
    worst = _mirror_check(8)
    _report(5, "mirror theorem N=8 (slow tier)", worst >= 1.0 - 1e-8,
            f"min amplitude {worst:.12f}")


def test_acceptance_06_single_excitation_transfer():
    prop = Propagator(CouplingProfile.engineered(6), "cluster")
    worst = 1.0
    for n in range(2, 7):
        fid = transfer_fidelity(prop, BitConfig.single(6, n),
                                BitConfig.single(6, 8 - n), math.pi / 2)
        worst = min(worst, fid)
    _report(6, "single-excitation transfer", worst >= 1.0 - 1e-8,
            f"min fidelity {worst:.12f}")


def test_acceptance_07_phase_separability():
    prof = CouplingProfile.engineered(6)
    # excitations on sites 2..N of the cluster chain, site 1 encodes
    cluster = pair_phase_deviations(
        Propagator(prof, "cluster"), math.pi / 2, 2, mirror_map)
    exchange = pair_phase_deviations(
        Propagator(prof, "exchange"), math.pi / 2, 1, BitConfig.reversed_sites)
    worst = max(abs(v) for v in cluster.values())
    values = list(exchange.values())
    constant = all(abs(abs(v) - abs(values[0])) < 1e-6 for v in values)
    nonzero = all(abs(v) > 1e-3 for v in values)
    _report(7, "phase separability",
            worst < 1e-6 and constant and nonzero,
            f"cluster deviation {worst:.2e}, "
            f"exchange crossing phase {values[0]:+.6f} rad (reported)")


def test_acceptance_08_star_geometry():
    layout = StarLayout(3, 3, CouplingProfile.engineered(3))
    spikes = [kron_dense(s) for s in spike_hamiltonians(layout)]
    comm = max(
        float(np.max(np.abs(a @ b - b @ a)))
        for i, a in enumerate(spikes) for b in spikes[i + 1:]
    )
    star = sum(spike_hamiltonians(layout), HamiltonianSpec(layout.total_sites))
    u_star = kron_unitary(star, math.pi / 2)
    product = np.eye(1 << layout.total_sites, dtype=complex)
    for spec in spike_hamiltonians(layout):
        product = kron_unitary(spec, math.pi / 2) @ product
    factor_gap = float(np.max(np.abs(u_star - product)))
    # from site 1 alone up to all ones, read off the star's blocks
    _, prob = _star_checks(star, spike_hamiltonians(layout), math.pi / 2)
    _report(8, "star geometry", comm < 1e-12 and factor_gap < 1e-10
            and prob >= 1.0 - 1e-8,
            f"commutator {comm:.2e}, factorization gap {factor_gap:.2e}, "
            f"all-ones probability {prob:.12f}")


def test_acceptance_09_noise_comparison():
    ok = True
    gaps = {}
    for n in (6, 16):
        p_grid = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2]
        records = noise_sweep(CouplingProfile.engineered(n),
                              NoiseConfig(p_grid, math.pi / 2, trials=10_000, seed=2026))
        curves = {label: [r for r in records if r.hamiltonian == label]
                  for label in ("cluster", "exchange")}
        for label, curve in curves.items():
            ok = ok and abs(curve[0].mean_fidelity - 1.0) < 1e-6
            for lo, hi in zip(curve, curve[1:]):
                slack = 3.0 * math.hypot(lo.standard_error, hi.standard_error)
                ok = ok and hi.mean_fidelity <= lo.mean_fidelity + slack + 1e-9
        gaps[n] = []
        for c_rec, e_rec in zip(curves["cluster"], curves["exchange"]):
            slack = 3.0 * math.hypot(c_rec.standard_error, e_rec.standard_error)
            gaps[n].append(c_rec.mean_fidelity - e_rec.mean_fidelity)
            ok = ok and gaps[n][-1] >= -slack - 1e-9
    _report(9, "noise robustness ordering", ok,
            "; ".join(f"N={n} cluster-minus-exchange gaps "
                      + ", ".join(f"{g:+.4f}" for g in gap) for n, gap in gaps.items()))


def test_acceptance_10_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["noise-sweep", "--n", "6", "--trials", "500",
            "--p", "0,0.05,0.1", "--seed", "42"]
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _report(10, "seeded rerun determinism",
            code_a == 0 and code_b == 0 and identical,
            f"{len(a.read_bytes())} bytes, identical={identical}")
