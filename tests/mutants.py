"""Mutation checks kept as data, and their runner.

Each entry of ``MUTANTS`` is (file under src/spinamp, old text, new text,
pytest selection): a deliberate bug, and the tests that must catch it.

    python tests/mutants.py

first checks that every old text occurs exactly once in its file, and
refuses to run otherwise.  It then runs every selection against an
unmutated copy of src/, which must pass.  Then, for each mutant, it copies
src/ to a temporary directory, applies the mutant there and runs the
mutant's selection against the copy.  A mutant whose selection still
passes survives.  The runner lists the survivors and exits 1 if there are
any.

It uses only the standard library and pytest, and is not part of tier-1,
since each mutant costs one pytest run; tier-1 checks only the first
condition (tests/test_package.py).  A survivor is a gap in the tests:
it is recorded and mended, never deleted to make the runner pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ALGEBRA = ["tests/test_algebra.py"]
_AUTOMATON = ["tests/test_automaton.py"]
_COMMUTATOR = ["tests/test_algebra.py", "tests/test_chains.py", "-k", "commutator or wall or star"]
_NOISE = ["tests/test_noise.py"]
_CONFIG = ["tests/test_noise.py", "tests/test_cli.py", "-k", "config or rejects or bad_input"]
_TIMES = ["tests/test_evolution.py", "tests/test_noise.py", "tests/test_cli.py"]
_LIBRARY_CHECKS = ["tests/test_evolution.py", "tests/test_cli.py",
                   "-k", "scan_argument or amplification or librarys"]

MUTANTS = [
    # the sign of i^(e+1) for an anticommuting pair
    ("algebra.py", "(1.0 if e % 4 == 3 else -1.0)", "(1.0 if e % 4 == 1 else -1.0)", _COMMUTATOR),
    # every pair of strings anticommutes
    ("algebra.py", "(z1 & x2).bit_count()) % 2:", "(z1 & x2).bit_count()) % 2 or True:",
     _COMMUTATOR),
    # X and Z swapped in the tableau pair
    ("algebra.py", "letters=norm, _xz=(x, z)", "letters=norm, _xz=(z, x)", _ALGEBRA),
    # a merged coefficient that overflows kept as the first term's
    ("algebra.py", "first if c == first.coefficient else",
     "first if c == first.coefficient or math.isinf(c) else",
     ["tests/test_algebra.py", "-k", "merged"]),
    # a flip mask's weights added in reverse term order
    ("algebra.py", "np.bincount(cells, (part[:, None] * signs).ravel(),",
     "np.bincount(cells[::-1], (part[:, None] * signs).ravel()[::-1],",
     ["tests/test_algebra.py", "-k", "entries"]),
    # no dense cap on the entry reader
    ("algebra.py", "    require_dense(spec.n_sites)\n", "",
     ["tests/test_algebra.py::test_dense_cap_enforced",
      "tests/test_evolution.py::test_dense_refused_above_cap"]),
    # the free phases of step j, not j + 1, at a flip
    ("noise.py", "np.exp(rate * (step + 1))", "np.exp(rate * step)", _NOISE),
    # V for V^T when a hit trial goes to sites
    ("noise.py", "@ v_phi.T).reshape", "@ v_phi).reshape", _NOISE),
    # star-demo's probability read after the product is subtracted
    ("cli.py", "        row[indices] = -1\n        u -= product\n",
     "        u -= product\n"
     "        if row[seed] >= 0 and row[ones] == row[seed]:\n"
     "            probability = float(abs(u[row[seed], pos[ones], pos[seed]]) ** 2)\n"
     "        row[indices] = -1\n",
     ["tests/test_cli.py", "tests/test_acceptance.py", "-k", "star"]),
    # the CA parity mask cut to N + 1 bits
    ("automaton.py", "& ((1 << n_sites) - 1)", "& ((1 << n_sites + 1) - 1)",
     ["tests/test_automaton.py"]),
    # each require_times call dropped
    ("evolution.py", "return require_times(ts, np.append(self.vals, self.field_sum))",
     "return np.atleast_1d(np.asarray(ts, dtype=float))", _TIMES),
    ("evolution.py", "        require_times(t, vals)\n", "", _TIMES),
    ("noise.py", "    require_times(total_time, vals)\n", "", _TIMES),
    # sum B dropped from the amplitude range check
    ("evolution.py", "require_times(ts, np.append(self.vals, self.field_sum))",
     "require_times(ts, self.vals)", _TIMES),
    # a scan's grid evolved without the time check
    ("evolution.py", "ts = prop.times(np.arange(0.0, t_max + 0.5 * grid_step, grid_step))",
     "ts = np.arange(0.0, t_max + 0.5 * grid_step, grid_step)", _TIMES),
    # the refinement evaluating its bracket's lower end, not the point it asks for
    ("evolution.py", "amps(np.array([t]))", "amps(np.array([lo]))",
     ["tests/test_cli.py", "-k", "scan_csv"]),
    # the refinement reading a pair's sites again at every step
    ("evolution.py", "amps(np.array([t]))", "prop.amplitudes(source, target, t)",
     ["tests/test_evolution.py", "-k", "once"]),
    # the midpoint of a one-subnormal bracket left at 0
    ("evolution.py", "min(max(0.5 * a + 0.5 * b, a), b)", "0.5 * a + 0.5 * b",
     ["tests/test_evolution.py", "-k", "bracket"]),
    # the mirror's probability read off the target set S, not its reversal R(S)
    ("automaton.py", "u[(n_sites - 1 - s)[:, :, None], s[:, None, :]]",
     "u[s[:, :, None], s[:, None, :]]", _AUTOMATON),
    # the mirror taken as the continuous output whatever its probability
    ("automaton.py", "np.where(prob > 0.5, mirror, -1)", "mirror.copy()", _AUTOMATON),
    # the eigenvectors used as eigh returns them, orthogonal only to N ulps
    ("automaton.py", "prop.vecs @ (1.5 * np.eye(n_sites) - 0.5 * prop.vecs.T @ prop.vecs)",
     "prop.vecs", _AUTOMATON),
    # the occupied sites read off b, not b ^ (b >> 1)
    ("automaton.py", "occupied = walls[:, None]", "occupied = configs[:, None]", _AUTOMATON),
    # the CA search run on past its Nth half-step
    ("automaton.py", "for step in range(n_sites):", "for step in range(n_sites + 1):",
     _AUTOMATON),
    # the start not counted as a hit
    ("automaton.py", "hit_step = hits.argmax(axis=0)", "hit_step = hits[1:].argmax(axis=0) + 1",
     _AUTOMATON),
    # the CA search stopped after N - 1 half-steps
    ("automaton.py", "for step in range(n_sites):", "for step in range(n_sites - 1):",
     _AUTOMATON),
    # the odd half-step first
    ("automaton.py", "_PARITIES[step % 2]", "_PARITIES[(step + 1) % 2]", _AUTOMATON),
    # the identity check, N half-steps equal the mirror map, dropped
    ("automaton.py", "    if not hits[-1].all():\n", "    if False:\n", _AUTOMATON),
    # a config of another site count let through to the occupied sites
    ("evolution.py", "        if config.n_sites != self.n_sites:\n", "        if False:\n",
     ["tests/test_evolution.py", "tests/test_noise.py", "-k", "site_count"]),
    # true and false swapped in a column of bools
    ("io.py", '("false", "true")[v]', '("true", "false")[v]',
     ["tests/test_cli.py", "-k", "render_csv or ca_compare"]),
    # the temp file opened without O_EXCL, through a link planted at its name
    ("io.py", "os.O_CREAT | os.O_EXCL", "os.O_CREAT", ["tests/test_cli.py", "-k", "planted"]),
    # site N - 1 read in place of site N
    ("noise.py", "(vecs[-1:] * np.exp(rate * cfg.steps))", "(vecs[-2:-1] * np.exp(rate * cfg.steps))",
     _NOISE),
    # the spread of equal trials taken from their rounded mean
    ("noise.py", "0.0 if fids.min() == fids.max() else", "0.0 if cfg.trials == 1 else",
     ["tests/test_noise.py", "tests/test_cli.py", "-k", "spread"]),
    # a hit row's flip site read at its place among the rows that flip, not at its row
    ("noise.py", "sites[busy[lo + hit] % cfg.trials, step]",
     "sites[(lo + hit) % cfg.trials, step]", _NOISE),
    # the p-major rows read back trial-major
    ("noise.py", ".reshape(len(tasks), len(ps), cfg.trials)",
     ".reshape(len(tasks), cfg.trials, len(ps)).swapaxes(1, 2)", _NOISE),
    # quiet rows scored from the first k single-particle sites, not the occupied ones
    ("noise.py", "scores(np.tile(start, (2, 1, 1)))", "scores(np.tile(vecs[:k], (2, 1, 1)))",
     _NOISE),
    # quiet rows read off one copy of the start, through numpy's dot kernel
    ("noise.py", "(2, 1, 1))))[:, :1]", "(1, 1, 1))))[:, :1]",
     ["tests/test_noise.py", "-k", "bitwise"]),
    # the exchange orbitals given the cluster chain's suffix signs
    ("noise.py", "[n * prop.ladder - 1 for prop, sites", "[n - 1 for prop, sites", _NOISE),
    # every task's readout slice taken from the first orbital
    ("noise.py", "list(zip([0] + ends, ends))", "list(zip([0] * len(ends), ends))", _NOISE),
    # tasks on different profiles evolved with the first one's eigenpairs
    ("noise.py", "if any(prop.profile != props[0].profile for prop in props):", "if False:",
     ["tests/test_noise.py", "-k", "profiles"]),
    # one eigh per propagator, not per profile
    ("evolution.py", "@functools.lru_cache(maxsize=1)\n", "",
     ["tests/test_noise.py::test_sweep_diagonalizes_h_once"]),
    # a site outside 1..N wrapped or raised IndexError
    ("algebra.py", "        if not 1 <= site <= n_sites:\n", "        if False:\n",
     ["tests/test_algebra.py::test_single_refuses_a_site_outside_the_chain"]),
    # a NaN flip probability accepted
    ("noise.py", "if not 0.0 <= p <= 1.0:", "if p < 0.0 or p > 1.0:", _CONFIG),
    # a zero sweep time accepted
    ("noise.py", "if not self.total_time > 0.0:", "if not self.total_time >= 0.0:", _CONFIG),
    # an empty p grid accepted
    ("noise.py", '        if not grid:\n            raise ValueError("p grid must be nonempty")\n',
     "", _CONFIG),
    # a star refused fields only when every one is nonzero
    ("chains.py", "if any(layout.profile.fields):", "if all(layout.profile.fields):",
     ["tests/test_chains.py", "-k", "star"]),
    # a NaN alpha or beta let through to the amplitudes
    ("evolution.py", "if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-9:",
     "if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:", _LIBRARY_CHECKS),
    # a grid whose stop overflows let through to np.arange
    ("evolution.py", "and math.isfinite(t_max + grid_step / 2)", "and True", _LIBRARY_CHECKS),
    # N read as the number of couplings
    ("chains.py", "return len(self.couplings) + 1", "return len(self.couplings)",
     ["tests/test_chains.py", "-k", "profile"]),
    # a named profile of N < 2 sites reported as one of 1 site
    ("chains.py", "(1.0,) * (_chain_sites(n_sites) - 1)", "(1.0,) * (n_sites - 1)",
     ["tests/test_chains.py", "-k", "profile"]),
]


def _source(file: str, root: Path = ROOT) -> Path:
    return root / "src" / "spinamp" / file


def _run(selection, copy: Path) -> int:
    """pytest's exit code for ``selection`` with ``copy``'s src/ imported."""
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    try:
        return subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=900).returncode
    except subprocess.TimeoutExpired:
        return 1                # a hang fails the selection too


def _copy(tmp: str) -> Path:
    copy = Path(tmp)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def main() -> int:
    bad = [(file, old) for file, old, _, _ in MUTANTS if _source(file).read_text().count(old) != 1]
    if bad:
        for file, old in bad:
            print(f"refused: {old!r} does not occur exactly once in {file}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = _copy(tmp)
        probe = [sys.executable, "-c", "import spinamp; print(spinamp.__file__)"]
        where = subprocess.run(probe, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True).stdout
        if not where.startswith(str(copy)):
            print(f"refused: the copy is not what imports ({where.strip()})")
            return 2
        selections = {arg for *_, selection in MUTANTS for arg in selection
                      if arg.startswith("tests/")}
        if _run(sorted(selections), copy) != 0:
            print("refused: the selections fail on the unmutated source")
            return 2
    survivors, errors = [], []
    for number, (file, old, new, selection) in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            copy = _copy(tmp)
            target = _source(file, copy)
            target.write_text(target.read_text().replace(old, new))
            code = _run(selection, copy)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
        print(f"{number:2d} {verdict:9s} {file}: {old.strip()[:50]!r}", flush=True)
        if code == 0:
            survivors.append(number)
        elif code != 1:
            errors.append(number)
    if survivors or errors:
        print(f"survivors: {survivors}; errors: {errors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
