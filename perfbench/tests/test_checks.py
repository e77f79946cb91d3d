"""Each output checker accepts a real CLI output and rejects doctored ones.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from perfbench.checks import CheckError, check, grid_rows, mirror  # noqa: E402
from spinamp.algebra import BitConfig  # noqa: E402
from spinamp.cli import main  # noqa: E402
from spinamp.maps import mirror_map  # noqa: E402

RNG_SEED = 7


def _run(op, tmp_path) -> str:
    out = tmp_path / f"{op.command}.out"
    assert main(list(op.argv) + ["--out", str(out)]) == 0
    return out.read_text()


def _json_edit(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _csv_rows(text):
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    return head, rows


def _set_row(text, index, column, value):
    head, rows = _csv_rows(text)
    cells = rows[1 + index].split(",")
    cells[column] = value
    rows[1 + index] = ",".join(cells)
    return "\n".join(head + rows) + "\n"


def _flip_cell(text, index, column):
    head, rows = _csv_rows(text)
    cell = rows[1 + index].split(",")[column]
    return _set_row(text, index, column, str(1 - int(cell[0])) + cell[1:])


def _set_line_end(text, index, value):
    lines = text.splitlines()
    lines[index] = lines[index].rsplit(" ", 1)[0] + " " + value
    return "\n".join(lines) + "\n"


def _drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _scale_fidelity(doc):
    doc["result"]["fidelity"] *= 0.99


def _wrong_target(doc):
    doc["config"]["target"] = doc["config"]["source"]


def _star_commutator(doc):
    doc["result"]["max_pairwise_commutator"] = 1e-3


def _star_ones(doc):
    doc["result"]["all_ones_probability"] = 0.9


def _scan_header(text, key, value):
    lines = [f"# {key}: {value}" if ln.startswith(f"# {key}: ") else ln
             for ln in text.splitlines()]
    return "\n".join(lines) + "\n"


def _rng():
    return random.Random(RNG_SEED)


CASES = {
    "amplify": (lambda: workloads.amplify(_rng(), 6), [
        lambda t: _json_edit(t, _scale_fidelity),
        lambda t: _json_edit(t, lambda d: d["config"].update(n=5)),
    ]),
    "transfer-cluster": (lambda: workloads.transfer(_rng(), 7), [
        lambda t: _json_edit(t, _scale_fidelity),
        lambda t: _json_edit(t, _wrong_target),
    ]),
    "transfer-exchange": (lambda: workloads.transfer(_rng(), 6, family="exchange"), [
        lambda t: _json_edit(t, _scale_fidelity),
        lambda t: _json_edit(t, _wrong_target),
    ]),
    "scan": (lambda: workloads.scan(_rng(), 6, "exchange", "engineered", 2.0, 0.05), [
        lambda t: _scan_header(t, "fidelity_star", "0.5"),
        lambda t: _scan_header(t, "fidelity_star", "1.01"),
        lambda t: _set_row(t, 3, 1, "1.5"),
        _drop_last_row,
    ]),
    "ca-compare": (lambda: workloads.ca_compare(5), [
        lambda t: _set_row(t, 6, 4, "false"),
        lambda t: _flip_cell(t, 6, 3),
        lambda t: _set_row(t, 6, 2, "0.9"),
        _drop_last_row,
    ]),
    "verify-equivalence": (lambda: workloads.verify_equivalence(_rng(), 3, 5), [
        lambda t: _set_line_end(t, 1, "1e-06"),
        _drop_last_row,
        lambda t: t + "N=5: symbolic mismatch on terms []\n",
    ]),
    "star-demo": (lambda: workloads.star_demo(2, 3), [
        lambda t: _json_edit(t, _star_commutator),
        lambda t: _json_edit(t, _star_ones),
        lambda t: _json_edit(t, lambda d: d["result"].update(total_sites=6)),
    ]),
    "noise-sweep": (lambda: workloads.noise_sweep(_rng(), 4, 50), [
        lambda t: _set_row(t, 0, 2, "0.9"),     # first row is p = 0
        lambda t: _set_row(t, 2, 2, "1.2"),
        lambda t: _set_row(t, 1, 4, "49"),
        _drop_last_row,
    ]),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {name: (make(), _run(make(), tmp)) for name, (make, _) in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_accepts_real_output(outputs, name):
    op, text = outputs[name]
    check(op.command, op.expect, text)


@pytest.mark.parametrize("name,index", [(name, i) for name, (_, doctors) in sorted(CASES.items())
                                        for i in range(len(doctors))])
def test_checker_rejects_doctored_output(outputs, name, index):
    op, text = outputs[name]
    doctored = CASES[name][1][index](text)
    assert doctored != text
    with pytest.raises(CheckError):
        check(op.command, op.expect, doctored)


def test_checker_rejects_garbage():
    with pytest.raises(CheckError):
        check("amplify", {"n": 4, "alpha": 0.5}, "not json")
    with pytest.raises(CheckError):
        check("scan", {}, "")


@pytest.mark.parametrize("n", range(1, 8))
def test_mirror_matches_the_package_and_is_an_involution(n):
    for index in range(1 << n):
        b = BitConfig.from_index(n, index)
        assert mirror(str(b)) == str(mirror_map(b))
        assert mirror(mirror(str(b))) == str(b)


def test_mirror_amplifies_the_encoding_site():
    assert mirror("10000") == "11111"
    assert mirror("00000") == "00000"


def test_grid_rows_matches_numpy_arange():
    np = pytest.importorskip("numpy")
    for t_max, step in ((20.0, 0.05), (2.0, 0.02), (2.0, 0.25), (math.pi, 0.1)):
        assert grid_rows(t_max, step) == len(np.arange(0.0, t_max + 0.5 * step, step))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_cover_every_subcommand(name):
    build = workloads.WORKLOADS[name].build
    assert build(random.Random(3)) == build(random.Random(3))
    assert build(random.Random(3)) != build(random.Random(4))
    assert {op.command for op in build(random.Random(3))} == set(workloads.COMMANDS)
