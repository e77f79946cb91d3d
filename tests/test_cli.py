import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from spinamp import chains, cli, noise
from spinamp.algebra import HamiltonianSpec, PauliTerm, SpinChainError
from spinamp.chains import CouplingProfile, StarLayout, spike_hamiltonians
from spinamp.evolution import Propagator
from spinamp.cli import _json_doc, main
from spinamp.io import format_number, parse_time, render_csv, write_text_atomic

from oracles import kron_dense, kron_unitary


def test_parse_time_tokens():
    assert parse_time("pi") == math.pi
    assert parse_time("pi/2") == math.pi / 2
    assert parse_time("3pi/4") == 3 * math.pi / 4
    assert parse_time("2*pi") == 2 * math.pi
    assert parse_time("1.25") == 1.25
    assert parse_time("-pi/2") == -math.pi / 2
    assert parse_time("+3pi/4") == 3 * math.pi / 4
    for bad in ("two pies", "pi/0", "--pi"):
        with pytest.raises(ValueError):
            parse_time(bad)


def test_format_number():
    assert format_number(0.1) == "0.1"
    assert format_number(1.0 / 3.0) == "0.333333333333333"
    assert format_number(True) == "true"
    assert format_number(7) == "7"


def test_atomic_write(tmp_path):
    path = tmp_path / "data.csv"
    write_text_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert [p for p in os.listdir(tmp_path)] == ["data.csv"]


def test_render_csv_uses_lf_and_comments():
    text = render_csv(("a", "b"), [(1, 0.5)], ["# note"])
    assert text == "# note\na,b\n1,0.5\n"


def test_verify_equivalence_ok(capsys):
    assert main(["verify-equivalence", "--n-max", "5", "--profiles", "3"]) == 0
    out = capsys.readouterr().out
    assert "N=5" in out


def test_verify_equivalence_negative_control(capsys):
    assert main(["verify-equivalence", "--n-max", "4", "--profiles", "1",
                 "--corrupt"]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_verify_equivalence_above_cap(capsys):
    assert main(["verify-equivalence", "--n-max", "13"]) == 2
    err = capsys.readouterr().err
    assert "dense cap" in err
    assert "matrix-free" not in err     # the command has no matrix-free mode


def test_amplify_json(tmp_path):
    out = tmp_path / "amp.json"
    assert main(["amplify", "--n", "6", "--time", "pi/2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["result"]["fidelity"] - 1.0) < 1e-8
    assert doc["config"]["t"] == math.pi / 2


def test_amplify_requires_n():
    assert main(["amplify"]) == 2


def test_transfer_command(tmp_path):
    out = tmp_path / "t.json"
    assert main(["transfer", "--n", "6", "--family", "cluster",
                 "--source", "010000", "--target", "000001",
                 "--time", "pi/2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["fidelity"] > 1.0 - 1e-8


def test_transfer_rejects_wrong_length():
    assert main(["transfer", "--n", "6", "--source", "01", "--target", "10"]) == 2


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "2", "--family", "exchange",
                 "--profile", "uniform", "--source", "10", "--target", "01",
                 "--t-max", "2", "--grid-step", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# spinamp v")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,fidelity"
    star = [l for l in lines if l.startswith("# t_star")][0]
    assert abs(float(star.split(":")[1]) - math.pi / 2) < 1e-5


def test_scan_of_unreachable_target_reports_t_zero(capsys):
    # source and target lie in different blocks: the fidelity is 0 on the
    # whole grid, so no time beats the first grid point
    assert main(["scan", "--n", "7", "--source", "1010000", "--target", "0001010",
                 "--t-max", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# t_star: 0" in lines
    assert "# fidelity_star: 0" in lines


def test_ca_compare_csv(tmp_path):
    out = tmp_path / "ca.csv"
    assert main(["ca-compare", "--n", "4", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == ("input,continuous_output,continuous_prob,"
                       "mirror_output,agree,ca_hit_step")
    assert len(rows) == 17
    assert all(",true," in r for r in rows[1:])


def test_noise_sweep_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["noise-sweep", "--n", "6", "--trials", "150", "--p", "0,0.1",
            "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the trials evolve in the source's block: C(6, 2) wall states, 6 single excitations
    assert '# block_dims: {"cluster": 15, "exchange": 6}' in a.read_text().splitlines()


def test_amplify_rejects_nan_time(capsys):
    # the Krylov loop once skipped a NaN time and scored the initial state
    assert main(["amplify", "--n", "14", "--time", "nan"]) == 2
    assert capsys.readouterr().out == ""


def test_transfer_rejects_infinite_time(capsys):
    # an infinite time once reached the JSON output as the token NaN
    assert main(["transfer", "--n", "4", "--source", "1000", "--target", "0001",
                 "--time", "inf"]) == 2
    assert capsys.readouterr().out == ""


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_json_output_never_carries_nan(capsys):
    # a NaN input is refused before evaluation, never written as the token NaN
    assert _exit_code(["amplify", "--n", "4", "--alpha", "nan"]) == 2
    assert capsys.readouterr().out == ""


def test_json_doc_refuses_nan():
    with pytest.raises(ValueError):
        _json_doc({"n": 4}, {"fidelity": math.nan})


_SCAN = ["scan", "--n", "4", "--source", "1000", "--target", "0001"]
_SWEEP = ["noise-sweep", "--n", "4", "--trials", "2"]


_BAD_INPUT = [
    (["amplify", "--n", "4", "--time", "pi/0"], "divides by zero"),
    (_SCAN + ["--t-max", "nan"], "finite"),
    (_SCAN + ["--grid-step", "inf"], "finite"),
    (_SCAN + ["--grid-step", "0"], "positive"),
    (["amplify", "--n", "4", "--alpha", "inf"], "finite"),
    (["amplify", "--n", "4", "--alpha", "2"], "alpha^2 + beta^2"),
    (["amplify", "--n", "1"], "at least 2 sites"),
    (_SWEEP + ["--p", "0.1,nan"], "flip probability"),
    (_SWEEP + ["--p", "2"], "flip probability"),
    (_SWEEP + ["--p", ","], "float"),
    (_SWEEP + ["--steps", "0"], "steps"),
    (["star-demo", "--spikes", "0"], "spike"),
    (["transfer", "--n", "3", "--source", "102", "--target", "001"], "0 or 1"),
    (["verify-equivalence", "--profiles", "0"], "profile"),
    (["ca-compare", "--n", "13"], "dense cap"),
    (["amplify", "--n", "4", "--config", "missing.json"], "No such file"),
    (["amplify", "--n", "4", "--config", "malformed.json"], "Expecting property name"),
]


@pytest.mark.parametrize("argv, reason", _BAD_INPUT,
                         ids=[" ".join(argv) for argv, _ in _BAD_INPUT])
def test_bad_input_is_a_usage_error(argv, reason, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.json").write_text("{bad")
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded; returns the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_noise_sweep_respects_cap(monkeypatch, capsys):
    # refused before a single per-trial generator is spawned
    calls = _count_calls(monkeypatch, noise, "trial_rngs")
    assert main(["noise-sweep", "--n", "13", "--trials", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dense cap" in captured.err
    assert calls == []


def test_star_demo(tmp_path):
    out = tmp_path / "star.json"
    assert main(["star-demo", "--spikes", "3", "--length", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["max_pairwise_commutator"] < 1e-12
    assert doc["result"]["all_ones_probability"] > 1.0 - 1e-8


@pytest.mark.parametrize("spikes, length", [(3, 3), (2, 4)])
def test_star_demo_matches_kronecker_oracle(spikes, length, capsys):
    assert main(["star-demo", "--spikes", str(spikes), "--length", str(length)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    layout = StarLayout(spikes, length, CouplingProfile.engineered(length))
    specs = spike_hamiltonians(layout)
    dense = [kron_dense(s) for s in specs]
    comm = max(float(np.max(np.abs(a @ b - b @ a)))
               for i, a in enumerate(dense) for b in dense[i + 1:])
    u_star = kron_unitary(sum(specs[1:], specs[0]), math.pi / 2)
    product = np.eye(len(u_star), dtype=complex)
    for spec in specs:
        product = kron_unitary(spec, math.pi / 2) @ product
    assert result["total_sites"] == layout.total_sites
    assert abs(result["max_pairwise_commutator"] - comm) < 1e-12
    assert abs(result["propagator_product_deviation"]
               - float(np.max(np.abs(u_star - product)))) < 1e-12
    # from site 1 alone up to all ones
    assert abs(result["all_ones_probability"] - abs(u_star[-1, 1]) ** 2) < 1e-12


def test_product_deviation_refuses_a_spike_across_star_blocks():
    # a diagonal "star" has one block per basis state; X_1 links two of them
    z, x = (HamiltonianSpec(2, (PauliTerm(1.0, {1: p}),)) for p in "ZX")
    with pytest.raises(SpinChainError, match="spans two star blocks"):
        cli._product_deviation(Propagator(z), [x], 1.0)


_NO_FULL_MATRIX = [
    (["star-demo", "--spikes", "2", "--length", "5"], 9),
    (["verify-equivalence", "--n-min", "10", "--n-max", "10"], 10),
    (["ca-compare", "--n", "10"], 10),
]


@pytest.mark.parametrize("argv, n_sites", _NO_FULL_MATRIX,
                         ids=[" ".join(argv) for argv, _ in _NO_FULL_MATRIX])
def test_peak_memory_stays_below_one_full_matrix(argv, n_sites, capsys):
    # every array is per block or per entry: the traced peak stays below
    # one 2^N x 2^N float64 matrix
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 8 << (2 * n_sites)


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "no" / "x.json", tmp_path / "taken"):
        assert main(["amplify", "--n", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
    # no temp file left next to either target
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_star_demo_builds_spikes_once(monkeypatch, capsys):
    calls = [_count_calls(monkeypatch, module, "spike_hamiltonians")
             for module in (cli, chains)]
    for run, spikes in enumerate((2, 3), start=1):
        assert main(["star-demo", "--spikes", str(spikes), "--length", "3"]) == 0
        assert sum(len(c) for c in calls) == run
    capsys.readouterr()


def test_star_demo_respects_cap(monkeypatch, capsys):
    # refused before a single spike Hamiltonian is built
    calls = [_count_calls(monkeypatch, module, "spike_hamiltonians")
             for module in (cli, chains)]
    for spikes, length in ((5, 4), (20000, 3)):
        assert main(["star-demo", "--spikes", str(spikes), "--length", str(length)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dense cap" in captured.err
    assert calls == [[], []]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "time": "pi/2"}))
    out = tmp_path / "amp.json"
    assert main(["amplify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n"] == 6

    bad = tmp_path / "bad.json"
    for key in ("unknown-key", "func"):
        bad.write_text(json.dumps({key: 1}))
        assert main(["amplify", "--config", str(bad)]) == 2


def test_command_line_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6}))
    assert main(["amplify", "--config", str(cfg), "--n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["n"] == 5


@pytest.mark.parametrize("doc", ['{"n": 4, "alpha": NaN}', '{"n": [4]}',
                                 '{"n": 4, "time": {"t": 1}}'])
def test_config_values_pass_the_flag_type_check(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert _exit_code(["amplify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""
