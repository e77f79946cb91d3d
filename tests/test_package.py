import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import shlex

import pytest

import spinamp
from spinamp import cli
from spinamp.algebra import BitConfig
from spinamp.chains import CouplingProfile, StarLayout, cluster_field_terms
from spinamp.noise import dephasing_ensemble

import mutants

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_MODULES = ["spinamp"] + [f"spinamp.{m.name}" for m in pkgutil.iter_modules(spinamp.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # deleting a function once left its name in __all__; the CLI module
    # exports nothing
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_star_import():
    namespace = {}
    exec("from spinamp import *", namespace)
    assert set(spinamp.__all__) <= namespace.keys()


def test_readme_python_blocks_run():
    # a deleted or renamed public name fails here instead of leaving the
    # README's examples stale
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(block, {})


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    # every `spinamp ...` line of the README's sh blocks, --out files
    # landing in tmp_path
    blocks = re.findall(r"^```sh\n(.*?)^```", _README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("spinamp ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_every_mutant_has_one_target():
    # the mutant runner's own precondition: a refactor that deletes or
    # copies a mutant's old text fails here, not only when the runner is run;
    # a renamed test or file in a selection would make the runner report
    # an error, not a kill
    root = _README.parent
    for file, old, new, selection in mutants.MUTANTS:
        assert mutants._source(file).read_text().count(old) == 1, (file, old)
        assert new != old, (file, old)
        for arg in selection:
            if not arg.startswith("tests/"):
                continue
            path, _, name = arg.partition("::")
            assert (root / path).is_file(), arg
            if name:
                tree = ast.parse((root / path).read_text())
                assert name in {node.name for node in tree.body
                                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, arg


@pytest.mark.parametrize("target, parameters", [
    (CouplingProfile, ["couplings", "fields=()"]),
    (BitConfig, ["bits"]),
    (StarLayout, ["spikes", "profile"]),
    (cluster_field_terms, ["fields"]),
    (dephasing_ensemble, ["tasks", "cfg"]),
], ids=["CouplingProfile", "BitConfig", "StarLayout", "cluster_field_terms", "dephasing_ensemble"])
def test_lengths_are_derived_not_passed(target, parameters):
    # a length that another input already fixes is derived from it, as are
    # the noise draws made for it, so no second value, and no check that
    # the two agree, can come back
    got = [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
           for p in inspect.signature(target).parameters.values()]
    assert got == parameters


@pytest.mark.parametrize("cls", [CouplingProfile, BitConfig])
def test_n_sites_is_not_a_field(cls):
    assert "n_sites" not in {field.name for field in dataclasses.fields(cls)}
    assert isinstance(inspect.getattr_static(cls, "n_sites"), property)
