import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import spinamp
from spinamp import cli

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
    # copies a mutant's old text fails here, not only when the runner is run
    for file, old, new, _ in mutants.MUTANTS:
        assert mutants._source(file).read_text().count(old) == 1, (file, old)
        assert new != old, (file, old)
