"""The package's public surface: an explicit __all__ that holds what the
README and the CLI use, and no submodule."""

import ast
import json
import os
import re
import types

import pytest

import frontlab
from frontlab import cli
from frontlab.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_is_a_literal_list_of_bound_names():
    with open(frontlab.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assigned = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    assert len(assigned) == 1 and isinstance(assigned[0], ast.List)
    assert all(isinstance(elt, ast.Constant) and isinstance(elt.value, str) for elt in assigned[0].elts)
    assert len(set(frontlab.__all__)) == len(frontlab.__all__)
    assert all(hasattr(frontlab, name) for name in frontlab.__all__)


def test_star_import_binds_no_module_and_no_internal_name():
    namespace: dict = {}
    exec("from frontlab import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]
    internal = {
        "step", "fixed_domain_run", "TransformedCoeffs", "State", "Snapshot", "in_weak_regime", "cosine_bump",
        "build_vanishing_supersolution_predation",
    }
    assert not internal & bound.keys()


def _readme_blocks(language: str) -> list:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"```{language}\n(.*?)```", fh.read(), flags=re.S)


def test_readme_quick_start_imports_are_public():
    blocks = _readme_blocks("python")
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "frontlab"
        for alias in node.names
    }
    assert imported
    assert not imported - set(frontlab.__all__)


def test_readme_quick_start_runs_as_written(capsys):
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    # at a = 0.8 the 2.0-long start already exceeds ell* = 0.216
    assert capsys.readouterr().out == "Spreading LengthExceedsEllStar\n"


@pytest.mark.parametrize("command", ["threshold", "supersolution-check"])
def test_readme_cli_quick_start_config_runs_as_written(tmp_path, command):
    # the run.cfg block is a valid config on which the threshold scan and
    # the barrier check are defined (h0 < ell*/2)
    (block,) = _readme_blocks("ini")
    parse_config(block)
    path = tmp_path / "run.cfg"
    path.write_text(block)
    assert cli.main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
    if command == "threshold":
        # the block's threshold.horizon lets the near-threshold probes
        # decide, so the scan refines its bracket to its 1.5 target
        record = json.loads((tmp_path / "out" / "threshold.json").read_text())
        assert record["upper"] / record["lower"] <= 1.5
