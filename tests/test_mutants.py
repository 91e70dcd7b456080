"""checks/mutants.py: every mutant still names text the package holds."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_mutants():
    path = os.path.join(ROOT, "checks", "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    # a refactor that moves a mutated line must update the list with it
    mutants = load_mutants()
    sources = mutants.package_sources(ROOT)
    for name, old, new, why in mutants.MUTANTS:
        counts = {file: text.count(old) for file, text in sources.items()
                  if old in text}
        assert counts == {name: 1}, old
        assert new != old and why


def test_readme_commands_are_readme_lines():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    for command in load_mutants().README_COMMANDS.values():
        assert command in lines


def test_apply_replaces_the_one_occurrence(tmp_path):
    mutants = load_mutants()
    package = tmp_path / "src" / "evfaraday"
    package.mkdir(parents=True)
    (package / "one.py").write_text("A = 1\nB = 2\nC = 2\n")
    mutants.apply(str(tmp_path), ("one.py", "A = 1", "A = 3", "why"))
    assert (package / "one.py").read_text() == "A = 3\nB = 2\nC = 2\n"
    for old in ("= 2", "D = 4"):
        with pytest.raises(ValueError, match="occurs"):
            mutants.apply(str(tmp_path), ("one.py", old, "X", "why"))
