"""checks/outputs.py: every listed command is one the CLI parses."""

import importlib.util
import os
import re
import shlex

from evfaraday.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_outputs():
    path = os.path.join(ROOT, "checks", "outputs.py")
    spec = importlib.util.spec_from_file_location("outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_parses():
    commands = load_outputs().COMMANDS
    assert len(set(commands)) == len(commands)
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "evf", command
        # argparse exits on a command it cannot parse
        assert parser.parse_args(argv[1:]).func, command


def test_readme_commands_listed():
    # every README example, with its bracketed options taken and left out
    commands = set(load_outputs().COMMANDS)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        examples = [line for line in f.read().splitlines()
                    if line.startswith("evf ")]
    assert examples
    for line in examples:
        assert re.sub(r"[][]", "", line) in commands, line
        assert re.sub(r" \[[^]]*\]", "", line) in commands, line
