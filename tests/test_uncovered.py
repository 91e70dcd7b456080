"""checks/uncovered.py reports exactly the statements a run leaves out."""

import importlib.util
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_checker():
    path = os.path.join(ROOT, "checks", "uncovered.py")
    spec = importlib.util.spec_from_file_location("uncovered", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_the_one_statement_not_executed(tmp_path):
    checker = load_checker()
    module = tmp_path / "two.py"
    module.write_text(textwrap.dedent('''\
        """Two functions, one of them called."""


        def used(x):
            """Docstrings, defs and imports are not reported."""
            return x + 1


        def unused(x):
            return x - 1


        if __name__ == "__main__":
            print(unused(1))
        '''))

    def run():
        spec = importlib.util.spec_from_file_location("two", module)
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        return loaded.used(1)

    executed, result = checker.trace_lines(str(tmp_path), run)
    assert result == 2
    assert checker.uncovered(str(tmp_path), executed) == [
        f"{tmp_path.name}/two.py:10:     return x - 1"]
