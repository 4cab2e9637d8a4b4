"""perfbench/run.py profiles ltk functions by name; each must exist in
src/ltk, so that a refactor that deletes or renames one fails here and not
only in the benchmark's own self-check."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def profiled_names():
    """The keys of the dict perfbench/run.py passes to spans.profiled_counts."""
    for node in ast.walk(ast.parse(RUN.read_text(), str(RUN))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "profiled_counts"):
            (names,) = [a for a in node.args if isinstance(a, ast.Dict)]
            return [ast.literal_eval(k) for k in names.keys]
    raise AssertionError("perfbench/run.py makes no profiled_counts call")


def test_profiled_functions_resolve_in_ltk():
    names = profiled_names()
    assert "series.TruncSeries.eval" in names and "lubin_tate._fr_mul" in names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"ltk.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{name}: ltk has no {attr}"
            obj = getattr(obj, attr)
        # spans.profiled_counts matches functions by their code objects
        assert hasattr(obj, "__code__"), f"{name} is not a Python function"
