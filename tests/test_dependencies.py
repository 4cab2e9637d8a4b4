"""The core stays pure Python with zero runtime dependencies."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ltk"


def test_core_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


PACKING_HELPERS = {"_pack", "_pack_bytes", "_width", "_bias", "_unpack"}


def test_the_kronecker_packing_stays_inside_series():
    """The slot layout and its width rule are known to series alone: no
    other module imports a packing helper or reads one as an attribute, and
    every determinant goes through the one entry point, packed_det (no
    _det_packed beside it)."""
    outside, defined = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            if path.stem == "series":
                continue
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name in PACKING_HELPERS]
    assert not outside
    assert "packed_det" in defined and "_det_packed" not in defined
