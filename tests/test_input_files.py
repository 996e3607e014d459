"""Every input file is read through ``corpus.open_input``, which names the
file in any parse error. This walks the package source for a read that
goes around it."""

import ast
from pathlib import Path

import preptensor

PACKAGE = Path(preptensor.__file__).parent
# (module, function) of the reads allowed outside the helper: the helper
# itself, and the digest of a file that has already been loaded.
ALLOWED = {("corpus", "open_input"), ("cli", "_sha256")}
_WRITE_MODES = set("wax")


def _mode(call: ast.Call):
    """The mode of an ``open`` call: "r" when none is given, None when
    it is not a constant."""
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return "r"
    return modes[0].value if isinstance(modes[0], ast.Constant) else None


def _reads(node, function=None):
    """(function, line) of each call under ``node`` that opens or reads
    a file other than for writing."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            mode = _mode(child) if name == "open" else None
            if name in ("read_text", "read_bytes") or (
                    name == "open" and not (isinstance(mode, str)
                                            and set(mode) & _WRITE_MODES)):
                yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef)) else function
        yield from _reads(child, inner)


def test_every_input_file_is_read_through_open_input():
    allowed, other = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        for function, line in _reads(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.stem, function) in ALLOWED:
                allowed.add((path.stem, function))
            else:
                other.append(f"{path.relative_to(PACKAGE)}:{line} in {function}")
    assert other == []
    assert allowed == ALLOWED

