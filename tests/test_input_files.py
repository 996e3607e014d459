"""Every input file is read through ``corpus.open_input``, which names the
file in any parse error. This walks the package source for a read that
goes around it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import preptensor
from preptensor import corpus
from preptensor.corpus import load_tensor
from preptensor.embeddings import load_embeddings
from preptensor.learn import load_fnn, load_tree
from preptensor.select import load_confusion_table

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




def test_no_loader_parses_floats_itself():
    """Float fields reach a ``load_*`` function only through
    ``corpus.parse_rows``, so that every file spells numbers one way."""
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef) and function.name.startswith("load_"):
                calls += [f"{path.relative_to(PACKAGE)}:{node.lineno} in {function.name}"
                          for node in ast.walk(function)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "float"]
    assert calls == []


# A valid file of each kind that holds numbers, its loader, the body
# line the cases spoil, the numbers that line holds and whether they are
# integers.
NUMERIC_FILES = {
    "tensor": (load_tensor, "PREPTENSOR v1 5 2 3 3\n0 1 0 1\n1 2 1 2\n2 3 2 3\n",
               3, 4, True),
    "embeddings": (load_embeddings, "3 2\nfoo 1 2\nbar 0.5 -1\n__NOPREP__ 1 1\n",
                   3, 2, False),
    "fnn": (load_fnn, "FNN v1 sizes 2 2\n1 2\n3 4\n5 6\n", 3, 2, False),
    "confusion": (load_confusion_table,
                  "CONFUSION v1 2 1\non in\n0.5 0.5\n0.25 0.75\n", 4, 2, False),
    "tree": (load_tree, "TREE v1 3 2 8 5\n0 1\nsplit 0 0.5 1 2\nleaf 1 0\nleaf 0 1\n",
             4, 2, False),
}
# The spellings np.loadtxt rejects, or float64 reads as non-finite; None
# stands for a row with one number too many.
SPELLINGS = ["1_0", "\u0663", "0x1p3", "nan", "inf", None]


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("kind", NUMERIC_FILES)
def test_every_loader_rejects_the_same_spellings(tmp_path, kind, spelling):
    load, text, lineno, width, integer = NUMERIC_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(text, encoding="utf-8")
    load(path)
    lines = text.splitlines()
    fields = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join(fields + ["1"] if spelling is None
                                 else fields[:-1] + [spelling])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if spelling is None:
        message = f"expected {width} fields, got {width + 1}"
    elif integer:
        message = f"non-integer field {spelling!r}"
    elif spelling in ("nan", "inf"):
        message = f"non-finite value {spelling!r}"
    else:
        message = f"non-numeric field {spelling!r}"
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: line {lineno}: {message}"


@pytest.mark.parametrize("spelling", [
    *SPELLINGS[:-1], "-inf", "+nan", "NaN", "Infinity", "INF", "nan(1)", "infinit",
    "1e400", "1e-400", "-0", "+1", "5.", ".5", "1.e5", "+.5e-3", "1E+05", "1.0",
    ".", "-", "e5", "_1", "1.5e", "1e+", "1d5", "1,5", "0x10", "\uff11", "\u0661.5",
    str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), "9" * 400,
])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_array_and_field_paths_agree(spelling, dtype):
    """np.loadtxt, which parses each chunk, and the field-by-field check,
    which names what it rejects, accept the same spellings."""
    try:
        [[value]] = corpus.parse_rows([spelling], 1, dtype=dtype)
    except ValueError:
        value = None
    try:
        corpus._check_field(spelling, 1, integer=dtype is np.int64)
    except ValueError:
        assert value is None
    else:
        assert value is not None and value == dtype(spelling)
