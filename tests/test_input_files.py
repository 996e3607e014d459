"""Every input file is read through ``corpus.open_input``, which names the
file in any parse error. This walks the package source for a read that
goes around it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import preptensor
from preptensor import corpus
from preptensor.attach import AttachmentInstance, Candidate, load_attachment_dataset
from preptensor.corpus import load_tensor
from preptensor.embeddings import load_embeddings
from preptensor.learn import load_fnn, load_tree
from preptensor.select import SelectionInstance, load_confusion_table, load_selection_dataset

PACKAGE = Path(preptensor.__file__).parent
# (module, function) of the reads allowed outside the helper: the helper
# itself. The digest of an input reads it through the helper too.
ALLOWED = {("corpus", "open_input")}
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


def _log_calls(node, function=None):
    """(function, call) of each logging call under ``node``, with the
    innermost function that makes it."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("debug", "info", "warning", "error")):
            yield function, child
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        yield from _log_calls(child, inner)


def test_one_reader_rejects_dataset_lines():
    """Only ``corpus.read_records`` logs a rejected line, and both dataset
    loaders read through it."""
    loggers, readers = set(), {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, call in _log_calls(tree):
            if any(isinstance(arg, ast.Constant) and "rejected" in str(arg.value)
                   for arg in call.args):
                loggers.add((path.stem, function))
        for function in ast.walk(tree):
            if (isinstance(function, ast.FunctionDef)
                    and function.name.startswith("load_")
                    and function.name.endswith("_dataset")):
                readers[function.name] = any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "read_records" for node in ast.walk(function))
    assert loggers == {("corpus", "read_records")}
    assert readers == {"load_selection_dataset": True, "load_attachment_dataset": True}


# Per dataset loader: the loader with its settings, the good line and
# the instance it holds, and each malformed line with its reason.
DATASETS = {
    "selection": (
        lambda path: load_selection_dataset(path, ["on", "in"]),
        "sat on mat\t1\ton\tin", SelectionInstance(["sat", "on", "mat"], 1, "on", "in"),
        [("sat on mat\t1\ton", "expected 4 tab-separated fields"),
         ("sat on mat\t1\ton\tin\t", "expected 4 tab-separated fields"),
         ("sat on mat\tx\ton\tin", "non-integer prep_index 'x'"),
         ("sat on mat\t1_0\ton\tin", "non-integer prep_index '1_0'"),
         # int() refuses 4,300 digits or more; the int64 rule needs none.
         (f"sat on mat\t{'9' * 5000}\ton\tin",
          f"integer prep_index {'9' * 5000!r} out of range"),
         ("sat on mat\t3\ton\tin", "prep_index out of range"),
         ("sat on mat\t-1\ton\tin", "prep_index out of range"),
         ("sat on mat\t0\ton\tin", "token at prep_index differs from observed"),
         ("sat to mat\t1\tto\tin", "observed 'to' not in roster"),
         ("sat on mat\t1\ton\tbeside", "gold 'beside' not in roster")]),
    "attachment": (
        load_attachment_dataset,
        "with\tfork\t1\tate:VB:NN:3;pizza:NN:IN:1",
        AttachmentInstance([Candidate("ate", "VB", "NN", 3),
                            Candidate("pizza", "NN", "IN", 1)], "with", "fork", 1),
        [("with\tfork\t0", "expected 4 tab-separated fields"),
         ("with\tfork\t0\t", "bad candidate spec ''"),
         ("with\tfork\t0\tate:VB:NN:3;", "bad candidate spec ''"),
         ("with\tfork\t0\tate:VB:NN", "bad candidate spec 'ate:VB:NN'"),
         ("with\tfork\t0\tate:VB:NN:x", "non-integer distance 'x'"),
         # Past int64, a distance would overflow the float feature.
         (f"with\tfork\t0\tate:VB:NN:{'9' * 400}",
          f"integer distance {'9' * 400!r} out of range"),
         ("with\tfork\t0\tate:VB:NN:0", "distance must be >= 1 in 'ate:VB:NN:0'"),
         ("with\tfork\tx\tate:VB:NN:3", "non-integer gold_index 'x'"),
         ("with\tfork\t1\tate:VB:NN:3", "gold_index 1 out of range"),
         ("with\tfork\t-1\tate:VB:NN:3", "gold_index -1 out of range")]),
}


@pytest.mark.parametrize("kind", DATASETS)
def test_dataset_loaders_reject_lines_by_one_rule(tmp_path, caplog, kind):
    load, good, instance, bad = DATASETS[kind]
    path = tmp_path / f"{kind}.tsv"
    # Blank lines are skipped, but still counted in the line numbers.
    path.write_text("\n".join(["", good, "", *(line for line, _ in bad), good]) + "\n",
                    encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert load(path) == ([instance, instance], len(bad))
    assert [r.getMessage() for r in caplog.records] == [
        *(f"{kind} dataset {path}: line {lineno} rejected: {reason}"
          for lineno, (_, reason) in enumerate(bad, start=4)),
        f"{kind} dataset {path}: {len(bad)} line(s) rejected"]
    # A decoding error is no rejected line: the load fails, naming the file.
    caplog.clear()
    path.write_bytes(f"{good}\n".encode() + b"\xff\xfe\n")
    with pytest.raises(ValueError) as exc, caplog.at_level("WARNING"):
        load(path)
    assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode")
    assert caplog.records == []


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
    "tree": (load_tree, "TREE v1 3 2 8 5\n'correct' 'error'\nsplit 0 0.5 1 2\n"
             "leaf 1 0\nleaf 0 1\n",
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


# A model file of each kind, which ends at the body its header declares,
# the body line the repeated-line case writes twice and the line the
# appended-line case adds: either way the file goes on one line past it.
MODEL_FILES = {
    # The repeated line is the first weight row of the last layer.
    "fnn": (load_fnn, "FNN v1 sizes 3 4 2\n" + "1 2 3 4\n" * 3 + "0.5 0.5 0.5 0.5\n"
            + "1 -1\n2 -2\n3 -3\n4 -4\n0.25 0.25\n", 6, "0 0\n"),
    "confusion": (load_confusion_table, "CONFUSION v1 3 1\non in to\n0.5 0.25 0.25\n"
                  "0.2 0.6 0.2\n0.1 0.1 0.8\n", 4, "0.2 0.3 0.5\n"),
    "tree": (load_tree, "TREE v1 3 2 8 5\n'correct' 'error'\nsplit 0 0.5 1 2\n"
             "leaf 1 0\nleaf 0 1\n",
             4, "leaf 1 1\n"),
}


@pytest.mark.parametrize("case", ["repeated", "appended"])
@pytest.mark.parametrize("kind", MODEL_FILES)
def test_model_loaders_stop_at_the_declared_body(tmp_path, kind, case):
    load, text, repeated, appended = MODEL_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(text, encoding="utf-8")
    load(path)
    lines = text.splitlines(keepends=True)
    if case == "repeated":
        lines.insert(repeated, lines[repeated - 1])
    else:
        lines.append(appended)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: line {len(lines)}: expected the end of the file"


@pytest.mark.parametrize("spelling", [
    *SPELLINGS[:-1], "-inf", "+nan", "NaN", "Infinity", "INF", "nan(1)", "infinit",
    "1e400", "1e-400", "-0", "+1", "5.", ".5", "1.e5", "+.5e-3", "1E+05", "1.0",
    ".", "-", "e5", "_1", "1.5e", "1e+", "1d5", "1,5", "0x10", "\uff11", "\u0661.5",
    str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), "9" * 400,
    # int() refuses 4,300 digits or more, np.loadtxt reads leading zeros.
    pytest.param("9" * 5000, id="9x5000"), pytest.param("0" * 5000 + "7", id="0x5000+7"),
    pytest.param("-" + "0" * 5000, id="-0x5000"),
])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_array_and_field_paths_agree(spelling, dtype):
    """np.loadtxt, which parses each chunk, and the field-by-field check,
    which names what it rejects, accept the same spellings and read the
    same values."""
    try:
        [[value]] = corpus.parse_rows([spelling], 1, dtype=dtype)
    except ValueError:
        value = None
    try:
        field = corpus._check_field(spelling, 1, integer=dtype is np.int64)
    except ValueError:
        assert value is None
    else:
        assert value is not None and value == field
        # np.int64() too refuses 4,300 digits or more.
        assert len(spelling) > 4300 or value == dtype(spelling)
