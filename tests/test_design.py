"""Design rules of the package that no behaviour test shows: a layer
function states what it needs instead of falling back to a default
object, a sparse tensor and an embedding store are plain values that
hold no cache, coordinates are sorted by one key and a factorization's
input is converted in one place, a cosine is taken by one row kernel,
a dataset-level function is called once per dataset, the public API
is what the package itself calls, no file field is evaluated as
Python, and an option's default is the default of the setting it sets."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import preptensor
from conftest import make_store
from preptensor import cli
from preptensor.factorize import CooTensor, TrainingConfig
from preptensor.learn import FnnHyper, TreeParams

LAYERS = ("corpus", "factorize", "embeddings", "learn", "select", "attach")
# The names of a layer's __all__ that no code of the package calls, and
# why each is public all the same.
UNCALLED = {
    "factorize.cp_fit": "the benchmark's fit score of an ALS run",
    "embeddings.pair_similarity": "the test oracle of embeddings.row_pairs",
    "embeddings.triple_similarity": "the test oracle of embeddings.row_triples",
    "learn.fnn_loss_and_grads": "the gradient checks' entry to train_fnn's kernel",
}


# Functions that take a whole dataset or block, and so are never called
# once per row.
DATASET_FUNCTIONS = frozenset({"detection_features", "rank_preposition", "tree_predict"})

# Each option that sets a field of a layer's settings, and the field.
OPTION_FIELDS = [
    ("dim", TrainingConfig, "dim"),
    ("iters", TrainingConfig, "iterations"),
    ("ortho_iters", TrainingConfig, "ortho_iterations"),
    ("xmax", TrainingConfig, "x_max"),
    ("alpha", TrainingConfig, "alpha"),
    ("lr", TrainingConfig, "learning_rate"),
    ("seed", TrainingConfig, "seed"),
    ("seed", FnnHyper, "seed"),
    ("epochs", FnnHyper, "epochs"),
    ("batch", FnnHyper, "batch_size"),
    ("fnn_lr", FnnHyper, "learning_rate"),
    ("momentum", FnnHyper, "momentum"),
    ("max_depth", TreeParams, "max_depth"),
    ("min_leaf", TreeParams, "min_leaf"),
]


def _parameters(function: ast.FunctionDef):
    """(all parameter names, the names of those that default to None)."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaulted += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    names = {arg.arg for arg in positional + args.kwonlyargs}
    return names, {arg.arg for arg, default in defaulted
                   if isinstance(default, ast.Constant) and default.value is None}


def _reads(node, names) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))


def _is_none_test(test, params):
    """The parameter ``test`` compares with None and whether it is ``is``,
    or None when ``test`` is no such comparison."""
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id in params and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.id, isinstance(test.ops[0], ast.Is)
    return None


def _fallbacks(function: ast.FunctionDef) -> list[int]:
    """Lines where a parameter that defaults to None is replaced by a
    value that reads no parameter: ``x or Cls()``, ``Cls() if x is None
    else x`` or ``if x is None: x = Cls()``. A value computed from the
    other arguments, as a cache passed in or built here, is no default."""
    names, none = _parameters(function)
    lines = []
    for node in ast.walk(function):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            first, *rest = node.values
            if (isinstance(first, ast.Name) and first.id in none
                    and not any(_reads(value, names) for value in rest)):
                lines.append(node.lineno)
        elif isinstance(node, ast.IfExp) and (found := _is_none_test(node.test, none)):
            default = node.body if found[1] else node.orelse
            if not _reads(default, names):
                lines.append(node.lineno)
        elif isinstance(node, ast.If) and (found := _is_none_test(node.test, none)):
            if found[1] and any(
                    isinstance(stmt, ast.Assign) and not _reads(stmt.value, names)
                    and any(isinstance(t, ast.Name) and t.id == found[0]
                            for t in stmt.targets)
                    for stmt in node.body):
                lines.append(node.lineno)
    return lines


def _public_functions(module):
    """The ast of each function in ``module.__all__``, and of each method
    of a class in it, by qualified name."""
    tree = ast.parse(inspect.getsource(module))
    for node in tree.body:
        if getattr(node, "name", None) not in module.__all__:
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def test_the_fallback_detector_sees_the_forms_it_names():
    source = '''
def a(params=None):
    params = params or TreeParams()
def b(rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
def c(stoplist=None):
    stoplist = stoplist if stoplist is not None else context_stoplist()
def d(hyper=None):
    if hyper is None:
        hyper = FnnHyper()
def cache(sentences, token_ids=None):
    word = token_ids or _token_arrays(sentences)
def optional(init=None):
    if init is not None:
        return init
'''
    found = {f.name: _fallbacks(f) for f in ast.parse(source).body}
    assert found == {"a": [3], "b": [5], "c": [7], "d": [9], "cache": [], "optional": []}


def test_no_layer_function_falls_back_to_a_default_object():
    fallbacks = []
    for layer in LAYERS:
        module = importlib.import_module(f"preptensor.{layer}")
        for name, function in _public_functions(module):
            fallbacks += [f"{layer}.{name} line {line}" for line in _fallbacks(function)]
    assert fallbacks == []


def test_coo_tensor_is_a_plain_value():
    """The ALS unfoldings belong to one decomposition run, not to the
    tensor it factorizes."""
    assert [f.name for f in dataclasses.fields(CooTensor)] == [
        "i", "j", "k", "values", "dims"]


def test_no_lexicographic_sort_in_the_package():
    """Coordinates are sorted and summed as int64 keys, by one function."""
    found = []
    for path in sorted(Path(preptensor.__file__).parent.glob("*.py")):
        found += [f"{path.name} line {node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if getattr(node, "attr", getattr(node, "id", None)) == "lexsort"]
    assert found == []


def test_no_module_imports_ast():
    """A file's fields are parsed as numbers or compared with fixed tokens,
    never evaluated as Python literals."""
    found = []
    for path in sorted(Path(preptensor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name} line {node.lineno}" for name in names
                      if name.split(".")[0] == "ast"]
    assert found == []


def test_factorize_checks_tensor_types_in_one_function():
    """One function turns a factorization's input into its CooTensor."""
    tree = ast.parse(inspect.getsource(importlib.import_module("preptensor.factorize")))
    checking = sorted({function.name for function in ast.walk(tree)
                       if isinstance(function, ast.FunctionDef)
                       for node in ast.walk(function)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "isinstance"})
    assert checking == ["_as_coo"]


def test_cosines_are_computed_by_the_row_kernels_only():
    """Every cosine in ``embeddings`` comes from ``row_cosines``, which
    broadcasts over blocks: no other function takes a ``vecdot``."""
    tree = ast.parse(inspect.getsource(importlib.import_module("preptensor.embeddings")))
    taking = sorted({function.name for function in ast.walk(tree)
                     if isinstance(function, ast.FunctionDef)
                     for node in ast.walk(function)
                     if getattr(node, "attr", getattr(node, "id", None)) == "vecdot"})
    assert taking == ["row_cosines", "row_norms"]


def test_embedding_store_is_a_plain_value():
    """What ``emb.txt`` holds and its token index; a ranking keeps no
    roster rows with the store."""
    store = make_store({"on": [1.0, 0.0], "in": [0.0, 1.0]})
    assert set(vars(store)) == {"tokens", "matrix", "q_const", "index"}


def _calls_in_loops(tree: ast.AST, names) -> list[int]:
    """Lines that call one of ``names`` (bare or as an attribute) in the
    body of a loop or in a comprehension; the iterable of a ``for`` and
    the first iterable of a comprehension run once and do not count."""
    lines = []

    def visit(node, looped: bool):
        if looped and isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                lines.append(node.lineno)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.target, looped)
            visit(node.iter, looped)
            for stmt in node.body + node.orelse:
                visit(stmt, True)
        elif isinstance(node, ast.While):
            for child in [node.test, *node.body, *node.orelse]:
                visit(child, True)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            first = node.generators[0]
            visit(first.iter, looped)
            for child in ast.iter_child_nodes(node):
                if child is not first:
                    visit(child, True)
            for child in [first.target, *first.ifs]:
                visit(child, True)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, looped)

    visit(tree, False)
    return sorted(lines)


def test_the_loop_scan_sees_loops_and_comprehensions():
    source = '''
rows = tree_predict(tree, block)
for row in tree_predict(tree, block):
    ops.rank_preposition(m, o, s, r)
while pending:
    detection_features(d, s, t, w, l)
[tree_predict(tree, row) for row in rows]
[x for x in tree_predict(tree, rows) if tree_predict(tree, x)]
{k: v for k in ks for v in tree_predict(t, k)}
other(tree_predict)
'''
    assert _calls_in_loops(ast.parse(source), DATASET_FUNCTIONS) == [4, 6, 7, 8, 9]


def test_dataset_functions_are_not_called_per_row():
    """Detection, ranking and tree prediction take a whole dataset: no
    package code calls them inside a loop or a comprehension."""
    found = []
    for path in sorted(Path(preptensor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name} line {line}"
                  for line in _calls_in_loops(tree, DATASET_FUNCTIONS)]
    assert found == []


def _references(tree: ast.Module, outside: str | None = None) -> set[str]:
    """The names ``tree`` reads as code, bare or as an attribute, outside
    the top-level definition of ``outside``. A string, a docstring or an
    entry of ``__all__`` is no reference."""
    names = set()
    for node in tree.body:
        if getattr(node, "name", None) == outside:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_the_reference_scan_skips_definitions_and_strings():
    tree = ast.parse('''
__all__ = ["a", "b", "c"]
def a():
    """Calls b()."""
    return a()
def b():
    return obj.c
''')
    assert _references(tree, "a") == {"obj", "c"}
    assert _references(tree, "b") == {"a"}


def test_every_public_name_is_called_in_the_package():
    """A function that only tests call lives in the tests."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(preptensor.__file__).parent.glob("*.py")}
    uncalled = []
    for layer in LAYERS:
        for name in importlib.import_module(f"preptensor.{layer}").__all__:
            if not any(name in _references(tree, name if stem == layer else None)
                       for stem, tree in trees.items()):
                uncalled.append(f"{layer}.{name}")
    extra = sorted(set(uncalled) - set(UNCALLED))
    assert extra == [], f"public, but no code of the package calls {extra}"
    assert set(UNCALLED) <= set(uncalled), "an allow-listed name is called now"


def test_the_package_re_exports_no_layer_name():
    """Callers import the layer modules."""
    public = {name for layer in LAYERS
              for name in importlib.import_module(f"preptensor.{layer}").__all__}
    bound = sorted(public & set(vars(preptensor)))
    assert bound == [], f"the package re-exports {bound}"


def test_each_option_defaults_to_its_field():
    """A changed default reaches the command line and the library at once."""
    for key, settings, name in OPTION_FIELDS:
        [default] = [f.default for f in dataclasses.fields(settings) if f.name == name]
        assert cli.OPTIONS[key][1] == default, f"--{key} and {settings.__name__}.{name}"
