"""Static checks over the package source: no unused imports, no private name taken from
another module (a motifkit one, the standard library or any other library), no
module-level name that only the tests read (the package's modules, the demos, the
benchmark and the acceptance tests count; `__init__.py` holds only the version), no
numpy import that loads with a module other than analysis and classifiers, no
function that calls itself without a stated bound on its depth, one copy of the rule
that puts exact values on integers, one of the rule that keeps integral values as ints,
one caller of the indenting JSON encoder, one function that asks for the smoothing
kernel and applies it, one that finds zero crossings, one count of a discovery grid's
temporal window, one heap in discovery (the best-first walk), one CLI reader that
exits on pattern files of two pieces, one coding of class labels in the classifiers
and one in cross-validation, no CLI handler that tests an optional flag's value for
truth, one CLI function that writes files and prints, and no default, of a parameter
or of a dataclass or NamedTuple field, that only the tests override."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "motifkit"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
MODULES = sorted(name for name in TREES if name != "__init__.py")

# The functions allowed to call themselves, each with why its depth stays small.
RECURSIVE: dict[str, str] = {}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, and every attribute it reads off an object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = TREES[module]
    used = _loaded_names(tree)
    unused = [name for node in ast.walk(tree) for name in _imported(node) if name not in used]
    assert not unused, f"{module} imports {unused} and never uses them"


def _private_names_taken(tree: ast.AST) -> list[str]:
    """`module._name` for each private name the tree imports from a module, or reads off an
    imported module: a motifkit one or any other, the standard library's included."""
    modules = {}  # local name -> module, for `import argparse` and `from motifkit import core`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if node.module == "motifkit":
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append(f"{node.module.rpartition('.')[2]}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_from_another_module(module):
    """A rule two modules share is public in one of them, not copied or reached into, and
    no module leans on another library's internals."""
    found = _private_names_taken(TREES[module])
    assert not found, f"{module} takes the private names {found} from other modules"


# Where a name counts as used: the package's modules (not `__init__.py`, which holds
# only the version), the demos, the benchmark and the acceptance tests.
USERS = [
    *(PACKAGE / module for module in MODULES),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _wrapped_attributes(tree: ast.AST) -> set[str]:
    """The attribute strings of a `WRAPPED` table, which the tracer looks up with `getattr`."""
    return {
        row.elts[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
        for row in node.value.elts
    }


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_name_is_referenced(module):
    referenced = set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _loaded_names(tree) | _wrapped_attributes(tree)
        referenced |= {name for node in ast.walk(tree) for name in _imported(node)}
    dead = [
        name
        for node in TREES[module].body
        for name in _defined(node)
        if name not in referenced and not name.startswith("__")
    ]
    assert not dead, f"{module} defines {dead} and only the tests reference them"


# The modules that load numpy when they are imported, directly or through another motifkit
# module.  polling imports it in the functions that smooth, and cli imports analysis in
# the commands that use it, so synth, discover and eval-boundaries never load numpy.
NUMPY_AT_IMPORT = {"motifkit.analysis", "motifkit.classifiers"}


def _imported_at_load(tree: ast.AST) -> set[str]:
    """The modules that the imports outside every function of a module name, with each
    motifkit module that `from motifkit import <module>` names."""
    found, todo = set(), list(ast.iter_child_nodes(tree))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            if node.module == "motifkit":
                found |= {f"motifkit.{alias.name}" for alias in node.names}
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_numpy_loads_only_with_the_modules_that_use_it_at_import():
    # every module loads the package, `__init__.py`, first
    loads = {
        f"motifkit.{name[:-3]}".removesuffix(".__init__"): _imported_at_load(tree) | {"motifkit"}
        for name, tree in TREES.items()
    }
    numpy = {module for module, names in loads.items() if any(n.partition(".")[0] == "numpy" for n in names)}
    for _ in loads:  # a chain of motifkit imports is at most as long as the package
        numpy |= {module for module, names in loads.items() if names & numpy}
    assert numpy == NUMPY_AT_IMPORT, f"{sorted(numpy)} load numpy when imported, not {sorted(NUMPY_AT_IMPORT)}"


def _calls_itself(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body calls the function's own name, bare or as `self.<name>`."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == function.name:
            return True
        if isinstance(f, ast.Attribute) and f.attr == function.name:
            if isinstance(f.value, ast.Name) and f.value.id == "self":
                return True
    return False


def _recursive(node: ast.AST, path: str) -> list[str]:
    """Dotted names (module, classes, enclosing functions) of the functions that call themselves."""
    found = []
    for child in ast.iter_child_nodes(node):
        name = path
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{path}.{child.name}"
            if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                found.append(name)
        found += _recursive(child, name)
    return found


def test_recursion_only_with_a_depth_bound():
    """Recursion as deep as an input is long ends in RecursionError, so each self-call is listed."""
    found = {name for module in MODULES for name in _recursive(TREES[module], module[:-3])}
    assert found <= set(RECURSIVE), f"{sorted(found - set(RECURSIVE))} call themselves"
    assert set(RECURSIVE) <= found, f"{sorted(set(RECURSIVE) - found)} no longer call themselves"


# The one function that puts exact values on integers over their least common denominator.
RESCALER = "core.over_common_denominator"


def _scoped(node: ast.AST, path: str):
    """Every node under `node`, with the dotted name of its innermost enclosing class or function."""
    for child in ast.iter_child_nodes(node):
        name = path
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{path}.{child.name}"
        yield name, child
        yield from _scoped(child, name)


def _lcm_of_denominators(node: ast.AST) -> bool:
    """Whether `node` calls `lcm` on arguments that read a `.denominator`."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if not (isinstance(f, ast.Attribute) and f.attr == "lcm" or isinstance(f, ast.Name) and f.id == "lcm"):
        return False
    return any(
        isinstance(n, ast.Attribute) and n.attr == "denominator"
        for arg in node.args
        for n in ast.walk(arg)
    )


def test_one_rule_puts_fractions_on_integers():
    """Discovery, polling and smoothing reach integers through the one core function."""
    found = {
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _lcm_of_denominators(node)
    }
    assert found == {RESCALER}, f"{sorted(found)} take an lcm of denominators, not just {RESCALER}"


# The one function that keeps an integral exact value as an int.
INTEGRAL_AS_INT = "core.as_time"


def _integral_as_int(node: ast.AST) -> bool:
    """Whether `node` is `x.numerator if x.denominator == 1 else x` (or the `!=` form)."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)):
        return False
    test = node.test
    if len(test.ops) != 1 or not isinstance(test.ops[0], (ast.Eq, ast.NotEq)):
        return False
    numerator, other = node.body, node.orelse
    if isinstance(test.ops[0], ast.NotEq):
        numerator, other = other, numerator
    sides = [test.left, test.comparators[0]]
    one = [n for n in sides if isinstance(n, ast.Constant) and n.value == 1]
    den = [n for n in sides if isinstance(n, ast.Attribute) and n.attr == "denominator"]
    if not (one and den and isinstance(numerator, ast.Attribute) and numerator.attr == "numerator"):
        return False
    return ast.dump(numerator.value) == ast.dump(den[0].value) == ast.dump(other)


def test_one_function_keeps_integral_values_as_ints():
    """Times reach their one form through the one core function, not a module's own int shadow."""
    found = [
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _integral_as_int(node)
    ]
    assert found == [INTEGRAL_AS_INT], f"{found} keep integral values as ints, not only {INTEGRAL_AS_INT}"


# The one function that may hand `json.dumps` an indent: its pure-Python encoder is
# slow, and the interchange emitter writes the indented layout directly.
INDENTED_JSON = "cli._json_text"


def _name(node: ast.AST) -> str | None:
    """The name `node` ends in, bare or as an attribute."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _calls(node: ast.AST, name: str) -> bool:
    """Whether `node` calls `name`, bare or as an attribute."""
    return isinstance(node, ast.Call) and _name(node.func) == name


def _indented_dumps(node: ast.AST) -> bool:
    """Whether `node` calls `json.dumps` (or a bare `dumps`) with an `indent` keyword."""
    return _calls(node, "dumps") and any(kw.arg == "indent" for kw in node.keywords)


def test_one_function_indents_json():
    found = {
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _indented_dumps(node)
    }
    assert found == {INDENTED_JSON}, f"{sorted(found)} indent json.dumps, not just {INDENTED_JSON}"


# The one function that asks for a smoothing kernel: savgol_smooth and boundary
# extraction share one edge rule, so they share the one call that pads and fits.
KERNEL_CALLER = "polling._smooth"


def test_one_function_asks_for_a_smoothing_kernel():
    found = [
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _calls(node, "_fit_weights")
    ]
    assert found == [KERNEL_CALLER], f"{found} call _fit_weights, not only {KERNEL_CALLER} once"


def test_one_function_convolves():
    """The kernel is applied where it is asked for, so a second smoothing rule cannot hide."""
    found = [
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _calls(node, "convolve")
    ]
    assert found == [KERNEL_CALLER], f"{found} call convolve, not only {KERNEL_CALLER} once"


# The one function that finds zero crossings: every kernel's differences and their
# crossings come from one array scan, so a second crossing rule cannot come back.
CROSSING_FINDER = "polling._signals"


def test_one_function_finds_crossings():
    found = {
        name
        for name, node in _scoped(TREES["polling.py"], "polling")
        if _calls(node, "diff") or _calls(node, "nonzero")
    }
    assert found == {CROSSING_FINDER}, f"{sorted(found)} call diff or nonzero, not only {CROSSING_FINDER}"


# The functions that read a discovery grid's onset index (`_Grid.first`, `_Grid.stop`):
# the one that builds it, the one window count, and the compact-segment scan that
# inlines that count.  `_Grid` is private to discovery, so only discovery can read it.
WINDOW_READERS = {"discovery._Grid._index", "discovery._Grid.window", "discovery._segments"}


def test_one_window_count():
    """Compactness has one rule, so a second count of a pattern's window cannot come back."""
    found = {
        name
        for name, node in _scoped(TREES["discovery.py"], "discovery")
        if isinstance(node, ast.Attribute) and node.attr in ("first", "stop")
    }
    assert found == WINDOW_READERS, f"{sorted(found)} read a grid's first or stop"


# The one function in discovery that keeps a heap: the best-first walk through which
# COSIATEC and SIATECCompress both rank their TECs.
HEAP_KEEPERS = {"discovery._best_first"}


def test_one_best_first_walk():
    """TECs are ranked by one exact walk, so a second heap of candidates cannot come back."""
    found = {
        name
        for name, node in _scoped(TREES["discovery.py"], "discovery")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "heapq"
        or isinstance(node, ast.ImportFrom) and node.module == "heapq"
    }
    assert found == HEAP_KEEPERS, f"{sorted(found)} call heapq, not only the walk"


# The one function that exits 4 on pattern files naming two pieces: poll, train-pp,
# eval-boundaries and features read their pattern files through it.
PIECE_ID_CHECKER = "cli._pattern_files"


def test_one_function_checks_piece_ids():
    found = {
        name
        for name, node in _scoped(TREES["cli.py"], "cli")
        if isinstance(node, ast.Name) and node.id == "EXIT_INCONSISTENT" and isinstance(node.ctx, ast.Load)
    }
    assert found == {PIECE_ID_CHECKER}, f"{sorted(found)} read EXIT_INCONSISTENT, not only {PIECE_ID_CHECKER}"



# The functions that give class labels integer codes: the classifiers' one reader of X
# and y, and cross-validation, whose balancing, folds and confusion counts run on its codes.
LABEL_CODERS = ["analysis.cross_validate", "classifiers._as_arrays"]


def test_labels_coded_once():
    """A second coding of the labels, with its own class order, cannot come back."""
    found = sorted(
        name
        for module in MODULES
        for name, node in _scoped(TREES[module], module[:-3])
        if _calls(node, "unique") and any(kw.arg == "return_inverse" for kw in node.keywords)
    )
    assert found == LABEL_CODERS, f"{found} code labels with np.unique, not only {LABEL_CODERS} once each"

# The one function that writes the CLI's files and prints its lines: each handler
# returns its outputs, so every target is checked before any file is written.
CLI_WRITER = "cli.main"


def test_only_main_writes_or_prints():
    found = {
        name
        for name, node in _scoped(TREES["cli.py"], "cli")
        if _calls(node, "_atomic_write") or _calls(node, "print")
    }
    assert found == {CLI_WRITER}, f"{sorted(found - {CLI_WRITER})} write or print, not only {CLI_WRITER}"


def _optional_flags() -> set[str]:
    """The destinations of the CLI's single-value flags whose table default is None."""
    from motifkit import cli

    return {
        cli._dest(flag, keywords)
        for _, flags in cli._COMMANDS.values()
        for flag, keywords in flags.items()
        if "default" in keywords and keywords["default"] is None
        and "nargs" not in keywords and "action" not in keywords
    }


def _truth_tested(node: ast.AST) -> list[ast.AST]:
    """The expressions `node` tests for truth: an if, while, assert or conditional
    expression's test, an and/or operand, a not's operand, a comprehension's condition."""
    if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        return [node.test]
    if isinstance(node, ast.BoolOp):
        return node.values
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [node.operand]
    return node.ifs if isinstance(node, ast.comprehension) else []


def test_no_optional_flag_tested_for_truth():
    """A handler tells an optional flag left out by `is None`, so an empty value given
    reaches its reader and fails there, not as the flag's absence."""
    optional = _optional_flags()
    found = {
        name
        for name, node in _scoped(TREES["cli.py"], "cli")
        for test in _truth_tested(node)
        if isinstance(test, ast.Attribute) and isinstance(test.value, ast.Name)
        and test.value.id == "args" and test.attr in optional
    }
    assert not found, f"{sorted(found)} test an optional flag's value for truth, not `is None`"


# Where a default's callers live: the package, the demos and the benchmark, not the tests.
CALLERS = [ROOT / "src" / "motifkit", ROOT / "demos", ROOT / "perfbench"]

# The defaults only the tests set, each with why it stays.
TEST_SET_DEFAULTS = {
    "SynthConfig(templates)": "the fractional-template property tests plant other templates,"
    " and synthesis with user templates (ROADMAP item 6) builds on it",
    "SynthConfig(pitch_range)": "every synth <name>.config.json holds \"pitch_range\": null,"
    " a golden byte: removing the field changes the format, which belongs to ROADMAP item 6",
}


def _fields(cls: ast.ClassDef) -> list[tuple[str, bool]]:
    """(field, whether it has a default) of each constructor parameter of a dataclass or
    NamedTuple, in order; a plain class, and an `init=False` field, have none."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(_name(d) == "dataclass" for d in decorators) and not any(
        _name(b) == "NamedTuple" for b in cls.bases
    ):
        return []
    fields = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            fields.append((node.target.id, "default" in keywords or "default_factory" in keywords))
        else:
            fields.append((node.target.id, value is not None))
    return fields


def _defaulted(node: ast.AST, cls: str | None = None):
    """(called name, parameter, position or None) of each defaulted parameter under `node`.

    A method's position does not count `self` or `cls`, and `__init__` is called by its
    class's name, as is a dataclass or NamedTuple for its fields; a keyword-only
    parameter has no position.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for i, (field, defaulted) in enumerate(_fields(child)):
                if defaulted:
                    yield child.name, field, i
            yield from _defaulted(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            name = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, arg.arg, i - (cls is not None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None
            yield from _defaulted(child)
        else:
            yield from _defaulted(child, cls)


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` passes `param`, by keyword or at its position."""
    if any(kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _named_calls(node: ast.AST, owner: str | None = None, cls: str | None = None):
    """(called name, call) of each call under `node`, the name bare or as an attribute.

    `owner` is the class whose body holds `node`, and `cls` the class that `cls` names
    in the classmethod that holds it: a `cls(...)` call there calls that class.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _named_calls(child, child.name)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_classmethod = any(_name(d) == "classmethod" for d in child.decorator_list)
            yield from _named_calls(child, None, owner if in_classmethod else cls)
            continue
        if isinstance(child, ast.Call):
            name = _name(child.func)
            yield (cls if name == "cls" and cls else name), child
        yield from _named_calls(child, owner, cls)


def test_every_default_has_a_caller():
    """Each settable value is set by a caller outside the tests, or it is not an option."""
    calls = [
        named
        for path in sorted(p for d in CALLERS for p in d.glob("*.py"))
        for named in _named_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    unpassed = {
        f"{name}({param})"
        for module in MODULES
        for name, param, position in _defaulted(TREES[module])
        if not any(called == name and _passes(call, param, position) for called, call in calls)
    }
    listed = set(TEST_SET_DEFAULTS)
    assert unpassed <= listed, f"{sorted(unpassed - listed)} are never passed outside the tests"
    assert listed <= unpassed, f"{sorted(listed - unpassed)} are now passed outside the tests"
