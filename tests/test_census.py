"""Settings census: every parameter with a default under src/ecgkit must be
passed by some caller in src/ or bench/, no module there imports another
module's underscore names, and only artifacts.py writes files or parses
JSON.

A default that no caller overrides is a setting with one value in use and
belongs in a module constant.  Calls are resolved by the function or class
name they end in (``cls(...)`` inside a class names that class), so a call
passes a parameter when it names it, reaches its position, or spreads
*args or **kwargs.  Dataclass fields with defaults count as constructor
parameters, and a store to an attribute of the field's name sets one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecgkit"
CALLERS = (ROOT / "src", ROOT / "bench")

# (module, callable, parameter) -> why its default stays unpassed
ALLOWED = {
    ("tensor", "RunningStats", "dtype"):
        "float64 buffers for the gradient-check suite",
    ("wfdb_io", "write_record", "sampling_rate"):
        "fixture writer; its callers are record generators and tests",
    ("wfdb_io", "write_record", "gain"): "fixture writer, as above",
    ("wfdb_io", "write_record", "adc_zero"): "fixture writer, as above",
    ("metrics", "evaluate_predictions", "n_classes"):
        "the metric reference cases run at 2 and 3 classes",
}

_EVERYTHING = frozenset(["*"])


def _signature(func, bound):
    """(positional names, defaulted names) of a def; bound drops self/cls."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional[1:] if bound else positional, defaulted


def _is_dataclass(node):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def definitions():
    """(module, callable, positional names, defaulted names, is dataclass)
    for every def and dataclass in the package; __init__ registers under
    its class name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                found.append((path.stem, node.name,
                              [f.target.id for f in fields],
                              [f.target.id for f in fields if f.value],
                              True))
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    found.append((path.stem, name,
                                  *_signature(item, not static), False))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node not in methods:
                found.append((path.stem, node.name,
                              *_signature(node, False), False))
    return found


def _calls_in(scope, enclosing_class):
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        if name == "cls" and enclosing_class is not None:
            name = enclosing_class
        spread = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, (float("inf") if spread else len(node.args),
                     _EVERYTHING if None in keywords else keywords)


def usage():
    """({callable: [(positional count, keyword names)]}, stored attribute
    names) over every file in src/ and bench/."""
    calls, stored = {}, set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            scopes = [(tree, None)] + [(n, n.name) for n in ast.walk(tree)
                                       if isinstance(n, ast.ClassDef)]
            for scope, enclosing in scopes:
                for name, passed in _calls_in(scope, enclosing):
                    calls.setdefault(name, []).append(passed)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
    return calls, stored


def unpassed_defaults():
    """Sorted (module, callable, parameter) whose default no caller
    overrides."""
    calls, stored = usage()
    unpassed = set()
    for module, name, positional, defaulted, fields in definitions():
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            passed = (fields and param in stored) or any(
                keywords is _EVERYTHING or param in keywords
                or (index is not None and n_pos > index)
                for n_pos, keywords in calls.get(name, []))
            if not passed:
                unpassed.add((module, name, param))
    return sorted(unpassed)


def test_every_default_is_passed_by_some_caller():
    unpassed = [entry for entry in unpassed_defaults()
                if entry not in ALLOWED]
    assert not unpassed, (
        "defaults no caller in src/ or bench/ overrides; make each a "
        "constant, or allow-list it with a reason: "
        + ", ".join(f"{m}.{c}({p}=)" for m, c, p in unpassed))


def test_allow_list_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - set(unpassed_defaults()))
    assert not stale, f"allow-listed defaults a caller now passes: {stale}"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports():
    """Sorted (module, imported name) for every underscore name a package
    module imports from another."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found.update((path.stem, alias.name) for alias in node.names
                             if _is_private(alias.name))
    return sorted(found)


def test_no_module_imports_another_modules_private_names():
    found = private_imports()
    assert not found, (
        "a module's underscore names are its own; make the name public or "
        "move the code: " + ", ".join(f"{m} imports {n}" for m, n in found))


# (module, function) -> why it writes files without artifacts.atomic_open
DIRECT_WRITERS = {
    ("wfdb_io", "write_record"):
        "fixture writer that bench/synth.py and the tests import; no "
        "pipeline stage writes WFDB records",
}

_WRITE_CALLS = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _writes(call):
    """The call opens a file for writing or makes a directory; an open()
    whose mode is not a literal counts as a write."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        getattr(func, "attr", None)
    if name in _WRITE_CALLS:
        return True
    if name != "open":
        return False
    # open(file, mode) or path.open(mode)
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _package_nodes():
    """(module, innermost enclosing def, node) for every syntax node of
    the package outside artifacts.py."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "artifacts":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):  # outer defs first, inner ones override
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            yield path.stem, owner.get(id(node), "<module>"), node


def direct_writes():
    """Sorted (module, innermost enclosing def) for every write call in the
    package outside artifacts.py."""
    return sorted({(module, owner) for module, owner, node in _package_nodes()
                   if isinstance(node, ast.Call) and _writes(node)})


def test_every_artifact_write_goes_through_atomic_open():
    found = direct_writes()
    unlisted = [entry for entry in found if entry not in DIRECT_WRITERS]
    assert not unlisted, (
        "write files through artifacts.atomic_open or write_json, so a "
        "failed run leaves the earlier file and no partial one: "
        + ", ".join(f"{m}.{f}" for m, f in unlisted))
    stale = sorted(set(DIRECT_WRITERS) - set(found))
    assert not stale, f"allow-listed writers that no longer write: {stale}"


_JSON_READS = {"load", "loads"}


def _reads_json(node):
    """node calls json.load or json.loads, or imports either by name."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and \
            any(alias.name in _JSON_READS for alias in node.names)
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and func.attr in _JSON_READS \
        and getattr(func.value, "id", None) == "json"


def test_every_json_read_goes_through_artifacts():
    found = sorted({(module, owner) for module, owner, node
                    in _package_nodes() if _reads_json(node)})
    assert not found, (
        "read JSON documents through artifacts.parse_json and check them "
        "with artifacts.json_fields, so every reader decodes UTF-8 and "
        "refuses unknown keys, wrong types and non-finite numbers alike: "
        + ", ".join(f"{m}.{f}" for m, f in found))
