"""The reference stays apart from the code it checks.

``bench/oracle.py`` computes the values the tests and the benchmark compare
against; if it imported sqkd, a fault in sqkd could also move the reference.
The package itself needs nothing beyond the standard library and numpy.
"""

import ast
import pathlib
import sys

from sqkd import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_modules(path):
    """Every module an import statement in the file names, relative ones with their dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracle_imports_nothing_from_sqkd():
    names = list(imported_modules(ROOT / "bench" / "oracle.py"))
    assert "numpy" in names
    assert [name for name in names if name.split(".")[0] == "sqkd" or name.startswith(".")] == []


def test_src_imports_neither_the_oracle_nor_the_tests():
    sources = sorted((ROOT / "src" / "sqkd").glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top not in ("oracle", "bench", "tests", "conftest") and not top.startswith("test_"), (path.name, name)


def test_src_imports_only_the_standard_library_numpy_and_itself():
    # a speed-up must not bring in a compiled dependency
    for path in sorted((ROOT / "src" / "sqkd").glob("*.py")):
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert name.startswith(".") or top in ("numpy", "sqkd") or top in sys.stdlib_module_names, (path.name, name)


def top_level_names(tree):
    """The names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_top_level_name_in_src_has_a_caller():
    # a name counts as used where its own module loads it, or where another
    # file imports it from that module or reads it as an attribute of the module
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "sqkd").glob("*.py")}
    others = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "scripts").glob("*.py")]
    used = set()
    for stem, tree in [*modules.items(), *((None, tree) for tree in others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((stem, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                used.update((node.module.split(".")[-1], alias.name) for alias in node.names)
    dead = [(stem, name) for stem, tree in modules.items() for name in top_level_names(tree)
            if not (name.startswith("__") and name.endswith("__")) and (stem, name) not in used]
    assert len(modules) > 1
    assert dead == []


def public_methods(tree):
    """The (class, name) of every public method and property a module's classes define."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield node.name, item.name


def test_every_public_method_in_src_has_a_caller():
    # a method or property counts as used where src/sqkd or scripts/ read an
    # attribute of its name, on any object
    paths = [*(ROOT / "src" / "sqkd").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    methods = [(path.stem, *method) for path, tree in trees.items() if path.parent.name == "sqkd"
               for method in public_methods(tree)]
    assert {"n_rounds", "summary_items", "to_csv"} <= {method[2] for method in methods}
    assert [method for method in methods if method[2] not in read] == []


def dataclass_fields(name):
    """The annotated fields of the class ``name`` in ``sqkd.protocol``."""
    tree = ast.parse((ROOT / "src" / "sqkd" / "protocol.py").read_text(encoding="utf-8"))
    [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name]
    return [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]


def test_every_protocol_config_field_is_set_by_simulate():
    # a knob only tests set would be a branch of the simulator no command runs
    tree = ast.parse((ROOT / "src" / "sqkd" / "cli.py").read_text(encoding="utf-8"))
    [simulate] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "cmd_simulate"]
    [call] = [node for node in ast.walk(simulate)
              if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ProtocolConfig")]
    fields = dataclass_fields("ProtocolConfig")
    assert fields[:2] == ["n", "seed"]
    assert call.args == [] and sorted(k.arg for k in call.keywords) == sorted(fields)


def test_every_parsed_option_is_read():
    # an option that cli.py never reads as args.<dest> is a flag that changes nothing
    tree = ast.parse((ROOT / "src" / "sqkd" / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args" and isinstance(node.ctx, ast.Load)}
    options = [(command, action.dest) for command, parser in cli.build_parser().commands.items()
               for action in parser._actions if action.dest != "help"]
    assert len(options) > 15
    assert [option for option in options if option[1] not in read] == []


def test_every_protocol_transcript_field_is_read():
    # a field counts as read where src/sqkd or scripts/ read an attribute of its name, on any object
    paths = [*(ROOT / "src" / "sqkd").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = dataclass_fields("ProtocolTranscript")
    assert "cells" in fields
    assert [field for field in fields if field not in read] == []


def nodes_with_owner(tree):
    """Every node of a module with the name of the innermost function around it, None at module level."""

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        yield node, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def src_nodes():
    """(module, owner, node) of every node in src/sqkd, as ``nodes_with_owner`` gives them."""
    for path in sorted((ROOT / "src" / "sqkd").glob("*.py")):
        for node, owner in nodes_with_owner(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.stem, owner, node


def test_fragment_overlaps_are_taken_only_by_the_round_law():
    # the physics of a round lives in one function; the unitarity check of an
    # attack is the only other reader of the fragments' inner products
    owners = {(stem, owner) for stem, owner, node in src_nodes()
              if isinstance(node, ast.Attribute) and node.attr == "vdot"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")}
    assert owners == {("attacks", "attack_deviations"), ("attacks", "cell_probabilities")}


def test_the_cell_map_is_read_only_by_the_exact_and_the_estimated_statistics():
    # a run's estimates are computed once, in run_protocol, and every other
    # reader takes them from the transcript
    owners = {(stem, owner) for stem, owner, node in src_nodes()
              if isinstance(node, ast.Name) and node.id in ("_COUNTED", "_CLASS") and isinstance(node.ctx, ast.Load)}
    assert owners == {("attacks", "compute_statistics"), ("protocol", "run_protocol")}


def test_a_runs_bound_has_one_path():
    # run_protocol takes the bound at a run's estimates and decides the abort
    # from it; simulate prints the transcript's report and takes no bound of its own
    callers = {(stem, owner) for stem, owner, node in src_nodes()
               if isinstance(node, ast.Call) and "key_rate_bound" in (getattr(node.func, "id", None),
                                                                     getattr(node.func, "attr", None))}
    assert callers == {("cli", "cmd_bound"), ("cli", "cmd_sweep"), ("protocol", "run_protocol")}


def test_no_print_in_src_writes_to_stdout():
    # a command returns (key, value) pairs; only messages to stderr are printed
    prints = [(stem, owner, node) for stem, owner, node in src_nodes()
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert len(prints) > 1  # the error messages of the parser and of main
    assert [(stem, owner) for stem, owner, node in prints if not any(k.arg == "file" for k in node.keywords)] == []


def test_stdout_is_written_only_by_main():
    # cli.main renders the pairs of every command once, with fileio.kv_text
    writers = {(stem, owner) for stem, owner, node in src_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "write" and ast.unparse(node.value) == "sys.stdout"}
    assert writers == {("cli", "main")}


def test_key_value_files_are_read_and_checked_only_by_read_kv_lines():
    # one reader owns the input format: every other open writes a file, and
    # the faults of a file's key set are worded in one place
    opens = [(stem, owner, node) for stem, owner, node in src_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]
    readers = [(stem, owner) for stem, owner, node in opens
               if [arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant)] != ["wb"]]
    assert len(opens) > 1
    assert readers == [("fileio", "read_kv_lines")]
    phrases = ("unknown key", "duplicate key", "missing key")
    holders = {stem for stem, owner, node in src_nodes()
               if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(p in node.value for p in phrases)}
    assert holders == {"fileio"}


def test_the_bound_kernel_has_no_per_element_python_loop():
    # sweep is bound by numpy's vector loops: the kernel and every function of
    # keyrate it calls, directly or not, hold no Python loop and no libm call
    tree = ast.parse((ROOT / "src" / "sqkd" / "keyrate.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kernel, todo = set(), ["key_rate_bound"]
    while todo:
        name = todo.pop()
        if name not in kernel:
            kernel.add(name)
            todo += [node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name) and node.id in functions]
    assert {"key_rate_bound", "_entropy", "_lambda", "_overlap_bound"} <= kernel
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for name in sorted(kernel):
        for node in ast.walk(functions[name]):
            text = ast.unparse(node) if isinstance(node, (ast.Name, ast.Attribute)) else ""
            if (isinstance(node, loops) or text in ("map", "np.fromiter", "np.vectorize", "np.frompyfunc")
                    or text.startswith("math.")):
                found.append((name, type(node).__name__, text))
    assert found == []


def constant_text(node):
    """The source of a literal or of an upper-case module name, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        node = node.operand
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return ast.unparse(node) if isinstance(node, ast.Constant) or name.isupper() else None


def passed_arguments(call, function):
    """The expression a call passes to each parameter of a function, or the default it leaves in place."""
    arguments = function.args
    params = [arg.arg for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]]
    positional = len(arguments.posonlyargs) + len(arguments.args)
    defaults = [None] * (positional - len(arguments.defaults)) + arguments.defaults + arguments.kw_defaults
    passed = dict(zip(params, defaults))
    passed.update(zip(params, call.args))
    passed.update((keyword.arg, keyword.value) for keyword in call.keywords)
    return passed


def test_no_call_in_src_splats_into_a_private_function():
    # a starred argument hides which parameter each value fills, so the check
    # below cannot match it to the parameters and skips the function
    splats = []
    for path in sorted((ROOT / "src" / "sqkd").glob("*.py")):
        calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)]
        for call in calls:
            name = getattr(call.func, "id", getattr(call.func, "attr", ""))
            private = name.startswith("_") and not name.endswith("__")
            if private and (any(isinstance(arg, ast.Starred) for arg in call.args)
                            or any(keyword.arg is None for keyword in call.keywords)):
                splats.append((path.name, call.lineno, name))
    assert splats == []


def test_no_private_function_takes_the_same_constant_at_every_call():
    # a parameter that every caller fills with one constant states that
    # constant once per call site; the function should hold it instead
    sources = sorted((ROOT / "src" / "sqkd").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in [*sources, *(ROOT / "scripts").glob("*.py")]]
    functions = {node.name: node for tree in trees[:len(sources)] for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__")}
    calls = {name: [] for name in functions}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            calls.get(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)
    assert len(functions) > 5
    constant = []
    for name, function in functions.items():
        sites = calls[name]
        if len(sites) < 2 or any(isinstance(arg, ast.Starred) for call in sites for arg in call.args) \
                or any(keyword.arg is None for call in sites for keyword in call.keywords):
            continue  # a lone caller, or arguments this check cannot match to parameters
        passed = [passed_arguments(call, function) for call in sites]
        for param in passed[0]:
            values = {constant_text(arguments[param]) for arguments in passed}
            if len(values) == 1 and None not in values:
                constant.append((name, param, values.pop()))
    assert constant == []
