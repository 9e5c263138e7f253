"""Checks over the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prosk"


def test_no_assert_statements_in_library():
    # `assert` vanishes under python -O; runtime invariants raise
    # InvariantViolated and argument checks raise UsageError instead, and
    # the scripts report a failed check on stderr with exit code 1
    found = []
    files = sorted(SRC.rglob("*.py"))
    scripts = sorted((SRC.parent.parent / "scripts").rglob("*.py"))
    assert files and scripts
    for path in files + scripts:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/prosk or scripts: {found}"


def _callee(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_every_keyword_only_parameter_has_a_caller():
    # a keyword-only knob that no call passes by keyword is dead weight: each
    # one must be set by name somewhere in the library, tests, scripts or
    # benchmark.  Calls are matched by callee name (a class name stands for
    # its __init__), so this errs towards finding a caller.
    root = SRC.parent.parent
    passed = set()
    for path in sorted(p for d in ("src", "tests", "scripts", "perfbench")
                       for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        passed |= {(_callee(node), kw.arg) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) for kw in node.keywords}
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inits = {f: node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for f in node.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = inits.get(node, node.name)
                unused += [f"{path.name}:{name}({a.arg})"
                           for a in node.args.kwonlyargs
                           if (name, a.arg) not in passed]
    assert not unused, f"keyword-only parameters no caller sets: {unused}"


def test_bfs_engine_leaves_the_layout_to_the_ops():
    # the group facades pick a stack's layout, product and keys; the engine
    # names no element type, series arithmetic or backend of its own
    tree = ast.parse((SRC / "_bfs.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").split(".")[-1]}
            imported |= {a.name for a in node.names}
    assert not imported & {"nottingham", "series_context", "FilteredElement"}
    classes = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    assert not [c for c in classes if "Backend" in c], classes


# written once on BatchOps; neither group facade redefines them
_SHARED_ELEMENT_OPS = {"identity", "mul", "inv", "stack", "unstack",
                       "group_order", "quotient_order"}


def test_matgroups_module_owns_the_element_format():
    # one element class serves both group facades: FilteredElement is built
    # in matgroups.py and nottingham.py alone, by `BatchOps._element` (the
    # facades' path from stacks to elements) or a projection to a truncated
    # group; the element ops and orders are written once on BatchOps, not on
    # MatrixOps, and the BFS engine names no element type
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            callers += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and _callee(node) == "FilteredElement"]
    assert set(callers) == {"matgroups.py:_element", "matgroups.py:project",
                            "nottingham.py:project"}, callers
    tree = ast.parse((SRC / "matgroups.py").read_text())
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    defined = {node.name for node in classes["MatrixOps"].body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & _SHARED_ELEMENT_OPS, defined & _SHARED_ELEMENT_OPS
    tree = ast.parse((SRC / "_bfs.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else
             node.id if isinstance(node, ast.Name) else node.name
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name, ast.alias))}
    assert "FilteredElement" not in names


def test_nottingham_module_owns_the_element_format():
    # nottingham.py defines no element class of its own (its elements are
    # FilteredElements holding a planes stack of one), NottinghamOps leaves
    # the element ops and orders to BatchOps, and the compiler's word fold
    # runs on the facade's stack surface
    tree = ast.parse((SRC / "nottingham.py").read_text())
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert set(classes) == {"SeriesContext", "NottinghamOps"}, set(classes)
    defined = {node.name for node in classes["NottinghamOps"].body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & _SHARED_ELEMENT_OPS, defined & _SHARED_ELEMENT_OPS
    tree = ast.parse((SRC / "skcompiler.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"eval_begin", "eval_finish"}


def test_payload_matrices_serve_only_the_lie_reference_code():
    # no module keeps or imports a payload-matrix engine (`_matrix`): the Lie
    # lifts, brackets and projections run on MatrixOps' stacks or on the
    # plan's arrays, and outside matgroups.py only liealg.py turns payload
    # matrices into stacks or back
    assert not (SRC / "_matrix.py").exists()
    importers, users = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if any(name.split(".")[-1] == "_matrix" for name in names):
                importers.add(path.name)
            if (path.name != "matgroups.py" and isinstance(node, ast.Call)
                    and _callee(node) in {"_payload_stack", "_payload_matrix"}):
                users.add(path.name)
    assert not importers, importers
    assert users == {"liealg.py"}, users


def test_every_exception_class_is_used():
    # an exception type that nothing raises or catches only pads the
    # exit-code contract: each class in errors.py must be named by an
    # identifier, an attribute or an import in another library module
    errors = SRC / "errors.py"
    declared = [node.name for node in ast.walk(ast.parse(errors.read_text()))
                if isinstance(node, ast.ClassDef)]
    assert declared
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        if path == errors:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [name for name in declared if name not in named]
    assert not unused, f"exception classes nothing else names: {unused}"


def test_compiler_sees_groups_through_the_oracle_contract():
    # skcompiler holds no group rule: admissibility, the pair bound and the
    # base depth are facade facts, so it reads no descriptor family; the
    # oracle clips at N itself, so no function takes a `capped` knob; and
    # each element op is defined once, as a facade method
    tree = ast.parse((SRC / "skcompiler.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "family"]
    knobs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                knobs += [f"{path.name}:{node.name}" for a in
                          args.posonlyargs + args.args + args.kwonlyargs
                          if a.arg == "capped"]
    assert not knobs, knobs
    for name in ("matgroups.py", "nottingham.py"):
        tree = ast.parse((SRC / name).read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"identity", "mul", "inv", "commutator"}, name


def test_series_payloads_run_on_the_series_engine():
    # SeriesContext.mul is the one series product: rings.Ring multiplies
    # and inverts F_q[[t]] payloads on its series context and reads no
    # field multiplication table, and a RingElem only pairs a ring with a
    # payload
    tree = ast.parse((SRC / "rings.py").read_text())
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names = {node.attr if isinstance(node, ast.Attribute) else
             node.id if isinstance(node, ast.Name) else node.name
             for node in ast.walk(classes["Ring"])
             if isinstance(node, (ast.Attribute, ast.Name, ast.alias))}
    assert "series_context" in names
    assert "mul_table" not in names
    methods = {node.name for node in classes["RingElem"].body
               if isinstance(node, ast.FunctionDef)}
    assert methods <= {"__init__", "__setattr__", "__eq__", "__hash__",
                       "__repr__"}, methods
