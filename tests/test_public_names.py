"""Public names of ``src/`` that only the tests reach.

Every public top-level name that ``src/squarepack`` defines is referenced
from ``src/`` outside its own definition, from ``scripts/`` or from
``perfbench/``, except the names pinned below with the reason each one
stays. Code that only tests call belongs in ``tests/oracles.py``; a new
public name without a caller fails here until it gets one, moves, or is
pinned with its reason.

Top-level functions and classes with one leading underscore are held to
the same rule, without pins: a private helper that only tests call is a
test helper.

The public methods and properties of the public classes are held to the
same rule, with one difference: only an attribute access (``obj.name``)
outside the method's own body reaches a method, since a bare name of the
same spelling is some other variable.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "disseminated_expectation": (
        "the left side of the chessboard estimate, mu^per of a product of "
        "reflected block events, which acceptance criterion 5 bounds by "
        "chessboard_seminorm"
    ),
    "reflection_positivity_value": (
        "mu^per(f * (f o reflection)) by the band transfer, the reflection "
        "positivity that the chessboard estimate rests on"
    ),
}


def _references(tree, own=frozenset()):
    """Names read, attributes taken and names imported within ``tree``,
    less ``own``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found - own


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _scan():
    """The top-level definitions of ``src/`` as (node, names defined)
    pairs, and the names referenced from ``src/`` outside their own
    definition, from ``scripts/`` or from ``perfbench/``."""
    defined, referenced = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            defined.append((node, names))
            # a definition does not reach itself
            referenced |= _references(node, frozenset(names))
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text()))
    return defined, referenced


def test_only_the_pinned_public_names_lack_a_caller_outside_the_tests():
    defined, referenced = _scan()
    public = {n for _, names in defined for n in names if not n.startswith("_")}
    unreached = public - referenced
    assert not unreached - set(TEST_ONLY), "reached only from tests; move to tests/oracles.py"
    assert not set(TEST_ONLY) - unreached, "pinned but now reached, or gone: unpin"
    assert all(TEST_ONLY.values())


def test_private_functions_and_classes_have_a_caller_outside_the_tests():
    defined, referenced = _scan()
    private = {
        node.name
        for node, _ in defined
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    assert private
    unreached = private - referenced
    assert not unreached, "reached only from tests; move to tests/oracles.py or delete"


def _attributes(node, own=frozenset()):
    """Attribute names taken within ``node``, less, inside the body of
    each method of a class, that method's own name."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr not in own:
            found.add(child.attr)
        if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
            found |= _attributes(child, own | {child.name})
        else:
            found |= _attributes(child, own)
    return found


def test_public_methods_have_a_caller_outside_the_tests():
    methods, referenced = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            referenced |= _attributes(tree)
            if folder != "src":
                continue
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    methods |= {
                        f"{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    }
    assert methods
    unreached = {m for m in methods if m.rpartition(".")[2] not in referenced}
    assert not unreached, "reached only from tests; move to tests/oracles.py"


def test_src_imports_are_read_where_imported():
    # a name imported and never read is a leftover of code that moved;
    # __init__.py imports to re-export, and annotations is a future flag
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read - {"annotations"})]
    assert unread == []
