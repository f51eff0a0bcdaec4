"""No dead code in the library: every private module- or class-level name is
read somewhere in ``src/lplab``, no module imports a name it never reads,
no function or constructor has a defaulted parameter that no call passes, no
invariant is an ``assert``, which ``python -O`` strips, and no setting is
read from the environment, so a config key is its one way in.

Only the stdlib ``ast`` module is used.  A read is a name or attribute
loaded outside the definition itself, so a private function that only calls
itself still counts as dead.  ``__init__`` re-exports names, so its imports
are not checked.  A private function's defaults must be passed inside
``src/lplab``; a public function's or constructor's may also be passed by
the tests or the demos.  A constructor is reached through calls of its
class by name.

The file also holds the one count of the library's code lines, read with
the stdlib ``tokenize`` module: a line counts when a token other than a
comment lies on it, a line inside a multi-line string included, unless it
belongs to a docstring, the string that opens a module, class or function
body.  Run this file as a script to print the count per module and in
total.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "lplab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SOURCE.glob("*.py"))}
# the trees whose calls may pass a public function's defaults
CALLERS = list(MODULES.values()) + [
    ast.parse(path.read_text(encoding="utf-8"), str(path))
    for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _loads(tree: ast.AST):
    """The names and attribute names loaded in tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _definitions(body):
    """(name, node) for each function, class and assignment target in body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _private_definitions():
    for module, tree in MODULES.items():
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for name, node in _definitions(body):
                if _is_private(name):
                    yield module, name, node


def test_every_private_name_is_read():
    private = list(_private_definitions())
    assert {"_compiled_form", "_Problem", "_expand"} <= {
        name for _, name, _ in private}, "the guard lost sight of definitions"
    # a name is read when it is loaded more often than inside its definition
    loads = Counter(name for tree in MODULES.values() for name in _loads(tree))
    unread = [f"{module}.{name}" for module, name, node in private
              if loads[name] == Counter(_loads(node))[name]]
    assert not unread, f"defined but never read in lplab: {unread}"


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_read():
    unread = {}
    for module, tree in MODULES.items():
        if module != "__init__":
            names = sorted(set(_imported_names(tree)) - set(_loads(tree)))
            if names:
                unread[module] = names
    assert not unread, f"imported but never read: {unread}"


def _calls(name: str, trees):
    """The calls in trees to a function, method or class called name."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name == (
                    node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None)):
                yield node


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call passes the parameter at position (None: keyword-only)
    called name; a *args or **kwargs argument may pass any of them."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or (position is not None and len(call.args) > position)
            or any(keyword.arg in (name, None) for keyword in call.keywords))


def _callables():
    """(label, callee, node) for each function in lplab other than a dunder,
    and for each class's ``__init__``, whose callee is the class."""
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == "__init__"):
                        yield f"{module}.{node.name}", node.name, item
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("__")):
                yield f"{module}.{node.name}", node.name, node


def _defaulted_parameters():
    """(label, callee, parameter name, call position) for each defaulted
    parameter; a method's position skips self or cls."""
    for label, callee, node in _callables():
        args = node.args
        positional = args.posonlyargs + args.args
        bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield label, callee, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, callee, arg.arg, None


def _unpassed(defaulted, trees) -> list[str]:
    return [f"{label}({name})" for label, callee, name, position in defaulted
            if not any(_passes(call, position, name)
                       for call in _calls(callee, trees))]


def test_every_default_of_a_private_function_is_passed():
    defaulted = [d for d in _defaulted_parameters() if _is_private(d[1])]
    assert ("cli._int_field", "_int_field", "default", 2) in defaulted, \
        "the guard lost sight of defaulted parameters"
    knobs = _unpassed(defaulted, MODULES.values())
    assert not knobs, f"defaulted parameters that no call passes: {knobs}"


def test_every_default_of_a_public_function_is_passed():
    defaulted = [d for d in _defaulted_parameters() if not _is_private(d[1])]
    assert ("cli.main", "main", "argv", 0) in defaulted, \
        "the guard lost sight of defaulted parameters"
    knobs = _unpassed(defaulted, CALLERS)
    assert not knobs, \
        f"defaulted parameters that no call in lplab, tests or demos passes: {knobs}"


def test_no_invariant_is_a_strippable_assert():
    # python -O removes assert statements, so a check written as one would
    # pass on any code; a broken invariant raises InvariantViolation instead
    found = [f"{module}:{node.lineno}" for module, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert) or (
                 isinstance(node, ast.Name) and node.id == "AssertionError")]
    assert not found, f"assert or AssertionError in lplab: {found}"


def test_no_setting_is_read_from_the_environment():
    # a setting with a config key and an environment variable has two ways
    # in; the config key is the one
    readers = {"environ", "environb", "getenv"}
    found = [f"{module}:{node.lineno}" for module, tree in MODULES.items()
             for node in ast.walk(tree)
             if readers & {getattr(node, field, None)
                           for field in ("attr", "id", "name")}]
    assert not found, f"environment read in lplab: {found}"


# tokens that hold no code: layout, and comments
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of non-blank, non-comment, non-docstring lines of text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_code_lines_count_code_only():
    # code on lines 5, 7, 8, 10 and 11: the docstrings, the blank lines and
    # the comments do not count, both lines of the string in code do
    snippet = "\n".join([
        '"""Module docstring,',
        'on two lines."""',
        "",
        "# a comment",
        "def f(x):  # a trailing comment",
        '    """Docstring."""',
        '    text = """a string,',
        'not a docstring"""',
        "",
        "    return (x +",
        "            1)",
    ])
    assert code_lines(snippet) == 5


if __name__ == "__main__":
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(SOURCE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
