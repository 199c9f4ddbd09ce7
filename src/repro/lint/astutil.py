"""Small AST helpers shared by the concrete rules."""

import ast


class ImportMap:
    """Resolve what a name means at module level, import-wise.

    Tracks ``import x``, ``import x as y`` and ``from x import a as b``
    across a whole module (scope-insensitive on purpose: the rules here
    police module hygiene, and shadowing an import to dodge the linter
    would be its own finding in review).
    """

    def __init__(self, tree):
        #: local alias -> imported module name ("random", "numpy.random")
        self.modules = {}
        #: local alias -> (module, original name) for from-imports
        self.names = {}
        #: Every import statement, top-level or function-local.
        self.statements = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.statements.append(node)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    self.modules[local] = (
                        alias.name if alias.asname else alias.name.split(".", 1)[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)

    def module_aliases(self, module):
        """Local names bound to ``module`` via plain imports."""
        return {
            local for local, target in self.modules.items() if target == module
        }

    def from_imports(self, module):
        """{local_name: original_name} imported from ``module``."""
        return {
            local: original
            for local, (source, original) in self.names.items()
            if source == module or source.startswith(module + ".")
        }


def receiver_last_name(node):
    """For ``<recv>.method(...)`` calls: the last name of the receiver.

    ``obs.metrics.counter(...)`` -> "metrics"; ``cp.hit(...)`` -> "cp";
    ``self.crashpoints.hit(...)`` -> "crashpoints". None when the
    receiver is not an attribute/name chain.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def first_str_arg(node):
    """The literal first argument of a call, if it is a string."""
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


def keyword_arg(node, name):
    """The ast node for keyword ``name`` of a call, or None."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_const_true(node):
    return isinstance(node, ast.Constant) and node.value is True


def functions(tree):
    """Every (Async)FunctionDef in ``tree``, in source order."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def own_nodes(func):
    """Every node in ``func``'s body, excluding nested def/lambda bodies."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator(func):
    """Whether ``func`` contains a yield of its own (not in a nested def)."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own_nodes(func)
    )
