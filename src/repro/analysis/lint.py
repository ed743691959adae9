"""Determinism lint: AST checks that keep simulations reproducible.

Every result in this repo must be a pure function of its
:class:`~repro.sim.spec.ScenarioSpec` (seed included).  Three
classes of bugs silently break that, and all three are statically
detectable, so this pass runs in CI over ``src/repro``:

``direct-random``
    ``import random``, ``import numpy.random`` (any spelling), or calls
    into ``random.*`` / ``np.random.*`` anywhere except
    :mod:`repro.sim.rng`, the one module allowed to own entropy.  Seeded
    generators must be threaded from the spec's seed, never conjured locally.

``direct-time``
    ``import time`` / ``time.*()`` / ``datetime.now()`` in library code:
    wall-clock reads make runs environment-dependent.  The experiments
    CLI front-end is allowlisted (it reports elapsed wall time, which
    never feeds results).

``set-iteration``
    Iterating a ``set`` directly inside a cycle-kernel module.  Python
    set order depends on insertion history and hash seeds; the kernel
    must iterate ``sorted(...)`` snapshots (see
    ``Network.run_router_phases``).  The check is syntactic: set
    literals/comprehensions, ``set(...)`` calls, and the kernel's known
    set-typed attributes, unless wrapped in ``sorted`` — or consumed by
    an order-free reduction (``min``/``max``/``sum``/``any``/``all``),
    whose result cannot depend on iteration order.

``identity-dict-iteration``
    Iterating ``.values()`` / ``.items()`` of a kernel dict keyed by
    identity-hashed objects (``InputVC``/``OutputVC`` instances, e.g.
    ``black_slots``).  Python dicts iterate in insertion order, which for
    these maps is construction history: correct today, but silently
    reordered by any refactor that builds the map differently.  Kernel
    code must iterate the ring's position-ordered buffer lists instead.
    Order-free reductions (``min``/``max``/``sum``/``any``/``all``) over
    such a dict are exempt — their result cannot depend on order.

``mutable-default``
    A mutable default argument (list/dict/set literal or constructor) is
    shared across calls — state leaks between simulations.

Command line::

    python -m repro.analysis.lint src/repro
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass

__all__ = ["Finding", "lint_paths", "lint_source", "main"]

#: Module allowed to create random generators (path suffix match).
_RNG_MODULE = "sim/rng.py"
#: Modules allowed to read the wall clock (CLI front-ends).
_TIME_ALLOWLIST = ("experiments/__main__.py",)
#: Cycle-kernel modules where set iteration order reaches simulation state.
_KERNEL_MODULES = (
    "network/router.py",
    "network/network.py",
    "network/buffers.py",
    "network/nic.py",
    "core/wbfc.py",
    "core/flit_level.py",
    "sim/engine.py",
    "sim/soa.py",
)
#: Builtins whose result is invariant under permutation of their (pure)
#: iterable argument; a comprehension over a kernel set directly inside
#: one is deterministic even though the iteration order is not.
_ORDER_FREE_REDUCERS = frozenset({"min", "max", "sum", "any", "all"})
#: Known set-typed attributes of the kernel's hot objects.
_KERNEL_SET_ATTRS = frozenset(
    {
        "_routing_vcs",
        "_waiting_va_vcs",
        "_active_vcs",
        "_pending_nic_nodes",
        "nonzero_keys",
        # SoA backend stage sets (repro.sim.soa).
        "_rc",
        "_va",
        "_sa",
    }
)
#: Known kernel dicts keyed by identity-hashed objects (InputVC/OutputVC):
#: their iteration order is insertion history, not a stable key order.
_KERNEL_IDENTITY_DICT_ATTRS = frozenset({"black_slots", "gray_slots"})


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _dotted(node: ast.AST) -> str | None:
    """Render an attribute chain like ``np.random.default_rng`` as a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, rel: str):
        self.path = path
        self.findings: list[Finding] = []
        norm = rel.replace(os.sep, "/")
        self.allow_random = norm.endswith(_RNG_MODULE)
        self.allow_time = any(norm.endswith(s) for s in _TIME_ALLOWLIST)
        self.is_kernel = any(norm.endswith(s) for s in _KERNEL_MODULES)
        #: Comprehension nodes that are direct arguments of an order-free
        #: reducer (marked by ``visit_Call`` before descending into them).
        self._reduced: set[int] = set()

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, rule, message))

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random" and not self.allow_random:
                self._add(
                    node, "direct-random",
                    "import of 'random'; use repro.sim.rng generators",
                )
            if (
                alias.name.startswith("numpy.random")
                and not self.allow_random
            ):
                self._add(
                    node, "direct-random",
                    "import of 'numpy.random'; use repro.sim.rng generators",
                )
            if root == "time" and not self.allow_time:
                self._add(
                    node, "direct-time",
                    "import of 'time'; results must not read the wall clock",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root == "random" and not self.allow_random:
            self._add(
                node, "direct-random",
                "import from 'random'; use repro.sim.rng generators",
            )
        if not self.allow_random and (
            module.startswith("numpy.random")
            or (
                root == "numpy"
                and any(alias.name == "random" for alias in node.names)
            )
        ):
            self._add(
                node, "direct-random",
                "import of 'numpy.random'; use repro.sim.rng generators",
            )
        if root == "time" and not self.allow_time:
            self._add(
                node, "direct-time",
                "import from 'time'; results must not read the wall clock",
            )
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None:
            if not self.allow_random and (
                name.startswith("random.")
                or name.startswith("np.random.")
                or name.startswith("numpy.random.")
            ):
                self._add(
                    node, "direct-random",
                    f"call to {name}; seed-threaded generators only "
                    "(repro.sim.rng)",
                )
            if not self.allow_time and (
                name.startswith("time.")
                or name in ("datetime.now", "datetime.datetime.now")
            ):
                self._add(
                    node, "direct-time",
                    f"call to {name}; results must not read the wall clock",
                )
            if name in _ORDER_FREE_REDUCERS:
                for arg in node.args:
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                    ):
                        self._reduced.add(id(arg))
        self.generic_visit(node)

    # -- set iteration in the kernel ---------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> str | None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name == "set":
                return "a set() call"
            return None
        name = _dotted(node)
        if name is not None and name.split(".")[-1] in _KERNEL_SET_ATTRS:
            return f"set-typed attribute '{name}'"
        return None

    def _identity_dict_view(self, node: ast.AST) -> str | None:
        """``<identity-keyed dict>.values()`` / ``.items()``, or ``None``."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "items")
        ):
            return None
        base = _dotted(node.func.value)
        if base is not None and base.split(".")[-1] in _KERNEL_IDENTITY_DICT_ATTRS:
            return f"'{base}.{node.func.attr}()'"
        return None

    def _check_iter(self, node: ast.AST, iter_expr: ast.AST) -> None:
        if not self.is_kernel:
            return
        what = self._is_set_expr(iter_expr)
        if what is not None:
            self._add(
                node, "set-iteration",
                f"kernel iterates {what}; order is nondeterministic — "
                "iterate sorted(...) instead",
            )
        view = self._identity_dict_view(iter_expr)
        if view is not None:
            self._add(
                node, "identity-dict-iteration",
                f"kernel iterates {view}; identity-keyed dict order is "
                "insertion history — iterate the ring's ordered buffer "
                "list instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(self, node) -> None:
        if id(node) not in self._reduced:
            for gen in node.generators:
                self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_generators
    visit_SetComp = visit_comprehension_generators
    visit_DictComp = visit_comprehension_generators
    visit_GeneratorExp = visit_comprehension_generators

    # -- mutable defaults ----------------------------------------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and _dotted(default.func) in ("list", "dict", "set", "defaultdict", "deque")
            )
            if mutable:
                self._add(
                    default, "mutable-default",
                    f"mutable default argument in {node.name}(); "
                    "shared across calls — default to None",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(source: str, path: str, rel: str | None = None) -> list[Finding]:
    """Lint one module's source text; ``rel`` locates it for allowlists."""
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path, rel if rel is not None else path)
    visitor.visit(tree)
    return visitor.findings


def _python_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        files.append(os.path.join(dirpath, fn))
        elif path.endswith(".py"):
            files.append(path)
    return files


def lint_paths(paths: list[str]) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (deterministic order)."""
    findings: list[Finding] = []
    for path in _python_files(paths):
        with open(path, encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), path))
    return findings


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args:
        print("usage: python -m repro.analysis.lint <path> [path ...]")
        return 2
    findings = lint_paths(args)
    for finding in findings:
        print(finding)
    checked = len(_python_files(args))
    status = "FAILED" if findings else "OK"
    print(f"determinism lint: {checked} file(s), {len(findings)} finding(s) — {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
