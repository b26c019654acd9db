"""Project-wide symbol table and call graph over all ``SourceUnit``s.

The flow-aware checkers need facts no single file contains: *is this
call a key-derivation source?* when the source was imported under an
alias, *does this helper transitively journal?* when the journaling
call is two frames down.  This module builds those facts in two phases,
mirroring the framework's collect/check split:

1. **symbols** -- every module's top-level functions, classes and
   methods get a qualified name (``repro.fast.batch_memory.
   BatchSecureMemory.flush``), plus the module's import alias map.
2. **calls** -- every call site inside every function is resolved to a
   set of *candidate* qualified names: exact for local and imported
   names and for ``self.method()`` within a class; by trailing
   attribute name for anything reached through an object whose type the
   AST cannot see.  By-name candidates are deliberately over-inclusive
   (a may-call-graph): the checkers built on top only ever use the
   graph to *excuse* code (``_journal_resilience`` counts as journaling
   because it reaches ``append_resilience``) or to *widen* source sets
   (a wrapper returning ``derive_key(...)`` is itself a key source), so
   imprecision here can hide a finding but never invent one.

The module name of a unit derives from its ``subpath``
(``service/tenant.py`` -> ``repro.service.tenant``); fixture units
outside a ``repro`` tree keep their bare stem, which is how the tests
build little multi-module projects from strings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.lint.framework import SourceUnit


def module_name_of(subpath: str) -> str:
    """``core/engine/units.py`` -> ``repro.core.engine.units``."""
    trimmed = subpath[:-3] if subpath.endswith(".py") else subpath
    parts = [p for p in trimmed.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "/" in subpath:
        parts = ["repro"] + parts
    return ".".join(parts) if parts else "repro"


class ImportMap:
    """Local alias -> canonical dotted path, for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve(self, chain: tuple[str, ...]) -> tuple[str, ...]:
        """Canonicalize the leading alias of a dotted chain."""
        if not chain:
            return chain
        head = chain[0]
        if head in self.modules:
            return tuple(self.modules[head].split(".")) + chain[1:]
        if head in self.names:
            module, original = self.names[head]
            return tuple(module.split(".")) + (original,) + chain[1:]
        return chain


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    node: ast.Call
    #: import-canonicalized dotted chain of the callee ("" when the
    #: callee is not a pure name chain, e.g. ``fns[i]()``)
    chain: tuple[str, ...]
    #: candidate qualified names inside the project (may be empty)
    targets: tuple[str, ...]

    @property
    def name(self) -> str:
        """Trailing name of the callee ("" when unresolvable)."""
        return self.chain[-1] if self.chain else ""


@dataclass
class FunctionInfo:
    """One function or method definition, project-wide identity."""

    qualname: str
    module: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    unit: SourceUnit
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name


def _function_calls(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Call expressions belonging to *this* function body only."""
    todo: list[ast.AST] = list(node.body)
    while todo:
        child = todo.pop(0)
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        if isinstance(child, ast.Call):
            yield child
        todo.extend(ast.iter_child_nodes(child))


def _callee_chain(node: ast.AST) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return ()


class ProjectIndex:
    """Symbol table + may-call-graph over a set of source units."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[str]] = {}
        self.imports: dict[str, ImportMap] = {}
        self.modules: dict[str, SourceUnit] = {}

    # -- phase 1: symbols ----------------------------------------------------

    @classmethod
    def build(cls, units: Sequence[SourceUnit]) -> "ProjectIndex":
        index = cls()
        for unit in units:
            index._collect_symbols(unit)
        for info in index.functions.values():
            index._resolve_calls(info)
        return index

    def _collect_symbols(self, unit: SourceUnit) -> None:
        module = module_name_of(unit.subpath)
        self.modules[module] = unit
        self.imports[module] = ImportMap(unit.tree)
        for item in unit.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(module, None, item, unit)
            elif isinstance(item, ast.ClassDef):
                for member in item.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add(module, item.name, member, unit)

    def _add(
        self,
        module: str,
        cls_name: str | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        unit: SourceUnit,
    ) -> None:
        qualname = ".".join(
            p for p in (module, cls_name, node.name) if p is not None
        )
        info = FunctionInfo(
            qualname=qualname, module=module, cls=cls_name, node=node,
            unit=unit,
        )
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(qualname)

    # -- phase 2: call resolution --------------------------------------------

    def _resolve_calls(self, info: FunctionInfo) -> None:
        imports = self.imports[info.module]
        for call in _function_calls(info.node):
            chain = imports.resolve(_callee_chain(call.func))
            info.calls.append(
                CallSite(
                    node=call,
                    chain=chain,
                    targets=tuple(self._candidates(info, chain)),
                )
            )

    def _candidates(
        self, info: FunctionInfo, chain: tuple[str, ...]
    ) -> Iterator[str]:
        if not chain:
            return
        # self.method() within the defining class
        if (
            len(chain) == 2
            and chain[0] in ("self", "cls")
            and info.cls is not None
        ):
            exact = f"{info.module}.{info.cls}.{chain[1]}"
            if exact in self.functions:
                yield exact
                return
        # module-qualified (possibly via import canonicalization)
        dotted = ".".join(chain)
        if dotted in self.functions:
            yield dotted
            return
        # plain name in the same module
        if len(chain) == 1:
            local = f"{info.module}.{chain[0]}"
            if local in self.functions:
                yield local
                return
        # fall back to by-name candidates (may-call edges)
        yield from self.by_name.get(chain[-1], ())

    # -- queries -------------------------------------------------------------

    def reaches(
        self,
        qualname: str,
        target_names: Iterable[str],
        max_depth: int = 6,
    ) -> bool:
        """True when the function may (transitively) call any function
        whose trailing name is in ``target_names``."""
        wanted = set(target_names)
        seen: set[str] = set()
        frontier = {qualname}
        for _ in range(max_depth):
            next_frontier: set[str] = set()
            for qn in frontier:
                if qn in seen:
                    continue
                seen.add(qn)
                info = self.functions.get(qn)
                if info is None:
                    continue
                for call in info.calls:
                    if call.name in wanted:
                        return True
                    next_frontier.update(call.targets)
            if not next_frontier:
                return False
            frontier = next_frontier - seen
        return False


__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportMap",
    "ProjectIndex",
    "module_name_of",
]
