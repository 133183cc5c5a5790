"""The built-in rule catalogue: determinism, process-safety, API drift.

Every rule here guards an assumption the repo's correctness story leans
on.  The engines are bit-deterministic (same seed, same trace), the
sweep runner forks workers that must not share mutable module state, and
the public API surface is enumerated by ``__all__`` -- all properties
that runtime tests only check along executed paths.  These passes prove
them over the whole tree at review time.

Rule ids are stable wire names (``repro lint --select DET001,EXP001``):

========  ========================================================
DET001    unseeded RNG construction / global-state RNG call
DET002    wall-clock read inside a deterministic engine
DET003    unsorted set iteration feeding ordered output
DET004    mutable default argument
PROC001   module-level mutable state mutated in a fork-pool module
EXP001    ``__all__`` export drift (dangling or duplicate entries)
========  ========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .model import Finding, ParsedModule, Rule

__all__ = ["DEFAULT_RULES", "rule_catalog"]


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` attribute chain as a name tuple, or None if not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _has_seed(call: ast.Call) -> bool:
    return bool(call.args) or any(kw.arg == "seed" for kw in call.keywords)


class UnseededRngRule(Rule):
    """DET001: every RNG must be constructed from an explicit seed.

    Flags ``np.random.default_rng()`` / ``random.Random()`` with no seed
    and any call into the *global* RNG state (``np.random.shuffle``,
    ``random.random``, ``np.random.seed``, ...).  Global state makes the
    result depend on import order and prior calls -- the exact
    nondeterminism the parity tests exist to rule out.
    """

    rule_id = "DET001"
    severity = "error"
    title = "unseeded or global-state RNG"
    fix_hint = (
        "construct np.random.default_rng(seed) from an explicit seed "
        "(workloads.root_rng) and thread the Generator through"
    )

    _NP_ROOTS = frozenset({"np", "numpy"})
    _GLOBAL_FNS = frozenset(
        {
            "seed", "rand", "randn", "randint", "random", "random_sample",
            "ranf", "shuffle", "choice", "permutation", "uniform",
            "randrange", "sample", "getrandbits",
        }
    )

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            if chain[-1] == "default_rng" and not _has_seed(node):
                yield self.finding(
                    module, node, "np.random.default_rng() constructed "
                    "without a seed"
                )
            elif chain[-1] == "Random" and len(chain) >= 2 \
                    and chain[0] == "random" and not _has_seed(node):
                yield self.finding(
                    module, node, "random.Random() constructed without a seed"
                )
            elif (
                len(chain) == 3
                and chain[0] in self._NP_ROOTS
                and chain[1] == "random"
                and chain[2] in self._GLOBAL_FNS
            ):
                yield self.finding(
                    module, node,
                    f"call to global-state numpy RNG np.random.{chain[2]}()",
                )
            elif (
                len(chain) == 2
                and chain[0] == "random"
                and chain[1] in self._GLOBAL_FNS
            ):
                yield self.finding(
                    module, node,
                    f"call to global-state stdlib RNG random.{chain[1]}()",
                )


class WallClockRule(Rule):
    """DET002: deterministic engines must not read the wall clock.

    Scoped to the engine packages (``sim/``, ``core/``, ``online/``,
    ``faults/``), whose outputs are compared bit-for-bit against the
    reference oracles and across replays.  ``time.perf_counter`` is allowed -- the observability
    layer uses it for timings that are explicitly excluded from parity.
    """

    rule_id = "DET002"
    severity = "error"
    title = "wall-clock read in a deterministic engine"
    fix_hint = (
        "derive logical time from the simulation step counter; move "
        "profiling to repro.obs (PhaseTimer), which is parity-excluded"
    )
    scope_dirs = frozenset({"sim", "core", "online", "faults"})

    _CLOCK_CALLS = frozenset({"time", "time_ns"})
    _DATE_CALLS = frozenset({"now", "utcnow", "today"})

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None or len(chain) < 2:
                continue
            if chain[0] == "time" and chain[-1] in self._CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock read time.{chain[-1]}() inside a "
                    "deterministic engine",
                )
            elif chain[-1] in self._DATE_CALLS and any(
                part in ("datetime", "date") for part in chain[:-1]
            ):
                yield self.finding(
                    module, node,
                    f"wall-clock read {'.'.join(chain)}() inside a "
                    "deterministic engine",
                )


class UnsortedSetIterationRule(Rule):
    """DET003: iterating a set into ordered output needs ``sorted``.

    Set iteration order depends on element hashes and insertion history,
    so a ``for`` loop (or list/dict comprehension) over a set expression
    can reorder results between runs or Python builds.  Wrapping the
    iterable in ``sorted(...)`` fixes the order; iteration that feeds an
    order-free consumer (``sum``, ``min``, another ``set``, ...) and set
    comprehensions are exempt.
    """

    rule_id = "DET003"
    severity = "error"
    title = "unsorted set iteration feeding ordered output"
    fix_hint = "wrap the iterable in sorted(...) to pin the order"

    _SET_BUILTINS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference"}
    )
    _ORDER_FREE = frozenset(
        {"sorted", "set", "frozenset", "sum", "len", "min", "max",
         "any", "all"}
    )

    def _is_setlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in self._SET_BUILTINS:
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self._SET_METHODS:
                return self._is_setlike(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setlike(node.left) or self._is_setlike(node.right)
        return False

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and self._is_setlike(node.iter):
                yield self.finding(
                    module, node.iter,
                    "for-loop iterates a set in hash order",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if not any(self._is_setlike(g.iter) for g in node.generators):
                    continue
                parent = parents.get(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in self._ORDER_FREE
                    and node in parent.args
                ):
                    continue  # result is order-free; iteration order moot
                yield self.finding(
                    module, node,
                    "comprehension iterates a set in hash order into "
                    "ordered output",
                )


class MutableDefaultRule(Rule):
    """DET004: default argument values must be immutable.

    A mutable default is evaluated once at ``def`` time and shared by
    every call, so state leaks between invocations -- and between the
    parity runs the determinism tests compare.
    """

    rule_id = "DET004"
    severity = "error"
    title = "mutable default argument"
    fix_hint = "default to None and construct the container in the body"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
    _MUTABLE_TYPES = frozenset({"defaultdict", "OrderedDict", "Counter", "deque"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain and (
                chain[-1] in self._MUTABLE_TYPES
                or (len(chain) == 1 and chain[0] in self._MUTABLE_CALLS)
            ):
                return True
        return False

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            name = getattr(node, "name", "<lambda>")
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {name}()",
                    )


class SharedMutableStateRule(Rule):
    """PROC001: fork-pool workers must not mutate module-level state.

    Scoped to modules that import ``multiprocessing`` or
    ``concurrent.futures``.  A forked worker that appends to a
    module-level list (or rebinds a global) mutates its *copy*; the
    parent never sees the write, so results silently depend on which
    process ran the code -- the race class the sweep runner's
    worker-count-invariance contract forbids.
    """

    rule_id = "PROC001"
    severity = "error"
    title = "module-level mutable state mutated in a fork-pool module"
    fix_hint = (
        "return results from the worker and merge in the parent "
        "(see experiments/sweep.py's enveloped shard results)"
    )

    _MUTATORS = frozenset(
        {"append", "extend", "add", "update", "insert", "remove",
         "discard", "pop", "popitem", "clear", "setdefault"}
    )

    def _forks(self, tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    a.name.split(".")[0] in ("multiprocessing", "concurrent")
                    for a in node.names
                ):
                    return True
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in (
                    "multiprocessing", "concurrent",
                ):
                    return True
        return False

    def _module_mutables(self, tree: ast.Module) -> Set[str]:
        mutable: Set[str] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            if isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "dict", "set", "defaultdict",
                                      "deque", "Counter")
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutable.add(target.id)
        return mutable

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        if not self._forks(module.tree):
            return
        module_names = {
            t.id
            for stmt in module.tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for t in (stmt.targets if isinstance(stmt, ast.Assign)
                      else [stmt.target])
            if isinstance(t, ast.Name)
        }
        mutables = self._module_mutables(module.tree)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    rebound = sorted(set(node.names) & module_names)
                    for name in rebound:
                        yield self.finding(
                            module, node,
                            f"worker function {fn.name}() rebinds "
                            f"module-level name {name!r} via `global`",
                        )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mutables
                ):
                    yield self.finding(
                        module, node,
                        f"worker function {fn.name}() mutates module-level "
                        f"{node.func.value.id!r}.{node.func.attr}()",
                    )
                elif (
                    isinstance(node, (ast.Assign, ast.AugAssign))
                    and any(
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in mutables
                        for t in (node.targets
                                  if isinstance(node, ast.Assign)
                                  else [node.target])
                    )
                ):
                    yield self.finding(
                        module, node,
                        f"worker function {fn.name}() assigns into "
                        "module-level mutable state",
                    )


class ExportDriftRule(Rule):
    """EXP001: every ``__all__`` entry must resolve; no duplicates.

    A dangling export (``__all__`` naming a symbol the module never
    binds) breaks ``from pkg import *`` and the API-hygiene contract;
    duplicates usually indicate a botched merge.  Modules using
    ``import *`` themselves are skipped -- their bindings cannot be
    resolved statically.
    """

    rule_id = "EXP001"
    severity = "error"
    title = "__all__ export drift"
    fix_hint = "define/import the symbol or drop it from __all__"

    def _bound_names(self, body: List[ast.stmt]) -> tuple[Set[str], bool]:
        bound: Set[str] = set()
        star = False

        def bind_target(target: ast.expr) -> None:
            if isinstance(target, ast.Name):
                bound.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind_target(elt)
            elif isinstance(target, ast.Starred):
                bind_target(target.value)

        def walk(stmts: List[ast.stmt]) -> None:
            nonlocal star
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        bind_target(target)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    bind_target(stmt.target)
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        if alias.name == "*":
                            star = True
                        else:
                            bound.add(alias.asname or alias.name)
                elif isinstance(stmt, (ast.If, ast.Try)):
                    if isinstance(stmt, ast.If):
                        walk(stmt.body)
                        walk(stmt.orelse)
                    else:
                        walk(stmt.body)
                        for handler in stmt.handlers:
                            walk(handler.body)
                        walk(stmt.orelse)
                        walk(stmt.finalbody)
                elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                    if isinstance(stmt, ast.For):
                        bind_target(stmt.target)
                    if isinstance(stmt, ast.With):
                        for item in stmt.items:
                            if item.optional_vars is not None:
                                bind_target(item.optional_vars)
                    walk(stmt.body)

        walk(body)
        return bound, star

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        all_node: Optional[ast.expr] = None
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets
                )
            ):
                all_node = stmt.value
        if all_node is None or not isinstance(all_node, (ast.List, ast.Tuple)):
            return
        entries: List[Tuple[str, ast.expr]] = []
        for elt in all_node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                entries.append((elt.value, elt))
            else:
                return  # dynamically built __all__; out of static reach
        bound, star = self._bound_names(module.tree.body)
        if star:
            return
        seen: Set[str] = set()
        for name, node in entries:
            if name in seen:
                yield self.finding(
                    module, node, f"duplicate __all__ entry {name!r}"
                )
                continue
            seen.add(name)
            if name not in bound:
                yield self.finding(
                    module, node,
                    f"__all__ exports {name!r} but the module never binds it",
                )


#: the shipped rule set, in catalogue order
DEFAULT_RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    WallClockRule(),
    UnsortedSetIterationRule(),
    MutableDefaultRule(),
    SharedMutableStateRule(),
    ExportDriftRule(),
)


def rule_catalog() -> Tuple[Dict[str, str], ...]:
    """Static description of every shipped rule (id, severity, title, hint)."""
    return tuple(
        {
            "rule": r.rule_id,
            "severity": r.severity,
            "title": r.title,
            "fix_hint": r.fix_hint,
            "scope": ",".join(sorted(r.scope_dirs)) or "everywhere",
        }
        for r in DEFAULT_RULES
    )
