"""Executor-parity rules (X1xx): no silent fast-path divergence.

The columnar runtime re-implements every workload hook in array form,
and the equivalence tests pin the two paths bit-identical — but only
for hooks that *exist*.  A workload that overrides ``finalize`` on the
object path and forgets ``vector_finalize`` doesn't fail: the vector
path silently inherits the base implementation and the two executors
return different metrics for the same plan.  X101 turns that hole into
a lint error by requiring every overridden object hook to come with its
vector twin (or an explicit ``vector_ineligible = True`` marker on
workloads that opt out of the fast path entirely).  X102 catches the
inverse half-opt-in: vector hooks with no ``vector_ready`` gate are
dead code, because the base gate returns False.

X103 guards the *backend selection* boundary the same way: every
predicate of ``VectorRuntime._native_ok`` — the probe deciding whether
a batch runs through the fused C kernel — must have a matching row in
the ``NATIVE_ELIGIBILITY_CASES`` decision table of
``tests/test_native_equivalence.py``.  A new eligibility knob without a
table row would ship untested selection logic: the knob could route
work to the wrong backend and no test would notice.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import Finding, Project, SourceFile, rule

__all__ = [
    "workload_classes",
    "check_vector_twins",
    "check_vector_gate",
    "check_native_eligibility_table",
]

#: object-path hook -> required columnar twin.
_HOOK_TWINS = {
    "client_factory": "vector_clients",
    "start": "vector_start",
    "done": "vector_done",
    "target_slots": "vector_target_slots",
    "finalize": "vector_finalize",
}

_VECTOR_HOOKS = frozenset(_HOOK_TWINS.values())

_INELIGIBLE_MARKER = "vector_ineligible"


def _is_workload_class(node: ast.ClassDef) -> bool:
    """A workload: inherits from a ``*Workload`` base (the root
    ``Workload`` class itself has no such base and defines both hook
    sets anyway)."""
    for base in node.bases:
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        if name is not None and name.endswith("Workload"):
            return True
    return False


def _defined_methods(node: ast.ClassDef) -> set[str]:
    return {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _has_ineligible_marker(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: list[ast.AST] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == _INELIGIBLE_MARKER
                and isinstance(value, ast.Constant)
                and value.value is True
            ):
                return True
    return False


def workload_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_workload_class(node):
            yield node


@rule(
    rule_id="X101",
    family="parity",
    summary=(
        "workload overrides an object-path hook without its vector_* "
        "twin; the fast path silently inherits different behavior"
    ),
    scope=("src",),
)
def check_vector_twins(source: SourceFile) -> Iterator[Finding]:
    for node in workload_classes(source.tree):
        if _has_ineligible_marker(node):
            continue
        methods = _defined_methods(node)
        for hook, twin in _HOOK_TWINS.items():
            if hook in methods and twin not in methods:
                yield Finding(
                    rule="X101",
                    file=source.rel,
                    line=node.lineno,
                    message=(
                        f"{node.name} overrides {hook}() without "
                        f"{twin}(); the columnar path would silently use "
                        "the inherited implementation — add the twin or "
                        f"mark the class {_INELIGIBLE_MARKER} = True"
                    ),
                )


@rule(
    rule_id="X102",
    family="parity",
    summary=(
        "workload defines vector_* hooks but no vector_ready gate; the "
        "hooks are dead code behind the default False gate"
    ),
    scope=("src",),
)
def check_vector_gate(source: SourceFile) -> Iterator[Finding]:
    for node in workload_classes(source.tree):
        if _has_ineligible_marker(node):
            continue
        # Only direct subclasses of the root Workload inherit the
        # default False gate; deeper subclasses may inherit a concrete
        # workload's True gate, which is a deliberate opt-in.
        if not any(
            isinstance(base, ast.Name) and base.id == "Workload"
            for base in node.bases
        ):
            continue
        methods = _defined_methods(node)
        if methods & _VECTOR_HOOKS and "vector_ready" not in methods:
            yield Finding(
                rule="X102",
                file=source.rel,
                line=node.lineno,
                message=(
                    f"{node.name} defines columnar hooks but no "
                    "vector_ready(); the base gate returns False, so the "
                    "hooks never run — define the gate (or "
                    f"{_INELIGIBLE_MARKER} = True if opting out)"
                ),
            )


_NATIVE_PREDICATE_FILE = "src/repro/vectorized/runtime.py"
_NATIVE_PREDICATE_NAME = "_native_ok"
_NATIVE_TABLE_FILE = "tests/test_native_equivalence.py"
_NATIVE_TABLE_NAME = "NATIVE_ELIGIBILITY_CASES"


def _native_ok_predicates(
    tree: ast.Module,
) -> tuple[set[str], int] | None:
    """The ``self.<attr>`` names ``_native_ok`` tests, plus its line."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == _NATIVE_PREDICATE_NAME
        ):
            names = {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            }
            return names, node.lineno
    return None


def _table_row_names(tree: ast.Module) -> tuple[set[str], int] | None:
    """First-element string of every NATIVE_ELIGIBILITY_CASES row."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id == _NATIVE_TABLE_NAME
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                names = set()
                for row in node.value.elts:
                    if (
                        isinstance(row, ast.Tuple)
                        and row.elts
                        and isinstance(row.elts[0], ast.Constant)
                        and isinstance(row.elts[0].value, str)
                    ):
                        names.add(row.elts[0].value)
                return names, node.lineno
    return None


@rule(
    rule_id="X103",
    family="parity",
    summary=(
        "every VectorRuntime._native_ok backend-eligibility predicate "
        "needs a row in the NATIVE_ELIGIBILITY_CASES decision table of "
        "tests/test_native_equivalence.py (and no stale rows)"
    ),
    project=True,
)
def check_native_eligibility_table(project: Project) -> Iterator[Finding]:
    """A new eligibility knob in the native-backend probe must land with
    a selection test; a removed knob must not leave a stale table row.

    The rule is silent when the runtime module itself is absent (unit
    fixtures scan synthetic trees) but strict once it exists: a missing
    probe, a missing table, or any one-sided name is an error.
    """
    source = project.file(_NATIVE_PREDICATE_FILE)
    if source is None:
        return
    if source.tree is None:  # parse failure is E100's finding
        return
    probe = _native_ok_predicates(source.tree)
    if probe is None:
        yield Finding(
            rule="X103",
            file=_NATIVE_PREDICATE_FILE,
            line=1,
            message=(
                f"{_NATIVE_PREDICATE_NAME}() not found; the native "
                "backend-eligibility probe moved — update X103's anchor"
            ),
        )
        return
    predicates, line = probe
    # tests/ is outside the scanned roots by design (fixtures trip
    # rules); the decision table is loaded as an extra.
    table_source = project.read_extra(_NATIVE_TABLE_FILE)
    table = (
        None
        if table_source is None or table_source.tree is None
        else _table_row_names(table_source.tree)
    )
    if table is None:
        yield Finding(
            rule="X103",
            file=_NATIVE_PREDICATE_FILE,
            line=line,
            message=(
                f"{_NATIVE_TABLE_NAME} not found in {_NATIVE_TABLE_FILE}; "
                "the backend-selection decision table must exist"
            ),
        )
        return
    rows, table_line = table
    for name in sorted(predicates - rows):
        yield Finding(
            rule="X103",
            file=_NATIVE_PREDICATE_FILE,
            line=line,
            message=(
                f"{_NATIVE_PREDICATE_NAME}() tests self.{name} but "
                f"{_NATIVE_TABLE_NAME} has no {name!r} row — add a "
                "selection test for the new eligibility knob"
            ),
        )
    for name in sorted(rows - predicates):
        yield Finding(
            rule="X103",
            file=_NATIVE_PREDICATE_FILE,
            line=line,
            message=(
                f"{_NATIVE_TABLE_NAME} (line {table_line} of "
                f"{_NATIVE_TABLE_FILE}) has a {name!r} row but "
                f"{_NATIVE_PREDICATE_NAME}() no longer tests it — drop "
                "the stale row"
            ),
        )
