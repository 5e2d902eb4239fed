#!/usr/bin/env python
"""docs-check: keep the documentation suite in lockstep with the code.

Fails (exit 1) when:

* ``README.md``, ``docs/architecture.md`` or ``docs/benchmarks.md`` is
  missing;
* a ``benchmarks/bench_*.py`` script is not mentioned in
  ``docs/benchmarks.md`` (every benchmark must be catalogued);
* ``docs/benchmarks.md`` mentions a ``bench_*.py`` name that no longer
  exists (stale catalogue entries);
* a package under ``src/repro/`` is not mentioned (as ``repro.<name>``)
  in ``docs/architecture.md`` — every package, ``repro.topology``
  included, must appear in the architecture walk-through, so adding a
  subsystem without documenting it fails the gate;
* a name exported by the stable façade (``src/repro/api.py``'s
  ``__all__``) does not appear in ``docs/architecture.md`` — the public
  API's compatibility promise is only real if every exported name has
  documented semantics.  The ``__all__`` list is read via ``ast`` (this
  script never imports the package, so it works without dependencies
  installed);
* a reprolint rule registered under ``src/repro/staticcheck/`` (every
  ``rule_id="..."`` literal) is not documented in
  ``docs/invariants.md``, or the invariants catalogue names a rule ID
  that is no longer registered — the invariant catalogue and the
  analyzer must describe the same rule set;
* the ``ExecutionPolicy`` dataclass fields (read via ``ast`` from
  ``src/repro/experiments/policy.py``) and the ``| field | ...`` table
  in ``docs/architecture.md`` disagree in either direction — a field
  added or dropped without its row, or a row left for a field that is
  gone, fails the gate.

Run via ``make docs-check``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/invariants.md",
)
API_MODULE = "src/repro/api.py"
POLICY_MODULE = "src/repro/experiments/policy.py"
POLICY_CLASS = "ExecutionPolicy"
POLICY_TABLE_HEADER = "| field | values | semantics |"

_RULE_ID_LITERAL = re.compile(r'rule_id="([A-Z]\d{3})"')


def registered_rule_ids() -> list[str]:
    """Every reprolint rule ID, read from the ``rule_id="..."`` literal
    registrations (no imports — same stdlib-purity rule as the rest of
    this script)."""
    ids: set[str] = set()
    for path in sorted((REPO / "src/repro/staticcheck").glob("*.py")):
        ids.update(_RULE_ID_LITERAL.findall(path.read_text(encoding="utf-8")))
    return sorted(ids)


def api_exports(path: Path) -> list[str]:
    """The façade's ``__all__``, by static AST walk (no imports)."""
    if not path.is_file():
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                return [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
    return []


def dataclass_fields(path: Path, class_name: str) -> list[str]:
    """The annotated fields of one class, by static AST walk."""
    if not path.is_file():
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ]
    return []


def table_rows(text: str, header: str) -> list[str]:
    """First-column names (backticks stripped) of the markdown table
    that starts at ``header``, or [] when there is no such table."""
    lines = text.splitlines()
    try:
        start = lines.index(header)
    except ValueError:
        return []
    names = []
    for line in lines[start + 2 :]:  # skip the header and `| --- |`
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    return names


def main() -> int:
    problems: list[str] = []

    for rel in REQUIRED_DOCS:
        if not (REPO / rel).is_file():
            problems.append(f"missing required documentation file: {rel}")

    catalogue_path = REPO / "docs" / "benchmarks.md"
    catalogue = (
        catalogue_path.read_text(encoding="utf-8")
        if catalogue_path.is_file()
        else ""
    )

    scripts = sorted(
        p.name for p in (REPO / "benchmarks").glob("bench_*.py")
    )
    for name in scripts:
        if name not in catalogue:
            problems.append(
                f"benchmarks/{name} is not documented in docs/benchmarks.md"
            )

    # `scripts/bench_*.py` helpers (the smoke runner, the compare gate)
    # are not benchmark scripts; only bare mentions are catalogue rows.
    mentioned = set(
        re.findall(r"(?<!scripts/)\bbench_[A-Za-z0-9_]+\.py\b", catalogue)
    )
    for name in sorted(mentioned.difference(scripts)):
        problems.append(
            f"docs/benchmarks.md mentions {name}, which does not exist "
            "under benchmarks/"
        )

    architecture_path = REPO / "docs" / "architecture.md"
    architecture = (
        architecture_path.read_text(encoding="utf-8")
        if architecture_path.is_file()
        else ""
    )
    packages = sorted(
        p.parent.name
        for p in (REPO / "src" / "repro").glob("*/__init__.py")
    )
    for name in packages:
        if f"repro.{name}" not in architecture:
            problems.append(
                f"package src/repro/{name}/ is not documented in "
                "docs/architecture.md (no `repro." + name + "` mention)"
            )

    exports = api_exports(REPO / API_MODULE)
    if not exports:
        problems.append(
            f"{API_MODULE} is missing or has no parseable __all__ "
            "(the stable façade must declare its exports)"
        )
    for name in exports:
        if not re.search(rf"\b{re.escape(name)}\b", architecture):
            problems.append(
                f"repro.api export {name!r} is not documented in "
                "docs/architecture.md"
            )

    fields = dataclass_fields(REPO / POLICY_MODULE, POLICY_CLASS)
    if not fields:
        problems.append(
            f"{POLICY_MODULE} has no parseable {POLICY_CLASS} fields"
        )
    rows = table_rows(architecture, POLICY_TABLE_HEADER)
    if not rows:
        problems.append(
            f"docs/architecture.md has no {POLICY_CLASS} table "
            f"(a {POLICY_TABLE_HEADER!r} header)"
        )
    for name in fields:
        if name not in rows:
            problems.append(
                f"{POLICY_CLASS}.{name} has no row in the "
                "docs/architecture.md policy table"
            )
    for name in rows:
        if name not in fields:
            problems.append(
                f"docs/architecture.md policy table documents {name!r}, "
                f"which is not an {POLICY_CLASS} field"
            )

    invariants_path = REPO / "docs" / "invariants.md"
    invariants = (
        invariants_path.read_text(encoding="utf-8")
        if invariants_path.is_file()
        else ""
    )
    rule_ids = registered_rule_ids()
    for rule_id in rule_ids:
        if not re.search(rf"\b{rule_id}\b", invariants):
            problems.append(
                f"reprolint rule {rule_id} is not documented in "
                "docs/invariants.md (every registered rule must be "
                "catalogued)"
            )
    for rule_id in sorted(set(re.findall(r"`([A-Z]\d{3})`", invariants))):
        if rule_id not in rule_ids:
            problems.append(
                f"docs/invariants.md documents rule {rule_id}, which is "
                "not registered under src/repro/staticcheck/"
            )

    if problems:
        print("docs-check: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs-check: OK ({len(scripts)} benchmark scripts catalogued, "
        f"{len(packages)} packages documented, "
        f"{len(exports)} façade exports documented, "
        f"{len(fields)} policy fields tabled, "
        f"{len(rule_ids)} reprolint rules catalogued, "
        f"{len(REQUIRED_DOCS)} documentation files present)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
