"""lardlint driver: scope resolution, directive handling, CLI entry point.

Rule families are applied by package path:

* determinism — ``repro.sim``, ``repro.core``, ``repro.cache``,
  ``repro.cluster``, ``repro.workload``, ``repro.analysis`` (everything
  whose output must be a pure function of the trace and the seed);
* concurrency — ``repro.handoff``, ``repro.obs`` (the threaded
  live-cluster prototype and its observability layer);
* hygiene — every file.

Files outside the ``repro`` package (the lint fixture corpus under
``tests/lint_fixtures/``) get hygiene only, unless they force scopes with
a ``# lardlint: scope=...`` directive.

:func:`lint_file` runs the per-file rules on one file;
:func:`lint_paths` additionally builds the project call graph
(:mod:`repro.lint.callgraph`) over *all* the files and runs the
whole-program passes — interprocedural determinism taint and lockset
verification — on top.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import callgraph, concurrency, determinism, hygiene, interproc, locksets
from .context import FileContext
from .findings import Finding
from .suppress import Suppressions, parse_suppressions

__all__ = [
    "ALL_RULES",
    "SCOPE_DETERMINISM",
    "SCOPE_CONCURRENCY",
    "SCOPE_HYGIENE",
    "ALL_SCOPES",
    "lint_file",
    "lint_paths",
    "main",
]

SCOPE_DETERMINISM = "determinism"
SCOPE_CONCURRENCY = "concurrency"
SCOPE_HYGIENE = "hygiene"
ALL_SCOPES: FrozenSet[str] = frozenset(
    {SCOPE_DETERMINISM, SCOPE_CONCURRENCY, SCOPE_HYGIENE}
)

#: Every suppressible rule id (``bad-suppression`` itself is deliberately
#: not suppressible — a typo'd directive must always surface).
ALL_RULES: FrozenSet[str] = frozenset(
    determinism.RULES
    + concurrency.RULES
    + hygiene.RULES
    + interproc.RULES
    + locksets.RULES
)

_SCOPE_CHECKS = (
    (SCOPE_DETERMINISM, determinism.check),
    (SCOPE_CONCURRENCY, concurrency.check),
    (SCOPE_HYGIENE, hygiene.check),
)

_DETERMINISM_PACKAGES = frozenset(
    {"sim", "core", "cache", "cluster", "workload", "analysis"}
)
_CONCURRENCY_PACKAGES = frozenset({"handoff", "obs"})

_hierarchy_cache: Dict[Path, Tuple[str, ...]] = {}


def _repro_package(path: Path) -> str:
    """Sub-package of ``repro`` that ``path`` sits in (``""`` if outside).

    Anchored on the *actual* package root — the topmost directory with an
    ``__init__.py`` — not on any path component that happens to be named
    ``repro``, so a checkout under ``/home/repro-x/...`` classifies
    correctly.
    """
    resolved = path.resolve()
    root = callgraph.package_root(resolved)
    if root is None or root.name != "repro":
        return ""
    relative = resolved.relative_to(root)
    return relative.parts[0] if len(relative.parts) > 1 else ""


def _default_scopes(package: str) -> FrozenSet[str]:
    scopes = {SCOPE_HYGIENE}
    if package in _DETERMINISM_PACKAGES:
        scopes.add(SCOPE_DETERMINISM)
    if package in _CONCURRENCY_PACKAGES:
        scopes.add(SCOPE_CONCURRENCY)
    return frozenset(scopes)


def _load_lock_hierarchy(directory: Path) -> Tuple[str, ...]:
    """``LOCK_HIERARCHY`` from ``<directory>/locks.py``, parsed via AST.

    The declaration is read syntactically (never imported) so the linter
    can analyze a tree that does not import cleanly.
    """
    if directory in _hierarchy_cache:
        return _hierarchy_cache[directory]
    hierarchy: Tuple[str, ...] = ()
    locks_file = directory / "locks.py"
    if locks_file.is_file():
        try:
            tree = ast.parse(locks_file.read_text(encoding="utf-8"))
        except SyntaxError:
            tree = None
        if tree is not None:
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "LOCK_HIERARCHY":
                        names: List[str] = []
                        if isinstance(value, (ast.Tuple, ast.List)):
                            for elt in value.elts:
                                if isinstance(elt, ast.Constant) and isinstance(
                                    elt.value, str
                                ):
                                    names.append(elt.value)
                        hierarchy = tuple(names)
    _hierarchy_cache[directory] = hierarchy
    return hierarchy


class _ParsedFile:
    """One successfully parsed file plus its lint context."""

    __slots__ = ("path", "display", "source", "tree", "scopes", "suppressions")

    def __init__(
        self,
        path: Path,
        display: str,
        source: str,
        tree: ast.Module,
        scopes: FrozenSet[str],
        suppressions: Suppressions,
    ) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree = tree
        self.scopes = scopes
        self.suppressions = suppressions


def _lint_one(
    path: Path, scopes: Optional[FrozenSet[str]] = None
) -> Tuple[List[Finding], Optional[_ParsedFile]]:
    """Per-file rules for ``path``: (findings, parsed file or None)."""
    display = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding(display, 1, 0, "parse-error", f"cannot read file: {exc}")], None
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    display, exc.lineno or 1, 0, "parse-error", f"syntax error: {exc.msg}"
                )
            ],
            None,
        )

    suppressions = parse_suppressions(source, display, ALL_RULES, ALL_SCOPES)
    if scopes is None:
        scopes = suppressions.forced_scopes or _default_scopes(_repro_package(path))

    hierarchy: Tuple[str, ...] = ()
    if SCOPE_CONCURRENCY in scopes:
        hierarchy = _load_lock_hierarchy(path.resolve().parent)

    ctx = FileContext(
        path=display,
        tree=tree,
        scopes=scopes,
        package=_repro_package(path),
        lock_hierarchy=hierarchy,
    )
    for scope, checker in _SCOPE_CHECKS:
        if scope in scopes:
            checker(ctx)

    kept = [
        finding
        for finding in ctx.findings
        if not suppressions.is_suppressed(finding.rule, finding.line)
    ]
    kept.extend(suppressions.errors)
    return kept, _ParsedFile(path, display, source, tree, scopes, suppressions)


def lint_file(path: Path, scopes: Optional[FrozenSet[str]] = None) -> List[Finding]:
    """Run the *per-file* rules on one file, returning sorted findings.

    ``scopes`` overrides both the path-derived defaults and any ``scope=``
    directive in the file (used by tests to pin a fixture's rule set).
    The whole-program passes need the rest of the project and only run
    under :func:`lint_paths`.
    """
    findings, _ = _lint_one(path, scopes)
    return sorted(findings)


def _iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[Path],
    cache_file: Optional[Path] = None,
    stats: Optional[Dict[str, Union[int, float]]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (dirs recurse), sorted.

    Runs the per-file rules on each file, then builds the project call
    graph over all of them and runs the interprocedural passes
    (``transitive-nondeterminism``, ``unverified-locked-helper``,
    ``cross-module-unguarded-write``).

    ``cache_file`` (or the ``REPRO_LINT_CACHE`` environment variable via
    the CLI) persists the built call graph keyed by a digest of all
    sources; ``stats`` receives counts and per-phase timings when given.
    """
    started = time.perf_counter()
    findings: List[Finding] = []
    parsed: List[_ParsedFile] = []
    for file in _iter_python_files(paths):
        per_file, record = _lint_one(file)
        findings.extend(per_file)
        if record is not None:
            parsed.append(record)
    parse_done = time.perf_counter()

    scope_map = {record.display: record.scopes for record in parsed}
    sup_map = {record.display: record.suppressions for record in parsed}
    digest = callgraph.project_digest(
        [(record.display, record.source) for record in parsed]
    )
    project = callgraph.load_cached(cache_file, digest) if cache_file else None
    from_cache = project is not None
    if project is None:
        project = callgraph.build_project(
            [(record.path, record.display, record.tree) for record in parsed], digest
        )
        if cache_file is not None:
            callgraph.store_cached(cache_file, project)
    graph_done = time.perf_counter()

    for finding in (
        interproc.check(project, scope_map, sup_map)
        + locksets.check(project, scope_map)
    ):
        suppressions = sup_map.get(finding.path)
        if suppressions is not None and suppressions.is_suppressed(
            finding.rule, finding.line
        ):
            continue
        findings.append(finding)
    passes_done = time.perf_counter()

    if stats is not None:
        stats["files"] = len(parsed)
        stats["functions"] = len(project.functions)
        stats["classes"] = len(project.classes)
        stats["edges"] = sum(len(f.calls) for f in project.functions.values())
        stats["graph_cached"] = int(from_cache)
        stats["parse_s"] = parse_done - started
        stats["graph_s"] = graph_done - parse_done
        stats["passes_s"] = passes_done - graph_done
        stats["total_s"] = passes_done - started
    return sorted(findings)


def _github_escape(text: str) -> str:
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _emit(findings: Sequence[Finding], fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                [
                    {
                        "path": finding.path,
                        "line": finding.line,
                        "col": finding.col,
                        "rule": finding.rule,
                        "message": finding.message,
                    }
                    for finding in findings
                ],
                indent=2,
            )
        )
        return
    for finding in findings:
        if fmt == "github":
            print(
                f"::error file={finding.path},line={finding.line},"
                f"col={finding.col},title=lardlint {finding.rule}::"
                f"{_github_escape(finding.message)}"
            )
        else:
            print(finding.format())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.lint [paths...]`` — exit 0 iff clean."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="lardlint: determinism, concurrency, and API-hygiene "
        "static analysis for the LARD reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule id and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="finding output format (github prints workflow annotations)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print call-graph size and per-phase analysis timings to stderr",
    )
    parser.add_argument(
        "--callgraph-cache",
        type=Path,
        default=None,
        help="pickle file caching the project call graph keyed by source "
        "digest (default: $REPRO_LINT_CACHE when set)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(ALL_RULES):
            print(rule)
        return 0

    cache_file = args.callgraph_cache
    if cache_file is None:
        cache_env = os.environ.get("REPRO_LINT_CACHE")
        if cache_env:
            cache_file = Path(cache_env)

    paths = args.paths or [Path(__file__).resolve().parent.parent]
    stats: Dict[str, Union[int, float]] = {}
    findings = lint_paths(paths, cache_file=cache_file, stats=stats)
    _emit(findings, args.format)
    if args.statistics:
        print(
            "lardlint: {files} files, {functions} functions, {classes} classes, "
            "{edges} call edges (graph {cached}); parse {parse_s:.3f}s, "
            "graph {graph_s:.3f}s, passes {passes_s:.3f}s, total {total_s:.3f}s".format(
                files=stats.get("files", 0),
                functions=stats.get("functions", 0),
                classes=stats.get("classes", 0),
                edges=stats.get("edges", 0),
                cached="cached" if stats.get("graph_cached") else "rebuilt",
                parse_s=stats.get("parse_s", 0.0),
                graph_s=stats.get("graph_s", 0.0),
                passes_s=stats.get("passes_s", 0.0),
                total_s=stats.get("total_s", 0.0),
            ),
            file=sys.stderr,
        )
    if findings:
        print(f"lardlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
