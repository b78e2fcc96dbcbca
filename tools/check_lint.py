#!/usr/bin/env python
"""Dependency-free approximation of the repo's ruff configuration.

CI runs real ruff (``E``, ``F``, ``W``, ``B`` minus the pyproject ignore
list); this script re-implements the mechanizable core of those families
so contributors without ruff installed can still gate locally:

* E401 multiple imports on one line
* E501 line too long (line-length = 100)
* E711/E712 comparisons to None/True/False
* E722 bare except
* E731 lambda assignment
* E741 ambiguous single-letter names (l, O, I)
* W291/W293 trailing whitespace, W292 missing final newline
* W605 invalid escape sequence
* F401 unused import (module scope, no __all__ re-export heuristics
  beyond names listed in __all__)
* F811 redefinition of an imported name by another import
* F841 unused local variable (simple assignments only)
* B006 mutable default argument
* B904 raise without ``from`` inside an except handler

plus three repo rules ruff cannot express:

* X001 a module under ``src/`` or ``examples/`` other than
  ``runtime/executor.py`` touches a private attribute of a
  ``DistributedExecutor`` (``ex._x``, ``executor._x``, ``self.ex._x``) —
  what other packages (and an example's reader) need is a public,
  documented attribute, an argument, or the result ``run`` returns
* X002 a module under ``src/`` other than ``systems.py`` constructs a
  ``DistributedExecutor`` or imports an underscore name from
  ``repro.systems`` — every entry point plans its run through
  ``repro.systems.plan_run`` and takes executors from the plan
* X003 a module under ``src/`` other than ``options.py`` declares a job
  option a second time: an ``add_argument`` whose flag literal spells one,
  on a parser that takes the generated flags (``add_job_flags(cmd, ...)``;
  other subcommands keep their own ``--app`` / ``--workers``), or a dict /
  tuple / list / set literal naming three or more of them (the five
  fields that name the job itself — app, workload, hosts, system,
  scale_delta — label every result row and are not counted)

Usage: python tools/check_lint.py [paths...]
(default: src tests tools benchmarks examples)
"""

from __future__ import annotations

import ast
import re
import sys
import tokenize
from pathlib import Path

MAX_LINE = 100
EXECUTOR_PRIVATE = re.compile(r"\b(ex|executor|self\.ex)\._[a-z]")
EXECUTOR_MODULE = Path("src/repro/runtime/executor.py")
SYSTEMS_MODULE = Path("src/repro/systems.py")
OPTIONS_MODULE = Path("src/repro/options.py")
AMBIGUOUS = {"l", "O", "I"}
VALID_ESCAPES = set("\n\\'\"abfnrtv01234567xNuU")


def _option_table():
    """``(option names, flag spellings)`` X003 guards, read off the
    ``option(...)`` declarations of ``JobSpec`` without importing ``repro``."""
    source = (Path(__file__).resolve().parents[1] / OPTIONS_MODULE).read_text()
    names, flags = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)):
            continue
        if getattr(node.value.func, "id", None) != "option":
            continue
        given = {kw.arg: kw.value for kw in node.value.keywords}
        name = node.target.id
        if given["feeds"].value != "job":
            names.add(name)
        flag = given.get("flag")
        flags.add(flag.value if flag is not None else "--" + name.replace("_", "-"))
    return names, flags


OPTION_NAMES, OPTION_FLAGS = _option_table()


def _iter_files(paths):
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _line_checks(path, lines, problems):
    for index, line in enumerate(lines, start=1):
        body = line.rstrip("\n")
        if len(body) > MAX_LINE:
            problems.append((path, index, "E501", f"line too long ({len(body)} > {MAX_LINE})"))
        if body != body.rstrip():
            code = "W293" if not body.strip() else "W291"
            problems.append((path, index, code, "trailing whitespace"))
    if lines and not lines[-1].endswith("\n"):
        problems.append((path, len(lines), "W292", "no newline at end of file"))


def _seam_checks(path, lines, problems):
    if path.parts[:1] not in (("src",), ("examples",)) or path == EXECUTOR_MODULE:
        return
    for index, line in enumerate(lines, start=1):
        if EXECUTOR_PRIVATE.search(line):
            problems.append(
                (path, index, "X001", "private executor attribute used outside executor.py")
            )


def _string_escapes(path, source, problems):
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for token in tokens:
            if token.type != tokenize.STRING:
                continue
            text = token.string
            prefix = re.match(r"[A-Za-z]*", text).group(0).lower()
            if "r" in prefix or "b" in prefix:
                continue
            stripped = re.sub(r"^[A-Za-z]*('''|\"\"\"|'|\")", "", text)
            position = 0
            while True:
                position = stripped.find("\\", position)
                if position == -1 or position + 1 >= len(stripped):
                    break
                if stripped[position + 1] not in VALID_ESCAPES:
                    problems.append(
                        (path, token.start[0], "W605",
                         f"invalid escape sequence '\\{stripped[position + 1]}'")
                    )
                position += 2
    except tokenize.TokenError:
        pass


class _AstChecker(ast.NodeVisitor):
    def __init__(self, path, source, problems):
        self.path = path
        self.problems = problems
        self.tree = ast.parse(source)
        #: X002 applies: under ``src/`` and not the planning module itself.
        self.plans_elsewhere = (
            Path(path).parts[:1] == ("src",) and Path(path) != SYSTEMS_MODULE
        )
        #: X003 applies: under ``src/`` and not the option table itself.
        self.declares_elsewhere = (
            Path(path).parts[:1] == ("src",) and Path(path) != OPTIONS_MODULE
        )
        self.used_names = {
            node.id
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        self.used_attr_roots = {
            node.value.id
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        }
        self.exported = self._exported_names()
        self.in_except = 0
        #: Names of the parsers handed to ``add_job_flags`` (X003).
        self.job_parsers = {
            node.args[0].id
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "add_job_flags"
            and node.args and isinstance(node.args[0], ast.Name)
        }

    def _exported_names(self):
        names = set()
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant):
                        names.add(str(element.value))
        return names

    def report(self, node, code, message):
        self.problems.append((self.path, node.lineno, code, message))

    def run(self):
        self._check_module_imports()
        self.visit(self.tree)

    def _check_module_imports(self):
        seen = {}
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                if len(node.names) > 1:
                    self.report(node, "E401", "multiple imports on one line")
                for alias in node.names:
                    self._check_import_use(node, alias, alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._check_import_use(node, alias, alias.name)
            else:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound in seen and bound not in self.used_names:
                    self.report(node, "F811", f"redefinition of unused {bound!r}")
                seen[bound] = node.lineno

    def _check_import_use(self, node, alias, default_bound):
        bound = alias.asname or default_bound
        if bound.startswith("_") or bound in self.exported:
            return
        if alias.asname is not None and alias.asname == alias.name.split(".")[-1]:
            return  # "import x as x" / "from m import x as x" re-export idiom
        if alias.asname is None and alias.name != default_bound:
            # "import a.b" binds "a"; usage through attributes counts.
            pass
        if (
            bound not in self.used_names
            and bound not in self.used_attr_roots
        ):
            self.report(node, "F401", f"{bound!r} imported but unused")

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if self.plans_elsewhere and name == "DistributedExecutor":
            self.report(
                node, "X002",
                "DistributedExecutor constructed outside systems.py (use RunPlan.executor)",
            )
        receiver = getattr(getattr(node.func, "value", None), "id", None)
        if self.declares_elsewhere and name == "add_argument" and receiver in self.job_parsers:
            spelled = {getattr(arg, "value", None) for arg in node.args} & OPTION_FLAGS
            if spelled:
                self.report(
                    node, "X003",
                    f"job flag {min(spelled)} declared by hand (repro.options generates it)",
                )
        self.generic_visit(node)

    def _check_option_list(self, node, elements):
        named = {getattr(element, "value", None) for element in elements} & OPTION_NAMES
        if self.declares_elsewhere and len(named) >= 3:
            self.report(
                node, "X003",
                f"second list of job options ({', '.join(sorted(named))}) outside options.py",
            )
        self.generic_visit(node)

    def visit_Dict(self, node):
        self._check_option_list(node, node.keys)

    def visit_Tuple(self, node):
        self._check_option_list(node, node.elts)

    visit_List = visit_Set = visit_Tuple

    def visit_ImportFrom(self, node):
        if self.plans_elsewhere and node.module == "repro.systems":
            for alias in node.names:
                if alias.name.startswith("_"):
                    self.report(
                        node, "X002", f"private {alias.name!r} imported from repro.systems"
                    )

    def visit_Compare(self, node):
        for comparator, op in zip(node.comparators, node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)) and isinstance(
                comparator, ast.Constant
            ):
                if comparator.value is None:
                    self.report(node, "E711", "comparison to None (use 'is')")
                elif comparator.value is True or comparator.value is False:
                    self.report(node, "E712", "comparison to bool (use 'is' or bare truth)")
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        if node.type is None:
            self.report(node, "E722", "bare 'except'")
        self.in_except += 1
        self.generic_visit(node)
        self.in_except -= 1

    def visit_Raise(self, node):
        if (
            self.in_except
            and node.exc is not None
            and node.cause is None
            and isinstance(node.exc, ast.Call)
        ):
            self.report(
                node, "B904",
                "raise inside 'except' without 'from' (exception chaining)",
            )
        self.generic_visit(node)

    def visit_Assign(self, node):
        if isinstance(node.value, ast.Lambda) and all(
            isinstance(target, ast.Name) for target in node.targets
        ):
            self.report(node, "E731", "lambda assignment (use 'def')")
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in AMBIGUOUS:
                self.report(node, "E741", f"ambiguous variable name {target.id!r}")
        self.generic_visit(node)

    def _check_function(self, node):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set"}
            ):
                self.report(default, "B006", "mutable default argument")
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if arg.arg in AMBIGUOUS:
                self.report(arg, "E741", f"ambiguous argument name {arg.arg!r}")
        self._check_unused_locals(node)

    def _check_unused_locals(self, node):
        loads = {
            child.id
            for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        for child in node.body:
            for sub in ast.walk(child):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                ):
                    name = sub.targets[0].id
                    if (
                        not name.startswith("_")
                        and name not in loads
                        and name not in self.exported
                    ):
                        self.problems.append(
                            (self.path, sub.lineno, "F841",
                             f"local variable {name!r} assigned but never used")
                        )

    def visit_FunctionDef(self, node):
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node):
        self._check_function(node)
        self.generic_visit(node)


def check_source(path, source):
    """Every problem in one file's ``source``; ``path`` (relative to the
    repo root) decides which repo rules apply."""
    path = Path(path)
    problems = []
    lines = source.splitlines(True)
    _line_checks(path, lines, problems)
    _seam_checks(path, lines, problems)
    _string_escapes(path, source, problems)
    try:
        _AstChecker(str(path), source, problems).run()
    except SyntaxError as exc:
        problems.append((str(path), exc.lineno or 0, "E999", str(exc)))
    return [(str(where), *rest) for where, *rest in problems]


def main(argv):
    targets = argv or ["src", "tests", "tools", "benchmarks", "examples"]
    problems = []
    for path in _iter_files(targets):
        problems.extend(check_source(path, path.read_text()))
    problems = sorted(set(problems))
    for path, line, code, message in problems:
        print(f"{path}:{line}: {code} {message}")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
