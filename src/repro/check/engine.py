"""Engine for ``repro check``: file walker, rule registry, noqa, reporters.

The engine is deliberately small and stdlib-only.  It parses every
``*.py`` file under a root once, hands each :class:`CheckedFile` to every
applicable rule, collects :class:`Finding` objects and drops the ones
suppressed by an inline ``# repro: noqa[RULE-ID]`` comment; every finding
left fails the run.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ALL_RULES",
    "CheckResult",
    "CheckedFile",
    "Finding",
    "Rule",
    "render_json",
    "render_text",
    "run_check",
]

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[RC001,RC003]`` (listed
#: rules only), anywhere in a comment on the flagged line.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str          # repo-relative, forward slashes
    line: int
    col: int
    message: str

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class CheckedFile:
    """A parsed source file handed to each rule."""

    abspath: str
    rel: str                        # forward-slash path relative to the root
    source: str
    tree: ast.AST
    #: line number -> set of rule ids suppressed there (empty set == all)
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        return not rules or rule.upper() in rules


class Rule:
    """Base class for checker rules.

    Subclasses set :attr:`id` / :attr:`title`, and implement
    :meth:`check`; override :meth:`applies` to scope the rule to a subset
    of files.  Rules must be deterministic: same tree in, same findings
    out, in source order.
    """

    id: str = "RC000"
    title: str = ""

    def applies(self, cf: CheckedFile) -> bool:
        return True

    def check(self, cf: CheckedFile) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, cf: CheckedFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=cf.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class CheckResult:
    """Everything a reporter needs about one check run."""

    root: str
    files_checked: int
    #: the findings no inline noqa suppressed, in source order
    findings: List[Finding]
    suppressed: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _extract_noqa(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed rule ids (empty set == all rules).

    Uses the tokenizer so string literals containing ``# repro: noqa``
    never suppress anything.  Falls back to a per-line regex scan when the
    file does not tokenize (the parse error is reported separately).
    """
    noqa: Dict[int, Set[str]] = {}

    def record(line: int, comment: str) -> None:
        match = _NOQA_RE.search(comment)
        if not match:
            return
        rules = match.group("rules")
        if rules:
            ids = {part.strip().upper() for part in rules.split(",")
                   if part.strip()}
            noqa.setdefault(line, set()).update(ids)
        else:
            noqa[line] = set()       # bare noqa: suppress every rule

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.string)
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for idx, line in enumerate(source.splitlines(), start=1):
            if "#" in line:
                record(idx, line[line.index("#"):])
    return noqa


def _walk_python_files(root: str) -> List[str]:
    """Deterministically list ``*.py`` files under ``root``."""
    out: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                out.append(os.path.join(dirpath, name))
    return out


def _load_file(abspath: str, rel: str) -> Tuple[Optional[CheckedFile],
                                                Optional[Finding]]:
    try:
        with open(abspath, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding("RC000", rel, 1, 0, f"unreadable: {exc}")
    try:
        tree = ast.parse(source, filename=abspath)
    except SyntaxError as exc:
        return None, Finding("RC000", rel, exc.lineno or 1, 0,
                             f"syntax error: {exc.msg}")
    return CheckedFile(abspath=abspath, rel=rel, source=source, tree=tree,
                       noqa=_extract_noqa(source)), None


def run_check(root: str,
              rules: Optional[Sequence[Rule]] = None) -> CheckResult:
    """Run ``rules`` over every Python file under ``root``.

    ``root`` is typically the ``repro`` package directory; finding paths
    are relative to it so reports are machine-independent.
    """
    if rules is None:
        rules = ALL_RULES
    root = os.path.abspath(root)
    findings: List[Finding] = []
    suppressed = 0
    files = _walk_python_files(root)
    for abspath in files:
        rel = os.path.relpath(abspath, root).replace(os.sep, "/")
        cf, parse_finding = _load_file(abspath, rel)
        if parse_finding is not None:
            findings.append(parse_finding)
            continue
        assert cf is not None
        for rule in rules:
            if not rule.applies(cf):
                continue
            for finding in rule.check(cf):
                if cf.suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CheckResult(root=root, files_checked=len(files),
                       findings=findings, suppressed=suppressed)


# ---------------------------------------------------------------- reporters

def render_text(result: CheckResult) -> str:
    lines = [f"{finding.path}:{finding.line}:{finding.col}: "
             f"{finding.rule} {finding.message}"
             for finding in result.findings]
    lines.append(f"checked {result.files_checked} files: "
                 f"{len(result.findings)} new, "
                 f"{result.suppressed} suppressed")
    return "\n".join(lines)


def render_json(result: CheckResult) -> str:
    payload = {
        "version": 1,
        "files_checked": result.files_checked,
        "new": [f.to_json() for f in result.findings],
        "suppressed": result.suppressed,
        "counts": {
            "new": len(result.findings),
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# Populated by repro.check.rules at import time (it imports this module, so
# the registry lives here to avoid a cycle); ``from .rules import ALL_RULES``
# would be circular for rule modules needing Rule/Finding.
ALL_RULES: List[Rule] = []


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add to :data:`ALL_RULES`."""
    ALL_RULES.append(rule_cls())
    return rule_cls
