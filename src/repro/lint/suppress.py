"""Inline suppressions: ``# repro-lint: disable=RULE[,RULE…]``.

A finding is suppressed when its line carries a ``disable`` comment
naming its rule (or ``all``), when the previous line carries a
``disable-next-line`` comment, or when the file carries a file-level
``disable-file`` comment anywhere.  Comments are located with
:mod:`tokenize`, so directives inside string literals do not count.  A
justification may follow after `` -- `` and is strongly encouraged::

    rng = np.random.default_rng()  # repro-lint: disable=D102 -- fuzz only

    # repro-lint: disable-next-line=W403 -- pinned reference loop
    counts = arrival.sample_day(rng)

Unknown rule ids in a directive are themselves reported as findings
(rule ``X001``) — a typo in a suppression must not silently disable
nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable

from .rules import Finding, known_rule_ids

#: Directive grammar inside a comment.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-next-line|disable-file|disable)"
    r"\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<why>.*))?$"
)

#: Rule id reported for malformed/unknown suppression directives.
DIRECTIVE_RULE_ID = "X001"


@dataclass(frozen=True)
class Suppression:
    """One parsed directive: the rules it disables and where.

    ``line`` is the line the directive *covers* — for a
    ``disable-next-line`` comment on line N that is N+1.
    """

    line: int
    file_level: bool
    rules: frozenset[str]
    justification: str | None

    def covers(self, finding: Finding) -> bool:
        """Whether this directive suppresses the given finding."""
        if "all" not in self.rules and finding.rule not in self.rules:
            return False
        return self.file_level or finding.line == self.line


def parse_suppressions(
    path: str, source: str
) -> tuple[list[Suppression], list[Finding]]:
    """Extract directives from one file's comments.

    Returns the parsed suppressions plus X001 findings for directives
    naming unknown rule ids (typos must be loud).  Unreadable token
    streams (the driver flags syntax errors separately) yield nothing.
    """
    suppressions: list[Suppression] = []
    problems: list[Finding] = []
    known = known_rule_ids()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(token.string)
        if match is None:
            if "repro-lint:" in token.string:
                problems.append(
                    _directive_finding(
                        path, token.start[0],
                        f"malformed repro-lint directive: {token.string!r}",
                    )
                )
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",")
            if part.strip()
        )
        unknown = sorted(r for r in rules if r != "all" and r not in known)
        if unknown:
            problems.append(
                _directive_finding(
                    path, token.start[0],
                    f"suppression names unknown rule(s) {unknown}",
                )
            )
        valid = frozenset(r for r in rules if r == "all" or r in known)
        if valid:
            kind = match.group("kind")
            covered_line = token.start[0]
            if kind == "disable-next-line":
                covered_line += 1
            suppressions.append(
                Suppression(
                    line=covered_line,
                    file_level=kind == "disable-file",
                    rules=valid,
                    justification=match.group("why") or None,
                )
            )
    return suppressions, problems


def _directive_finding(path: str, line: int, message: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=0,
        rule=DIRECTIVE_RULE_ID,
        severity="error",
        message=message,
        symbol="<module>",
    )


def apply_suppressions(
    findings: Iterable[Finding], suppressions: list[Suppression]
) -> tuple[list[Finding], int]:
    """Split findings into (kept, suppressed-count)."""
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if any(s.covers(finding) for s in suppressions):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed
