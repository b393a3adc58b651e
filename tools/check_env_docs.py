#!/usr/bin/env python3
"""SMG_* environment-variable documentation checker (stdlib only).

EXPERIMENTS.md is the authoritative registry of runtime knobs.  This
script cross-checks it against the code in both directions:

  * every `SMG_*` variable the code actually reads — via `getenv`,
    `env_value` or the `env_double`/`env_int` wrappers in src/, plus the
    bench harness —
    must appear in EXPERIMENTS.md, so no knob ships undocumented;
  * every `SMG_*` token EXPERIMENTS.md mentions must still be read
    somewhere, so the table cannot go stale when a knob is removed.

`SMG_` preprocessor identifiers that are not environment reads
(SMG_CHECK, SMG_RESTRICT, the SMG_BENCH registration macro, ...) never
match because only the argument of an env-read call is collected.

Exit code 0 when both directions are clean, 1 with a list otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC = REPO / "EXPERIMENTS.md"

SCANNED_DIRS = [REPO / "src", REPO / "bench"]
SOURCE_SUFFIXES = {".cpp", ".hpp"}

# getenv("SMG_X"), the shared reading rule env_value("SMG_X") of
# src/util/env.hpp, and the typed wrappers env_double("SMG_X", ...),
# env_int("SMG_X", ...).  Only string literals count: a variable-named
# read cannot be checked and is a style error anyway.  The call may be
# wrapped across lines by clang-format, so match on whole-file text.
READ_RE = re.compile(
    r'\b(?:getenv|env_value|env_double|env_int)\s*\(\s*"(SMG_[A-Z0-9_]+)"'
)

DOC_TOKEN_RE = re.compile(r"\bSMG_[A-Z0-9_]+\b")


def env_reads() -> dict:
    """Map of SMG_* variable -> first 'file:line' reading it."""
    reads = {}
    for root in SCANNED_DIRS:
        for path in sorted(root.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            for m in READ_RE.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                where = f"{path.relative_to(REPO)}:{lineno}"
                reads.setdefault(m.group(1), where)
    return reads


def documented_tokens() -> set:
    text = DOC.read_text(encoding="utf-8")
    return set(DOC_TOKEN_RE.findall(text))


def main() -> int:
    reads = env_reads()
    documented = documented_tokens()

    problems = []
    for var in sorted(set(reads) - documented):
        problems.append(
            f"undocumented env var: {var} (read at {reads[var]}) "
            f"has no entry in {DOC.name}"
        )
    for var in sorted(documented - set(reads)):
        problems.append(
            f"stale doc entry: {var} appears in {DOC.name} but nothing "
            f"under {'/'.join(d.name for d in SCANNED_DIRS)} reads it"
        )

    if problems:
        print(f"check_env_docs: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1

    print(
        f"check_env_docs: OK ({len(reads)} env vars read in code, "
        f"all documented in {DOC.name}, no stale entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
