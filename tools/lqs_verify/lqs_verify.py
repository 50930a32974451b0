#!/usr/bin/env python3
"""lqs-verify: call-graph static analysis for the LQS tree.

Five checkers over one source model (see DESIGN.md §12/§14):

  status       every call to a lqs::Status / lqs::StatusOr-returning
               function must consult its result. [[nodiscard]] +
               -Werror=unused-result catch plain discards at compile time;
               this checker additionally flags (void)-casts and
               assigned-but-never-consulted results.
  noalloc      functions annotated LQS_NOALLOC must not reach an allocation
               through any non-virtual call chain. LQS_ALLOC_OK("why")
               marks a deliberate boundary; a comment form silences one
               call site.
  layering     the src/ dependency DAG: no upward includes, no cycles.
  locks        every lqs::Mutex in src/ carries a named lock_rank;
               acquisition chains are strictly rank-increasing; no blocking
               call is reachable under a lock; mutable members of
               mutex-owning classes are GUARDED_BY-annotated.
               Escapes: // lqs-verify: lock-ok(reason) / guard-ok(reason).
  determinism  LQS_DETERMINISTIC functions must not transitively reach
               wall-clock time, std::rand/std::random_device, environment
               reads, or unordered/pointer-keyed container iteration
               (seeded lqs::Rng and VirtualClock are sanctioned).
               Escape: // lqs-verify: det-ok(reason).

Sources are lowered into the model by the built-in structural scanner
(frontend_lite.py), which needs only a Python interpreter and is pinned by
the fixture suite.

Exit codes: 0 clean, 1 findings, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import frontend_lite  # noqa: E402
from model import Finding  # noqa: E402

# Directories scanned relative to --root. build trees are never walked.
_SOURCE_DIRS = ("src", "tests", "bench", "examples")
_EXTENSIONS = (".h", ".cc")


def collect_sources(root: str) -> List[str]:
    found: List[str] = []
    for rel in _SOURCE_DIRS:
        top = os.path.join(root, rel)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames
                           if d != "build" and not d.startswith("build-")]
            for name in sorted(filenames):
                if name.endswith(_EXTENSIONS):
                    found.append(os.path.join(dirpath, name))
    return sorted(found)


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lqs_verify",
        description="Static analysis gates for the LQS tree.")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--checks", "--check",
                        default="status,noalloc,layering,locks,determinism",
                        help="comma-separated subset of "
                             "status,noalloc,layering,locks,determinism")
    parser.add_argument("--pairing-file", default=None,
                        help="test source whose LQS_NOALLOC_PAIRED markers "
                             "must match the annotation set (default: "
                             "<root>/tests/estimator_alloc_test.cc)")
    parser.add_argument("--no-pairing", action="store_true",
                        help="skip the annotation/runtime-test pairing "
                             "cross-check")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("files", nargs="*",
                        help="analyze only these files (layering still "
                             "walks the whole tree for cycle detection)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    enabled = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = enabled - {"status", "noalloc", "layering", "locks",
                         "determinism"}
    if unknown:
        print(f"lqs-verify: unknown checks: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = [os.path.abspath(p) for p in args.files] or collect_sources(root)
    if not paths:
        print(f"lqs-verify: no sources under {root}", file=sys.stderr)
        return 2

    model, errors = frontend_lite.parse_files(paths)

    findings: List[Finding] = []
    if "status" in enabled:
        findings.extend(checks.check_status(model))
    if "noalloc" in enabled:
        pairing_file = args.pairing_file
        if pairing_file is None and not args.no_pairing:
            default_pairing = os.path.join(root, "tests",
                                           "estimator_alloc_test.cc")
            if os.path.exists(default_pairing):
                pairing_file = default_pairing
        # Required-root presence is a whole-tree property, like determinism.
        findings.extend(checks.check_noalloc(
            model, pairing_file=None if args.no_pairing else pairing_file,
            root=root,
            required=None if args.files else checks.REQUIRED_NOALLOC))
    if "layering" in enabled:
        findings.extend(checks.check_layering(model, root))
    if "locks" in enabled:
        findings.extend(checks.check_locks(model, root))
    if "determinism" in enabled:
        # Required-root presence is a whole-tree property; file-scoped runs
        # only check the chains of the markers they can see.
        findings.extend(checks.check_determinism(
            model, root=root,
            required=None if args.files else checks.REQUIRED_DETERMINISTIC))

    findings.sort(key=lambda f: (f.file, f.line, f.check, f.message))

    if args.json:
        print(json.dumps({
            "files": len(paths),
            "findings": [dataclass_dict(f) for f in findings],
            "parse_errors": errors,
        }, indent=2))
    else:
        for finding in findings:
            rel = os.path.relpath(finding.file, root)
            print(Finding(finding.check, rel, finding.line, finding.message,
                          finding.chain).render())
        for err in errors:
            print(f"lqs-verify: parse error: {err}", file=sys.stderr)
        print(f"lqs-verify: {len(paths)} files, {len(findings)} finding(s), "
              f"{len(errors)} parse error(s)", file=sys.stderr)

    if errors:
        return 2
    return 1 if findings else 0


def dataclass_dict(finding: Finding) -> dict:
    return {"check": finding.check, "file": finding.file,
            "line": finding.line, "message": finding.message,
            "chain": finding.chain}


if __name__ == "__main__":
    sys.exit(run())
