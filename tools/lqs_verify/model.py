"""Shared IR for lqs-verify's frontend and checkers.

The frontend (frontend_lite, a built-in tokenizer) lowers C++ sources into
this model; the checkers in checks.py consume only the model, so they stay
independent of how the sources were scanned.

The model is deliberately small: functions with their call sites,
allocation sites, lock-acquisition sites, and determinism hazards; the
include graph; per-class concurrency state (mutex members and their
GUARDED_BY coverage); the lock_rank registry; and comment-level
suppressions. It is exactly the information the five checkers need — not a
general AST.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Set, Tuple


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str  # simple callee name, e.g. "EstimateInto"
    line: int
    is_method_call: bool = False  # x.f(...) or x->f(...)
    qualifier: Optional[str] = None  # "Class" for Class::f(...)
    # The call is a full expression statement whose value is dropped.
    discarded: bool = False
    # The drop was explicit: (void)f(...).
    void_cast: bool = False
    # `T v = f(...);` / `auto v = f(...);`: the variable name, else None.
    assigned_to: Optional[str] = None
    # When assigned_to is set: the variable appears again later in the body.
    consulted: bool = True
    # Names of lqs::Mutex objects lexically held at the call site (MutexLock
    # scopes and explicit Lock()/Unlock() pairs; REQUIRES-implied locks are
    # added by the checker, which sees all declarations of the caller).
    held: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class AllocSite:
    """One lexical allocating operation inside a function body."""

    kind: str  # "new" | "alloc-fn" | "container"
    what: str  # e.g. "operator new", "malloc", "push_back"
    line: int


@dataclasses.dataclass
class AcquireSite:
    """One lock acquisition inside a function body.

    kind "lock" covers `MutexLock l(&mu_)` scopes and explicit `mu_.Lock()`;
    kind "wait" is `cv_.Wait(&mu_)` — a blocking re-acquisition of `mutex`
    that must not happen while any *other* lock is held.
    """

    mutex: str  # simple name of the mutex object, e.g. "stats_mu_"
    kind: str  # "lock" | "wait"
    line: int
    # Mutex names lexically held when this acquisition happens.
    held: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class HazardSite:
    """One lexical determinism hazard inside a function body.

    kinds: "wall-clock" (steady_clock::now, time, ...), "rand" (std::rand,
    std::random_device, mt19937, ...), "env" (getenv family), "iter"
    (range-for or begin()/end() over a named container — the checker
    resolves `what` against the model-wide unordered / pointer-keyed
    container registries; unregistered names are not hazards).
    """

    kind: str  # "wall-clock" | "rand" | "env" | "iter"
    what: str  # e.g. "steady_clock::now", "rand", container member name
    line: int


@dataclasses.dataclass
class MutexMember:
    """One owned lqs::Mutex — a class member or a function-local object."""

    name: str
    line: int
    has_init: bool = False
    # `lock_rank::kFoo` (or a bare named constant) from the first
    # constructor argument; None when default-constructed or numeric.
    rank_name: Optional[str] = None
    # A numeric-literal first argument (itself a finding in src/).
    rank_literal: Optional[int] = None


@dataclasses.dataclass
class FieldMember:
    """One data member of a mutex-owning class (coverage rule input)."""

    name: str
    line: int
    guarded_by: Optional[str] = None  # LQS_GUARDED_BY target, "" if empty
    is_const: bool = False  # immutable after construction
    is_static: bool = False
    # Synchronization primitive or internally-synchronized type (Mutex,
    # CondVar, std::atomic): exempt from the coverage rule by construction.
    is_sync: bool = False


@dataclasses.dataclass
class ClassConcurrency:
    """Concurrency-relevant state of one class that owns an lqs::Mutex."""

    name: str
    file: str
    line: int
    mutexes: List[MutexMember] = dataclasses.field(default_factory=list)
    fields: List[FieldMember] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class FunctionInfo:
    """One function declaration or definition."""

    name: str  # simple name
    qualname: str  # "Class::Name" or "Name"
    file: str
    line: int
    is_definition: bool = False
    is_virtual: bool = False
    returns_status: bool = False  # return type mentions Status/StatusOr
    noalloc: bool = False  # carries LQS_NOALLOC
    # LQS_ALLOC_OK justification; None = not annotated, "" = annotated with
    # an empty justification (itself a finding).
    alloc_ok: Optional[str] = None
    deterministic: bool = False  # carries LQS_DETERMINISTIC
    # LQS_REQUIRES(...) mutex names (annotation usually lives on the header
    # declaration; checkers merge decls and defs by qualname).
    requires: List[str] = dataclasses.field(default_factory=list)
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    allocs: List[AllocSite] = dataclasses.field(default_factory=list)
    acquires: List[AcquireSite] = dataclasses.field(default_factory=list)
    hazards: List[HazardSite] = dataclasses.field(default_factory=list)
    # Function-local `Mutex m(rank, ...)` declarations (rank rule input).
    local_mutexes: List[MutexMember] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Suppression:
    kind: str  # "alloc-ok" | "status-ok" | "lock-ok" | "guard-ok" | "det-ok"
    justification: str
    line: int


@dataclasses.dataclass
class SourceModel:
    """Everything the checkers consume, for one analyzed file set."""

    # All function decls/defs, in file order.
    functions: List[FunctionInfo] = dataclasses.field(default_factory=list)
    # file -> [(line, include-path-as-written)] for quoted includes.
    includes: Dict[str, List[Tuple[int, str]]] = dataclasses.field(
        default_factory=dict)
    # file -> line -> Suppression (comment escapes).
    suppressions: Dict[str, Dict[int, Suppression]] = dataclasses.field(
        default_factory=dict)
    # Simple names of functions whose return type is Status/StatusOr.
    status_names: Set[str] = dataclasses.field(default_factory=set)
    # Classes owning at least one lqs::Mutex member, with coverage state.
    classes: List[ClassConcurrency] = dataclasses.field(default_factory=list)
    # The lock_rank registry: named rank -> value, merged across files.
    lock_ranks: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Declared names of std::unordered_* containers, model-wide (a header
    # declares the member, a .cc iterates it).
    unordered_names: Set[str] = dataclasses.field(default_factory=set)
    # Declared names of ordered containers keyed on a pointer type.
    ptr_keyed_names: Set[str] = dataclasses.field(default_factory=set)

    def merge(self, other: "SourceModel") -> None:
        self.functions.extend(other.functions)
        self.includes.update(other.includes)
        self.suppressions.update(other.suppressions)
        self.status_names.update(other.status_names)
        self.classes.extend(other.classes)
        self.lock_ranks.update(other.lock_ranks)
        self.unordered_names.update(other.unordered_names)
        self.ptr_keyed_names.update(other.ptr_keyed_names)

    def definitions_by_name(self) -> Dict[str, List[FunctionInfo]]:
        index: Dict[str, List[FunctionInfo]] = {}
        for fn in self.functions:
            if fn.is_definition:
                index.setdefault(fn.name, []).append(fn)
        return index

    def suppression_for(self, path: str, line: int,
                        kind: str) -> Optional[Suppression]:
        """Suppression on `line` or the line directly above it."""
        per_file = self.suppressions.get(path, {})
        for candidate in (line, line - 1):
            sup = per_file.get(candidate)
            if sup is not None and sup.kind == kind:
                return sup
        return None


@dataclasses.dataclass
class Finding:
    """One diagnostic. `check` is the checker id; `chain` the call chain
    (noalloc) or empty."""

    check: str  # "status" | "noalloc" | "layering" | "locks" | "determinism"
    file: str
    line: int
    message: str
    chain: List[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        text = f"{self.file}:{self.line}: [{self.check}] {self.message}"
        if self.chain:
            text += "\n    call chain: " + " -> ".join(self.chain)
        return text


# ---------------------------------------------------------------------------
# Comment suppressions are parsed from raw text, independently of the
# structural scan, so the escape hatch reads exactly what the author wrote.

_ALLOC_OK_COMMENT = re.compile(
    r'(?://|/\*).*?LQS_ALLOC_OK\(\s*"((?:[^"\\]|\\.)*)"\s*\)')
_VERIFY_COMMENT = re.compile(
    r'(?://|/\*).*?lqs-verify:\s*'
    r'(status-ok|lock-ok|guard-ok|det-ok)\(([^)]*)\)')
# An LQS_ALLOC_OK in a comment with no ("...") argument at all — catches
# `// LQS_ALLOC_OK` and `// LQS_ALLOC_OK()`, which must not silently count
# as a justified escape. Prose mentions like "LQS_ALLOC_OK-annotated" in
# doc comments are not suppressions.
_ALLOC_OK_BARE = re.compile(r'(?://|/\*).*?LQS_ALLOC_OK(?![\w-])(?!\(\s*")')


def scan_suppressions(path: str, text: str) -> Dict[int, Suppression]:
    """Extract comment-level escape hatches, keyed by 1-based line."""
    found: Dict[int, Suppression] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _ALLOC_OK_COMMENT.search(line)
        if match:
            found[lineno] = Suppression("alloc-ok", match.group(1).strip(),
                                        lineno)
            continue
        if _ALLOC_OK_BARE.search(line):
            found[lineno] = Suppression("alloc-ok", "", lineno)
            continue
        match = _VERIFY_COMMENT.search(line)
        if match:
            found[lineno] = Suppression(match.group(1),
                                        match.group(2).strip(), lineno)
    return found


_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def scan_includes(text: str) -> List[Tuple[int, str]]:
    """Quoted includes with their 1-based line numbers."""
    result = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _INCLUDE.match(line)
        if match:
            result.append((lineno, match.group(1)))
    return result


# Raw-text scan of the lock_rank registry (the constants are plain
# `inline constexpr int` in a named namespace — no AST needed).
_RANK_CONSTANT = re.compile(
    r'^\s*(?:inline\s+)?constexpr\s+int\s+(k\w+)\s*=\s*(\d+)\s*;')


def scan_lock_ranks(text: str) -> Dict[str, int]:
    """`lock_rank` registry entries in `text`, name -> value."""
    if "namespace lock_rank" not in text:
        return {}
    ranks: Dict[str, int] = {}
    for line in text.splitlines():
        match = _RANK_CONSTANT.match(line)
        if match:
            ranks[match.group(1)] = int(match.group(2))
    return ranks
