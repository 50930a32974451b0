"""The C++ frontend of lqs-verify: tokenizer + structural scanner.

It needs only a Python interpreter. It is not a C++ parser; it is a structural scanner tuned to this codebase's
style (Google-style headers/sources, no exceptions, no preprocessor
metaprogramming in function bodies) that extracts exactly the facts in
model.SourceModel:

  * function declarations/definitions with qualified names, return types,
    virtual-ness, and the LQS_NOALLOC / LQS_ALLOC_OK / LQS_DETERMINISTIC /
    LQS_REQUIRES annotations,
  * call sites inside bodies, with discard/assignment context and the set
    of lexically-held lqs::Mutex objects (MutexLock scopes, explicit
    Lock()/Unlock() pairs),
  * lock acquisition sites (MutexLock, Lock, CondVar::Wait) and lexical
    allocation sites (operator new, malloc family, growing container
    member calls),
  * determinism hazards (wall-clock reads, std::rand/random_device,
    environment reads, iteration over unordered / pointer-keyed
    containers),
  * per-class concurrency state: lqs::Mutex members with their lock_rank
    construction argument, and every data member's GUARDED_BY coverage,
  * quoted includes, comment-level suppressions, and the lock_rank
    registry (shared helpers in model.py).

Known, deliberate limits (documented in DESIGN.md §12): overloaded
operators and lambdas are analyzed as part of their enclosing function;
calls are resolved by simple name, not overload; template instantiation is
not modeled. The fixture suite in testdata/ pins the exact behavior.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from model import (AcquireSite, AllocSite, CallSite, ClassConcurrency,
                   FieldMember, FunctionInfo, HazardSite, MutexMember,
                   SourceModel, scan_includes, scan_lock_ranks,
                   scan_suppressions)


class FrontendError(Exception):
    pass


# --------------------------------------------------------------------------
# Tokenizer


@dataclasses.dataclass
class Token:
    kind: str  # "id" | "num" | "punct" | "str" | "char"
    text: str
    line: int


_PUNCTS = [
    "->*", "<<=", ">>=", "...", "::", "->", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "|=", "&=", "^=", "%=", "++", "--", "<<",
    ">>",
]


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise FrontendError(f"line {line}: unterminated block comment")
            line += text.count("\n", i, end)
            i = end + 2
            continue
        if c == "#" and at_line_start:
            # Preprocessor logical line (with backslash continuations).
            # Includes are collected separately by model.scan_includes.
            while i < n:
                end = text.find("\n", i)
                if end < 0:
                    i = n
                    break
                cont = text[i:end].rstrip().endswith("\\")
                line += 1
                i = end + 1
                if not cont:
                    break
            at_line_start = True
            continue
        at_line_start = False
        if text.startswith('R"', i):
            delim_end = text.find("(", i + 2)
            if delim_end < 0:
                raise FrontendError(f"line {line}: malformed raw string")
            delim = text[i + 2:delim_end]
            closer = ")" + delim + '"'
            end = text.find(closer, delim_end)
            if end < 0:
                raise FrontendError(f"line {line}: unterminated raw string")
            tokens.append(Token("str", text[delim_end + 1:end], line))
            line += text.count("\n", i, end)
            i = end + len(closer)
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise FrontendError(f"line {line}: unterminated string")
            tokens.append(Token("str", text[i + 1:j], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("char", text[i + 1:j], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'"):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        for punct in _PUNCTS:
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, line))
                i += len(punct)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens


def _match_brackets(tokens: List[Token]) -> Dict[int, int]:
    """open index -> close index and close -> open, for () {} []."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    stack: List[Tuple[str, int]] = []
    match: Dict[int, int] = {}
    for i, tok in enumerate(tokens):
        if tok.kind != "punct":
            continue
        if tok.text in pairs:
            stack.append((pairs[tok.text], i))
        elif tok.text in pairs.values():
            if not stack or stack[-1][0] != tok.text:
                raise FrontendError(
                    f"line {tok.line}: unbalanced '{tok.text}'")
            _, open_idx = stack.pop()
            match[open_idx] = i
            match[i] = open_idx
    if stack:
        raise FrontendError(
            f"line {tokens[stack[-1][1]].line}: unclosed "
            f"'{tokens[stack[-1][1]].text}'")
    return match


# --------------------------------------------------------------------------
# Structural scan

_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "new", "delete", "decltype", "noexcept", "throw", "else", "do",
    "co_await", "co_return", "co_yield", "case", "default", "goto",
    "static_assert", "alignas", "typeid", "using", "requires",
}
_TYPE_KEYWORDS = {
    "void", "int", "double", "float", "char", "bool", "auto", "unsigned",
    "signed", "long", "short", "wchar_t", "char8_t", "char16_t", "char32_t",
}
_NOT_A_CALLEE = _CONTROL_KEYWORDS | _TYPE_KEYWORDS

_SIG_QUALIFIERS = {
    "inline", "static", "constexpr", "consteval", "explicit", "friend",
    "extern", "virtual", "mutable", "typename",
}
_POST_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable"}

_ALLOC_FUNCTIONS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "posix_memalign", "make_unique", "make_shared",
}
_CONTAINER_GROWTH = {
    "push_back", "emplace_back", "emplace", "emplace_hint", "insert",
    "resize", "reserve", "assign", "append", "push_front", "emplace_front",
}

# Thread-safety annotation macros (src/common/thread_annotations.h). In
# class bodies they decorate member declarations; in signatures the
# attribute-macro skip in _try_function consumes them (LQS_REQUIRES args
# are captured there first).
_ANNOTATION_MACROS = {
    "LQS_GUARDED_BY", "LQS_PT_GUARDED_BY", "LQS_REQUIRES", "LQS_EXCLUDES",
    "LQS_ACQUIRE", "LQS_RELEASE", "LQS_TRY_ACQUIRE", "LQS_ASSERT_CAPABILITY",
    "LQS_RETURN_CAPABILITY", "LQS_ACQUIRED_BEFORE", "LQS_ACQUIRED_AFTER",
    "LQS_CAPABILITY", "LQS_SCOPED_CAPABILITY",
}

# Determinism hazard vocabulary (checks.py `determinism`). Seeded lqs::Rng
# and VirtualClock are the sanctioned sources and never appear here.
_WALLCLOCK_QUALIFIERS = {
    "steady_clock", "system_clock", "high_resolution_clock",
}
_WALLCLOCK_CALLS = {
    "time", "gettimeofday", "clock_gettime", "clock", "localtime", "gmtime",
    "mktime", "timespec_get", "ftime",
}
_RANDOM_IDS = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48",
}
_RAND_CALLS = {"rand", "srand", "rand_r", "drand48", "lrand48", "random"}
_ENV_CALLS = {"getenv", "secure_getenv", "putenv", "setenv"}
_ITER_METHODS = {"begin", "end", "cbegin", "cend", "rbegin", "rend"}

_UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}
_ORDERED_CONTAINERS = {"map", "set", "multimap", "multiset"}


class _FileScanner:
    def __init__(self, path: str, tokens: List[Token]):
        self.path = path
        self.tokens = tokens
        self.match = _match_brackets(tokens)
        self.functions: List[FunctionInfo] = []
        self.classes: List[ClassConcurrency] = []
        self.unordered_names: set = set()
        self.ptr_keyed_names: set = set()
        self._register_containers()

    # -- helpers ------------------------------------------------------------

    def _is(self, i: int, text: str) -> bool:
        return (0 <= i < len(self.tokens) and self.tokens[i].kind == "punct"
                and self.tokens[i].text == text)

    def _id(self, i: int) -> Optional[str]:
        if 0 <= i < len(self.tokens) and self.tokens[i].kind == "id":
            return self.tokens[i].text
        return None

    # -- container-name registration (determinism `iter` hazards) -----------

    def _angle_close(self, open_idx: int) -> Optional[int]:
        """Index just past the `>` matching the `<` at open_idx (handles
        `>>` closing two levels and skips bracketed groups)."""
        depth = 1
        k = open_idx + 1
        while k < len(self.tokens) and depth > 0:
            tok = self.tokens[k]
            if tok.kind == "punct" and tok.text in ("(", "[", "{"):
                k = self.match[k] + 1
                continue
            if tok.kind == "punct" and tok.text == "<":
                depth += 1
            elif tok.kind == "punct" and tok.text == ">":
                depth -= 1
            elif tok.kind == "punct" and tok.text == ">>":
                depth -= 2
            elif tok.kind == "punct" and tok.text == ";":
                return None  # not a template argument list after all
            k += 1
        return k if depth <= 0 else None

    def _register_containers(self) -> None:
        """Record declared names of unordered and pointer-keyed containers.

        These feed the determinism checker: iterating an unordered
        container leaks the hash seed into output order, and iterating an
        ordered container keyed on a pointer leaks allocation addresses.
        The registries are name-based and model-wide (the header declares
        the member, the .cc iterates it)."""
        for i, tok in enumerate(self.tokens):
            if tok.kind != "id":
                continue
            is_unordered = tok.text in _UNORDERED_CONTAINERS
            is_ordered = (tok.text in _ORDERED_CONTAINERS
                          and self._is(i - 1, "::"))
            if not (is_unordered or is_ordered) or not self._is(i + 1, "<"):
                continue
            after = self._angle_close(i + 1)
            if after is None:
                continue
            declared = self._id(after)
            if declared is None:
                continue
            if is_unordered:
                self.unordered_names.add(declared)
                continue
            # Ordered container: pointer-keyed iff the first top-level
            # template argument contains a `*`.
            depth, k = 1, i + 2
            while k < len(self.tokens) and depth > 0:
                t = self.tokens[k]
                if t.kind == "punct" and t.text in ("(", "[", "{"):
                    k = self.match[k] + 1
                    continue
                if t.kind == "punct" and t.text == "<":
                    depth += 1
                elif t.kind == "punct" and t.text == ">":
                    depth -= 1
                elif t.kind == "punct" and t.text == ">>":
                    depth -= 2
                elif t.kind == "punct" and t.text == "," and depth == 1:
                    break
                elif t.kind == "punct" and t.text == "*" and depth == 1:
                    self.ptr_keyed_names.add(declared)
                    break
                k += 1

    # -- scope walk ---------------------------------------------------------

    def scan(self) -> None:
        self._scan_scope(0, len(self.tokens), class_name=None)
        self._scan_classes(0, len(self.tokens))

    def _scan_scope(self, begin: int, end: int,
                    class_name: Optional[str]) -> None:
        i = begin
        while i < end:
            tok = self.tokens[i]
            if tok.kind == "id" and tok.text == "namespace":
                i = self._enter_braced_scope(i, end, class_name)
                continue
            if tok.kind == "id" and tok.text == "enum":
                i = self._skip_enum(i, end)
                continue
            if (tok.kind == "id" and tok.text in ("class", "struct")
                    and self._id(i - 1) != "enum"):
                i = self._enter_class(i, end)
                continue
            if tok.kind == "punct" and tok.text == "(":
                consumed = self._try_function(i, class_name)
                if consumed is not None:
                    i = consumed
                    continue
                i += 1
                continue
            if tok.kind == "punct" and tok.text == "{":
                # Brace not owned by a recognized construct (initializer,
                # operator body, ...): skip it wholesale.
                i = self.match[i] + 1
                continue
            i += 1

    def _enter_braced_scope(self, i: int, end: int,
                            class_name: Optional[str]) -> int:
        j = i + 1
        while j < end and not (self._is(j, "{") or self._is(j, ";")):
            j += 1
        if j >= end or self._is(j, ";"):
            return j + 1
        close = self.match[j]
        self._scan_scope(j + 1, close, class_name)
        return close + 1

    def _skip_enum(self, i: int, end: int) -> int:
        j = i + 1
        while j < end and not (self._is(j, "{") or self._is(j, ";")):
            j += 1
        if j < end and self._is(j, "{"):
            return self.match[j] + 1
        return j + 1

    def _enter_class(self, i: int, end: int) -> int:
        name: Optional[str] = None
        j = i + 1
        while j < end and not (self._is(j, "{") or self._is(j, ";")):
            if self._is(j, "["):  # [[attribute]], e.g. [[nodiscard]]
                j = self.match[j] + 1
                continue
            got = self._id(j)
            if got is not None and name is None and got != "final":
                name = got
            j += 1
        if j >= end or self._is(j, ";"):  # forward declaration
            return j + 1
        close = self.match[j]
        self._scan_scope(j + 1, close, name)
        return close + 1

    # -- per-class concurrency state (locks checker) -------------------------

    def _scan_classes(self, begin: int, end: int) -> None:
        """Find every class/struct definition and scan its members. The walk
        is linear and transparent through namespaces and function bodies, so
        nesting anywhere is found; enum bodies are skipped."""
        i = begin
        while i < end:
            tok = self.tokens[i]
            if tok.kind == "id" and tok.text == "enum":
                i = self._skip_enum(i, end)
                continue
            if (tok.kind == "id" and tok.text in ("class", "struct")
                    and self._id(i - 1) != "enum"):
                name: Optional[str] = None
                j = i + 1
                while j < end and not (self._is(j, "{") or self._is(j, ";")):
                    if self._is(j, "["):
                        j = self.match[j] + 1
                        continue
                    got = self._id(j)
                    if got is not None and name is None and got != "final":
                        name = got
                    j += 1
                if j >= end or self._is(j, ";"):  # forward declaration
                    i = j + 1
                    continue
                close = self.match[j]
                self._scan_class_body(j + 1, close, name or "<anonymous>",
                                      tok.line)
                i = close + 1
                continue
            i += 1

    def _scan_class_body(self, begin: int, end: int, name: str,
                         line: int) -> None:
        cls = ClassConcurrency(name=name, file=self.path, line=line)
        i = begin
        unit_start = begin
        while i < end:
            tok = self.tokens[i]
            if tok.kind == "punct" and tok.text in ("(", "["):
                i = self.match[i] + 1
                continue
            if tok.kind == "punct" and tok.text == "{":
                close = self.match[i]
                head = self._id(unit_start)
                if head in ("class", "struct"):
                    nested: Optional[str] = None
                    for k in range(unit_start + 1, i):
                        got = self._id(k)
                        if got is not None and got != "final":
                            nested = got
                            break
                    self._scan_class_body(i + 1, close,
                                          nested or "<anonymous>",
                                          self.tokens[unit_start].line)
                    i = close + 1
                    if self._is(i, ";"):
                        i += 1
                    unit_start = i
                    continue
                if head == "enum":
                    i = close + 1
                    if self._is(i, ";"):
                        i += 1
                    unit_start = i
                    continue
                if self._is(close + 1, ";"):
                    # Brace initializer: the unit continues to that ';'.
                    i = close + 1
                    continue
                # Inline function body (or similar): not a data member.
                i = close + 1
                unit_start = i
                continue
            if tok.kind == "punct" and tok.text == ";":
                self._class_member_unit(cls, unit_start, i)
                i += 1
                unit_start = i
                continue
            if (tok.kind == "punct" and tok.text == ":"
                    and self._id(i - 1) in ("public", "private", "protected")):
                i += 1
                unit_start = i
                continue
            i += 1
        if cls.mutexes:
            self.classes.append(cls)

    def _class_member_unit(self, cls: ClassConcurrency, begin: int,
                           end: int) -> None:
        """Classify one `;`-terminated class-body unit as a data member (and
        record it), or skip it (functions, aliases, friends, ...)."""
        first = self._id(begin)
        if begin >= end or first in (
                "using", "typedef", "friend", "template", "operator",
                "static_assert", "enum", "class", "struct", "public",
                "private", "protected", "return", "if", "for", "while"):
            return
        is_static = False
        is_const = False  # const-ness of the *accessed* object
        ptr = False
        seen_eq = False
        angle = 0
        guarded: Optional[str] = None
        named: List[Tuple[str, int]] = []  # (text, token index) at depth 0
        init_range: Optional[Tuple[int, int]] = None
        k = begin
        while k < end:
            t = self.tokens[k]
            if t.kind == "id":
                if (t.text in ("LQS_GUARDED_BY", "LQS_PT_GUARDED_BY")
                        and self._is(k + 1, "(")):
                    close = self.match[k + 1]
                    ids = [
                        x.text for x in self.tokens[k + 2:close]
                        if x.kind == "id" and x.text != "this"
                    ]
                    guarded = ids[-1] if ids else ""
                    k = close + 1
                    continue
                if t.text in _ANNOTATION_MACROS and self._is(k + 1, "("):
                    k = self.match[k + 1] + 1
                    continue
                if t.text in ("static", "constexpr", "consteval"):
                    is_static = True
                    k += 1
                    continue
                if t.text == "const" and angle == 0 and not seen_eq:
                    # `const T x` makes the object const; `T* const x` makes
                    # the pointer const (still an immutable member); but
                    # `const T* x` is a mutable pointer member.
                    if ptr:
                        is_const = True
                    elif not named:
                        is_const = True
                    k += 1
                    continue
                if t.text in ("mutable", "volatile", "inline", "typename",
                              "extern"):
                    k += 1
                    continue
                if angle == 0 and not seen_eq:
                    named.append((t.text, k))
                k += 1
                continue
            if t.kind == "punct":
                if t.text in ("(", "[", "{"):
                    close = self.match[k]
                    if (t.text == "(" and angle == 0 and not seen_eq
                            and named and self.tokens[k - 1].kind == "id"
                            and self.tokens[k - 1].text == named[-1][0]):
                        # `name(` at the top level: a function declaration.
                        return
                    if (t.text == "{" and angle == 0 and not seen_eq
                            and named and init_range is None):
                        init_range = (k + 1, close)
                    k = close + 1
                    continue
                if t.text == "<":
                    angle += 1
                elif t.text == ">":
                    angle = max(0, angle - 1)
                elif t.text == ">>":
                    angle = max(0, angle - 2)
                elif t.text == "=":
                    seen_eq = True
                elif t.text in ("*", "&", "&&") and angle == 0 and not seen_eq:
                    ptr = True
                    is_const = False  # const seen so far bound the pointee
                k += 1
                continue
            k += 1
        if len(named) < 2:
            return  # no separate type and name: not a data member
        if any(text == "operator" for text, _ in named):
            return  # operator overload declaration
        member_name = named[-1][0]
        member_line = self.tokens[named[-1][1]].line
        type_ids = [text for text, _ in named[:-1]]
        if "Mutex" in type_ids and not ptr:
            mutex = MutexMember(name=member_name, line=member_line)
            if init_range is not None:
                mutex.has_init = True
                rank_name, rank_literal = self._parse_rank_arg(*init_range)
                mutex.rank_name = rank_name
                mutex.rank_literal = rank_literal
            cls.mutexes.append(mutex)
            return
        is_sync = any(t in ("Mutex", "CondVar", "MutexLock", "atomic",
                            "atomic_flag", "mutex", "condition_variable")
                      for t in type_ids)
        cls.fields.append(
            FieldMember(name=member_name, line=member_line,
                        guarded_by=guarded, is_const=is_const,
                        is_static=is_static, is_sync=is_sync))

    def _parse_rank_arg(self, begin: int,
                        end: int) -> Tuple[Optional[str], Optional[int]]:
        """First constructor argument of a Mutex: a named lock_rank constant
        (returns (name, None)) or a numeric literal (returns (None, value));
        (None, None) when the argument list is empty/unrecognized."""
        arg_ids: List[str] = []
        k = begin
        while k < end:
            t = self.tokens[k]
            if t.kind == "punct" and t.text in ("(", "[", "{"):
                k = self.match[k] + 1
                continue
            if t.kind == "punct" and t.text == ",":
                break
            if t.kind == "id":
                arg_ids.append(t.text)
            elif t.kind == "num" and not arg_ids:
                try:
                    return None, int(t.text, 0)
                except ValueError:
                    return None, None
            k += 1
        if arg_ids:
            return arg_ids[-1], None
        return None, None

    # -- function recognition ----------------------------------------------

    def _signature_start(self, chain_start: int) -> int:
        """Index of the first token of the declaration containing
        `chain_start` (walks back to the previous ; { } or access label)."""
        k = chain_start - 1
        while k >= 0:
            tok = self.tokens[k]
            if tok.kind == "punct" and tok.text in (";", "{", "}"):
                return k + 1
            if (tok.kind == "punct" and tok.text == ":"
                    and self._id(k - 1) in ("public", "private", "protected")):
                return k + 1
            if tok.kind == "punct" and tok.text == ">":
                # Could close a template parameter list; keep walking.
                pass
            k -= 1
        return 0

    def _try_function(self, open_paren: int,
                      class_name: Optional[str]) -> Optional[int]:
        name_idx = open_paren - 1
        name = self._id(name_idx)
        if name is None or name in _NOT_A_CALLEE:
            return None
        # Qualified name chain A::B::name.
        chain = [name]
        p = name_idx
        while self._is(p - 1, "::") and self._id(p - 2) is not None:
            chain.insert(0, self.tokens[p - 2].text)
            p -= 2
        if self._is(p - 1, "~"):  # destructor: record but never relevant
            p -= 1
        sig_start = self._signature_start(p)
        ret_tokens = self.tokens[sig_start:p]
        ret_texts = [t.text for t in ret_tokens]
        if "=" in ret_texts or any(t in _CONTROL_KEYWORDS for t in ret_texts):
            return None
        close_paren = self.match[open_paren]
        # Post-signature qualifiers / attribute macros / trailing return.
        j = close_paren + 1
        is_virtual = "virtual" in ret_texts
        saw_pure_or_defaulted = False
        requires: List[str] = []
        while j < len(self.tokens):
            tok = self.tokens[j]
            if tok.kind == "id" and tok.text in _POST_QUALIFIERS:
                if tok.text in ("override", "final"):
                    is_virtual = True
                j += 1
                # noexcept(...) / attribute macro arguments
                if self._is(j, "("):
                    j = self.match[j] + 1
                continue
            if tok.kind == "id" and self._is(j + 1, "("):
                if tok.text == "LQS_REQUIRES":
                    close = self.match[j + 1]
                    requires.extend(
                        t.text for t in self.tokens[j + 2:close]
                        if t.kind == "id" and t.text != "this")
                j = self.match[j + 1] + 1  # attribute-like macro
                continue
            if tok.kind == "punct" and tok.text in ("&", "&&"):
                j += 1
                continue
            if tok.kind == "punct" and tok.text == "->":
                # Trailing return type: scan to the body/terminator.
                while j < len(self.tokens) and not (self._is(j, "{")
                                                    or self._is(j, ";")):
                    j += 1
                continue
            if tok.kind == "punct" and tok.text == "=":
                nxt = self.tokens[j + 1] if j + 1 < len(self.tokens) else None
                if nxt is not None and nxt.text in ("default", "delete", "0"):
                    if nxt.text == "0":
                        is_virtual = True
                    saw_pure_or_defaulted = True
                    j += 2
                    continue
                return None  # initializer: not a function
            break
        if j >= len(self.tokens):
            return None
        terminator = self.tokens[j]
        body_open: Optional[int] = None
        if terminator.kind == "punct" and terminator.text == ":":
            # Only constructors carry an initializer list: in-class
            # `Foo() : ...` or out-of-line `Foo::Foo() : ...`.
            is_ctor = (class_name == name
                       or (len(chain) >= 2 and chain[-1] == chain[-2]))
            if not is_ctor or saw_pure_or_defaulted:
                return None
            # Constructor initializer list: find the body brace at depth 0.
            k = j + 1
            while k < len(self.tokens):
                if self._is(k, "(") or self._is(k, "["):
                    k = self.match[k] + 1
                    continue
                if self._is(k, "{"):
                    # Brace-init member (a_{x}) vs body: the body brace is
                    # followed by statements; a member brace is followed by
                    # `,` or the body brace. Disambiguate via the matcher:
                    close = self.match[k]
                    if self._is(close + 1, ",") or self._is(close + 1, "{"):
                        k = close + 1
                        continue
                    body_open = k
                    break
                k += 1
            if body_open is None:
                return None
        elif terminator.kind == "punct" and terminator.text == "{":
            body_open = j
        elif terminator.kind == "punct" and terminator.text == ";":
            body_open = None
        else:
            return None

        if len(chain) > 1:
            qualname = "::".join(chain)
        elif class_name is not None:
            qualname = f"{class_name}::{name}"
        else:
            qualname = name

        returns_status = any(t in ("Status", "StatusOr") for t in ret_texts)
        # Constructors of Status/StatusOr themselves have the class name in
        # scope, not the return slot; exclude self-named functions.
        if name in ("Status", "StatusOr"):
            returns_status = bool(ret_texts) and ret_texts[-1] in (
                "Status", "StatusOr")

        noalloc = "LQS_NOALLOC" in ret_texts
        alloc_ok: Optional[str] = None
        if "LQS_NOALLOC" in ret_texts or "LQS_ALLOC_OK" in ret_texts:
            alloc_ok = self._alloc_ok_justification(sig_start, p)
            if "LQS_ALLOC_OK" not in ret_texts:
                alloc_ok = None

        fn = FunctionInfo(
            name=name,
            qualname=qualname,
            file=self.path,
            line=self.tokens[name_idx].line,
            is_definition=body_open is not None,
            is_virtual=is_virtual,
            returns_status=returns_status,
            noalloc=noalloc,
            alloc_ok=alloc_ok,
            deterministic="LQS_DETERMINISTIC" in ret_texts,
            requires=requires,
        )
        if body_open is not None:
            body_close = self.match[body_open]
            self._scan_body(fn, body_open + 1, body_close)
            self.functions.append(fn)
            return body_close + 1
        self.functions.append(fn)
        return j + 1

    def _alloc_ok_justification(self, sig_start: int,
                                sig_end: int) -> Optional[str]:
        for k in range(sig_start, sig_end):
            if (self.tokens[k].kind == "id"
                    and self.tokens[k].text == "LQS_ALLOC_OK"
                    and self._is(k + 1, "(")):
                close = self.match[k + 1]
                parts = [
                    t.text for t in self.tokens[k + 2:close]
                    if t.kind == "str"
                ]
                return "".join(parts)
        return ""  # annotation present without arguments

    # -- body analysis ------------------------------------------------------

    def _chain_start(self, name_idx: int) -> int:
        """Start of the postfix expression ending at the callee name."""
        start = name_idx
        while True:
            prev = start - 1
            if prev >= 0 and self.tokens[prev].kind == "punct" \
                    and self.tokens[prev].text in ("::", ".", "->"):
                q = prev - 1
                if q >= 0 and self.tokens[q].kind == "punct" \
                        and self.tokens[q].text in (")", "]"):
                    opener = self.match[q]
                    if self._id(opener - 1) is not None:
                        start = opener - 1
                    else:
                        start = opener
                elif self._id(q) is not None:
                    start = q
                else:
                    return start
            else:
                return start

    def _last_arg_id(self, open_idx: int) -> Optional[str]:
        """Last identifier inside a bracketed argument list, skipping
        `this` — extracts the mutex from `(&mu_)` / `(&shard->mu)`."""
        result: Optional[str] = None
        for t in self.tokens[open_idx + 1:self.match[open_idx]]:
            if t.kind == "id" and t.text != "this":
                result = t.text
        return result

    def _scan_body(self, fn: FunctionInfo, begin: int, end: int) -> None:
        tokens = self.tokens
        # Lexical lock tracking: MutexLock scopes release at their
        # enclosing brace close; explicit Lock() entries release at the
        # matching Unlock() (or, conservatively, at function end).
        brace_close: List[int] = []
        held: List[List] = []  # [mutex name, release token index or None]

        def held_names() -> List[str]:
            return [h[0] for h in held]

        i = begin
        while i < end:
            tok = tokens[i]
            if tok.kind == "punct" and tok.text == "{":
                brace_close.append(self.match[i])
                i += 1
                continue
            if tok.kind == "punct" and tok.text == "}":
                if brace_close and brace_close[-1] == i:
                    brace_close.pop()
                held[:] = [h for h in held if h[1] != i]
                i += 1
                continue
            if tok.kind == "id" and tok.text == "new":
                fn.allocs.append(AllocSite("new", "operator new", tok.line))
                i += 1
                continue
            if (tok.kind == "id" and tok.text in _ALLOC_FUNCTIONS
                    and (self._is(i + 1, "(") or self._is(i + 1, "<"))):
                fn.allocs.append(AllocSite("alloc-fn", tok.text, tok.line))
                i += 1
                continue
            if tok.kind == "id" and tok.text in _RANDOM_IDS:
                fn.hazards.append(HazardSite("rand", tok.text, tok.line))
                i += 1
                continue
            if (tok.kind == "id" and tok.text == "MutexLock"
                    and self._id(i + 1) is not None
                    and (self._is(i + 2, "(") or self._is(i + 2, "{"))):
                close = self.match[i + 2]
                mutex = self._last_arg_id(i + 2)
                if mutex is not None:
                    fn.acquires.append(
                        AcquireSite(mutex=mutex, kind="lock", line=tok.line,
                                    held=held_names()))
                    release = brace_close[-1] if brace_close else end
                    held.append([mutex, release])
                i = close + 1
                continue
            if (tok.kind == "id" and tok.text == "Mutex"
                    and self._id(i + 1) is not None
                    and (self._is(i + 2, "(") or self._is(i + 2, "{"))):
                close = self.match[i + 2]
                rank_name, rank_literal = self._parse_rank_arg(i + 3, close)
                fn.local_mutexes.append(
                    MutexMember(name=self.tokens[i + 1].text,
                                line=tok.line, has_init=close > i + 3,
                                rank_name=rank_name,
                                rank_literal=rank_literal))
                i = close + 1
                continue
            if (tok.kind == "id" and tok.text == "for"
                    and self._is(i + 1, "(")):
                # Range-for: every identifier in the range expression is a
                # candidate `iter` hazard (resolved against the container
                # registries by the determinism checker).
                close = self.match[i + 1]
                k = i + 2
                while k < close:
                    t = tokens[k]
                    if t.kind == "punct" and t.text in ("(", "[", "{"):
                        k = self.match[k] + 1
                        continue
                    if t.kind == "punct" and t.text == ";":
                        break  # classic for loop: no range expression
                    if t.kind == "punct" and t.text == ":":
                        for t2 in tokens[k + 1:close]:
                            if t2.kind == "id":
                                fn.hazards.append(
                                    HazardSite("iter", t2.text, t2.line))
                        break
                    k += 1
                i += 2
                continue
            if not (tok.kind == "punct" and tok.text == "("):
                i += 1
                continue
            # A call: identifier directly before '('.
            name = self._id(i - 1)
            if name is None or name in _NOT_A_CALLEE:
                i += 1
                continue
            name_idx = i - 1
            is_method = (tokens[name_idx - 1].kind == "punct"
                         and tokens[name_idx - 1].text in (".", "->"))
            qualifier = None
            if self._is(name_idx - 1, "::"):
                qualifier = self._id(name_idx - 2)
            if is_method and name in _CONTAINER_GROWTH:
                fn.allocs.append(AllocSite("container", name, tok.line))
            # Determinism hazards.
            if name == "now" and qualifier in _WALLCLOCK_QUALIFIERS:
                fn.hazards.append(
                    HazardSite("wall-clock", f"{qualifier}::now", tok.line))
            elif not is_method and name in _WALLCLOCK_CALLS:
                fn.hazards.append(HazardSite("wall-clock", name, tok.line))
            elif not is_method and name in _RAND_CALLS:
                fn.hazards.append(HazardSite("rand", name, tok.line))
            elif not is_method and name in _ENV_CALLS:
                fn.hazards.append(HazardSite("env", name, tok.line))
            elif is_method and name in _ITER_METHODS:
                obj = self._id(name_idx - 2)
                if obj is not None:
                    fn.hazards.append(HazardSite("iter", obj, tok.line))
            # Lock semantics of method calls on mutexes and condvars.
            if is_method and name == "Wait":
                target = self._last_arg_id(i)
                if target is not None:
                    fn.acquires.append(
                        AcquireSite(mutex=target, kind="wait", line=tok.line,
                                    held=held_names()))
            elif is_method and name in ("Lock", "Unlock"):
                obj = self._id(name_idx - 2)
                if obj is not None:
                    if name == "Lock":
                        held.append([obj, None])
                    else:
                        for idx in range(len(held) - 1, -1, -1):
                            if held[idx][0] == obj:
                                del held[idx]
                                break
            call = CallSite(name=name, line=tokens[name_idx].line,
                            is_method_call=is_method, qualifier=qualifier,
                            held=held_names())
            start = self._chain_start(name_idx)
            boundary_idx = start - 1
            # Explicit (void) cast?
            if (self._is(start - 1, ")") and self._id(start - 2) == "void"
                    and self._is(start - 3, "(")):
                call.void_cast = True
                boundary_idx = start - 4
            at_statement_start = (
                boundary_idx < begin
                or (tokens[boundary_idx].kind == "punct"
                    and tokens[boundary_idx].text in (";", "{", "}")))
            close = self.match[i]
            followed_by_semicolon = self._is(close + 1, ";")
            if at_statement_start and followed_by_semicolon:
                call.discarded = True
            elif not call.void_cast and self._is(start - 1, "="):
                assignee = self._id(start - 2)
                before = start - 3
                # Only a fresh binding (`Status s = f(...);`, `auto v =
                # f(...);`) gets never-consulted analysis. A re-assignment
                # (`status = f(...);`) or member store (`x.status = f(...)`)
                # keeps the result alive beyond this statement.
                is_decl = (
                    assignee is not None and before >= 0
                    and (tokens[before].kind == "id"
                         or (tokens[before].kind == "punct"
                             and tokens[before].text in (">", "&", "*"))))
                if is_decl and tokens[before].kind == "id" \
                        and tokens[before].text in ("return", "co_return"):
                    is_decl = False
                if is_decl:
                    call.assigned_to = assignee
                    call.consulted = any(
                        t.kind == "id" and t.text == assignee
                        for t in tokens[close + 1:end])
            fn.calls.append(call)
            i += 1


# --------------------------------------------------------------------------
# Public entry point


def parse_files(paths: List[str],
                read_text=None) -> Tuple[SourceModel, List[str]]:
    """Parse `paths` into one SourceModel. Returns (model, parse_errors)."""
    model = SourceModel()
    errors: List[str] = []
    for path in paths:
        try:
            if read_text is not None:
                text = read_text(path)
            else:
                with open(path, "r", encoding="utf-8",
                          errors="replace") as handle:
                    text = handle.read()
        except OSError as err:
            errors.append(f"{path}: {err}")
            continue
        model.includes[path] = scan_includes(text)
        model.suppressions[path] = scan_suppressions(path, text)
        model.lock_ranks.update(scan_lock_ranks(text))
        try:
            scanner = _FileScanner(path, tokenize(text))
            scanner.scan()
        except FrontendError as err:
            errors.append(f"{path}: {err}")
            continue
        model.functions.extend(scanner.functions)
        model.classes.extend(scanner.classes)
        model.unordered_names.update(scanner.unordered_names)
        model.ptr_keyed_names.update(scanner.ptr_keyed_names)
    for fn in model.functions:
        if fn.returns_status:
            model.status_names.add(fn.name)
    return model, errors
