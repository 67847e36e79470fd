#!/usr/bin/env python3
"""List the functions in src/ headers that only tests call.

Every function and member function declared at namespace or class scope
in a src/**/*.hpp header is looked up, as a whole word, in the C++ files
outside tests/ (src/, examples/, bench/, e2ebench/). A name is listed
when none of those files mention it apart from its own declarations and
definitions, or only from the bodies of listed names that are not on
ALLOWLIST: a helper whose one caller is test-only is listed too, while
what a kept name calls stays in use. The match is by name, not by
overload or class: a name that a production caller uses for another
entity hides a test-only one, and constructors, destructors and
operators are not looked at.

Usage: python3 .github/scripts/test_only_names.py [repo-root]
Prints one '<header>:<line>: <name> (<callers>; <verdict>)' line per
listed name and exits 1 if any of them is not on ALLOWLIST.
"""

import bisect
import pathlib
import re
import sys

# Headers and names that stay in src/ without a production caller.
ALLOWLIST = {
    # The paper's section 7 extensions: tests are their only callers.
    "src/sched/aperiodic.hpp": "section 7 module",
    "src/sched/blocking.hpp": "section 7 module",
    "src/sched/sensitivity.hpp": "section 7 module",
    "src/core/polling_server.hpp": "section 7 module",
    "src/core/underrun.hpp": "section 7 module",
    # The trace checker a planned `sweep_runner --explain` runs on
    # every stage it replays.
    "validate_trace": "planned --explain caller",
    # The javax.realtime facade: methods of the RTSJ classes the paper
    # programs against, whose callers are RTSJ-style programs.
    "removeFromFeasibility": "RTSJ API (paper section 2.3)",
    "setDetectorConfig": "RealtimeThreadExtended API (paper section 3.1)",
    "setDetectorThreshold": "RealtimeThreadExtended API (paper section 3.1)",
}

PRODUCTION_DIRS = ("src", "examples", "bench", "e2ebench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".inc"}

# Words that can precede a call but never a declared name (`operator`
# precedes a literal suffix: operator""_ms).
NOT_A_TYPE = {
    "return", "co_return", "co_await", "co_yield", "throw", "new",
    "delete", "else", "case", "do", "sizeof", "alignof", "decltype",
    "typeid", "noexcept", "requires", "not", "and", "or", "operator",
}

WORD = re.compile(r"[A-Za-z_]\w*")
CALLISH = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
QUALIFIERS = re.compile(r"(?:[A-Za-z_]\w*\s*::\s*)*$")


def blank(text):
    return re.sub(r"[^\n]", " ", text)


# Comments and string or character literals, left to right; a quote
# after a word character is a digit separator (1'000), not a literal.
NOT_CODE = re.compile(r"""//[^\n]*|/\*.*?\*/|R"([^(\s]*)\(.*?\)\1"|"""
                      r""""(?:\\.|[^"\\\n])*"|(?<!\w)'(?:\\.|[^'\\\n])*'""",
                      re.S)


def strip_code(text):
    """Blanks comments, string and character literals, keeping offsets."""
    return NOT_CODE.sub(lambda m: blank(m.group(0)), text)


def is_declarator(code, start):
    """True if the name at `start` is being declared or defined there."""
    head = code[:start]
    head = head[:QUALIFIERS.search(head).start()].rstrip()
    if not head:
        return False
    last = head[-1]
    if last.isalnum() or last == "_":
        return re.search(r"[A-Za-z_]\w*$", head).group(0) not in NOT_A_TYPE
    if last == ">":
        # The close of a template argument list names a type; `a > f(`
        # compares.
        depth = 0
        for k in range(len(head) - 1, -1, -1):
            if head[k] == ">":
                depth += 1
            elif head[k] == "<":
                depth -= 1
                if depth == 0:
                    return bool(re.search(r"[\w:]\s*$", head[:k]))
            elif head[k] in ";{}":
                return False
        return False
    if last in "*&":
        # `T* f(` and `T&& f(` declare; `a * f(` and `a && f(` compute.
        before = head.rstrip("*&")
        return bool(before) and (before[-1].isalnum() or before[-1] in "_>")
    return False


def block_starts(code):
    """Sorted (offsets, kinds) of every scope change: 'class', 'ns' or
    'block' is the kind of scope that starts at that offset."""
    offsets, kinds, stack, stmt = [0], ["ns"], [], 0
    for m in re.finditer(r"[{};]", code):
        c, i = m.group(0), m.start()
        if c == "{":
            text = code[stmt:i]
            if re.search(r"\benum\b", text):
                kind = "block"
            elif re.search(r"\b(class|struct|union)\b", text) and \
                    not re.search(r"\)\s*(const\s*)?(noexcept\s*)?$", text):
                kind = "class"
            elif re.search(r"\bnamespace\b", text):
                kind = "ns"
            else:
                kind = "block"
            stack.append(kind)
        elif c == "}" and stack:
            stack.pop()
        stmt = i + 1
        offsets.append(i + 1)
        kinds.append(stack[-1] if stack else "ns")
    return offsets, kinds


def declarations(code, scoped):
    """(offset, name) of each function declarator in one stripped file;
    with `scoped`, only those at namespace or class scope."""
    offsets, kinds = block_starts(code) if scoped else (None, None)
    found = []
    for m in CALLISH.finditer(code):
        if m.group(1) == "operator" or not is_declarator(code, m.start(1)):
            continue
        if scoped:
            k = kinds[bisect.bisect_right(offsets, m.start(1)) - 1]
            if k == "block":
                continue
        found.append((m.start(1), m.group(1)))
    return found


def body_end(code, paren):
    """End of the function body whose parameter list opens at `paren`,
    or None for a declaration without a body."""
    depth, i = 0, paren
    while i < len(code):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    m = re.compile(r"[;{=]").search(code, i)
    if not m or m.group(0) != "{":
        return None
    depth = 0
    for k in range(m.start(), len(code)):
        depth += {"{": 1, "}": -1}.get(code[k], 0)
        if depth == 0:
            return k + 1
    return None


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = {}
    for top in PRODUCTION_DIRS + ("tests",):
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                files[rel] = strip_code(path.read_text())

    class_names = set()
    for code in files.values():
        class_names.update(
            re.findall(r"\b(?:class|struct)\s+([A-Za-z_]\w*)", code))

    declared = {}  # name -> (header, line) of its first declaration
    sites = {}  # (file, offset) -> name, every declaration or definition
    for rel, code in files.items():
        if rel.startswith("tests/"):
            continue
        header = rel.startswith("src/") and rel.endswith(".hpp")
        for off, name in declarations(code, scoped=header):
            sites[(rel, off)] = name
            if header and name not in class_names:
                declared.setdefault(
                    name, (rel, code.count("\n", 0, off) + 1))

    def allowed(name):
        return declared[name][0] in ALLOWLIST or name in ALLOWLIST

    listed = {}  # name -> callers
    while True:
        uses = {}  # name -> [production, tests] mentions off declarations
        for rel, code in files.items():
            slot = 1 if rel.startswith("tests/") else 0
            for m in WORD.finditer(code):
                name = m.group(0)
                if name in declared and (rel, m.start()) not in sites:
                    uses.setdefault(name, [0, 0])[slot] += 1
        new = {name: "tests only" if uses.get(name, (0, 0))[1] else
               "no caller" for name in declared
               if name not in listed and not uses.get(name, (0, 0))[0]}
        if not new:
            break
        listed.update(new)
        # What a listed name calls is not called on production's behalf,
        # unless the name is kept.
        for (rel, off), name in sites.items():
            if name in new and not allowed(name) and \
                    not rel.startswith("tests/"):
                code = files[rel]
                end = body_end(code, code.index("(", off))
                if end:
                    files[rel] = code[:off] + blank(code[off:end]) + \
                        code[end:]

    unexpected = 0
    for name in sorted(listed, key=lambda n: declared[n]):
        header, line = declared[name]
        unexpected += not allowed(name)
        verdict = "allowlisted" if allowed(name) else "NOT ALLOWED"
        print(f"{header}:{line}: {name} ({listed[name]}; {verdict})")
    print(f"{len(listed)} name(s) without a production caller, "
          f"{unexpected} not on the allowlist")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
