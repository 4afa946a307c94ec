#!/usr/bin/env python3
"""Fail when a library file is reachable from no bench, tool or example.

Follows `#include "..."` from every source under bench/, tools/ and
examples/. A header that is reached pulls in the .cpp beside it. Every
file under src/ that the walk never reaches is listed, and the exit
status is 1 if there is any: code that only its own tests reach has no
user and should go.

Usage: python3 tools/check_include_closure.py [repo-root]
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
ROOT_DIRS = ("bench", "tools", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp"}


def resolve(name, including, root):
    """Quoted includes search the including file's directory, then the
    include paths the build sets: src/ and bench/."""
    for base in (including.parent, root / "src", root / "bench"):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def closure(root):
    todo = [p.resolve() for d in ROOT_DIRS for p in (root / d).rglob("*")
            if p.suffix in SOURCE_SUFFIXES]
    seen = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        if path.suffix == ".hpp":
            impl = path.with_suffix(".cpp")
            if impl.is_file():
                todo.append(impl)
        for name in INCLUDE.findall(path.read_text(errors="replace")):
            target = resolve(name, path, root)
            if target is not None:
                todo.append(target)
    return seen


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    reached = closure(root)
    library = sorted(p.resolve() for p in (root / "src").rglob("*")
                     if p.suffix in SOURCE_SUFFIXES)
    unreached = [p.relative_to(root) for p in library if p not in reached]
    for p in unreached:
        print(f"unreached from bench/, tools/ and examples/: {p}")
    print(f"{len(library) - len(unreached)} of {len(library)} src/ files reached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
