#!/usr/bin/env python3
"""Fail when a file under src/ is reached only by tests.

The roots are every source file under bench/, examples/ and
perfbench/src/: the programs a deployment or a reproduced paper figure
runs. From them the script follows quoted `#include "..."` directives
transitively. An include resolves against the including file's own
directory first, then against src/ (the library's include root). A
reached header `src/a/b.h` also pulls in its implementation
`src/a/b.cc` when that file exists, and the .cc's own includes are
followed in turn.

Every src/ file left unreached is code that only the test suite links
against; the script lists them and exits 1.

Usage: check_src_reachable.py [repo-root]   (default: the script's repo)
"""

import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
ROOT_DIRS = ("bench", "examples", "perfbench/src")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def sources_under(directory):
    return sorted(p for p in directory.rglob("*")
                  if p.is_file() and p.suffix in SOURCE_SUFFIXES)


def resolve(include, including_file, src):
    for base in (including_file.parent, src):
        candidate = (base / include).resolve()
        if candidate.is_file():
            return candidate
    return None


def reachable(roots, src):
    seen = set()
    stack = [p.resolve() for p in roots]
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        text = path.read_text(encoding="utf-8", errors="replace")
        for include in INCLUDE.findall(text):
            target = resolve(include, path, src)
            if target is not None:
                stack.append(target)
        if path.suffix == ".h" and src in path.parents:
            implementation = path.with_suffix(".cc")
            if implementation.is_file():
                stack.append(implementation)
    return seen


def main():
    repo = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent).resolve()
    src = repo / "src"
    roots = [p for d in ROOT_DIRS for p in sources_under(repo / d)]
    if not roots:
        sys.exit(f"error: no root sources under {', '.join(ROOT_DIRS)} "
                 f"in {repo}")
    seen = reachable(roots, src)
    unreached = [p for p in sources_under(src) if p.resolve() not in seen]
    if unreached:
        print(f"{len(unreached)} src/ file(s) not reachable from "
              f"{', '.join(ROOT_DIRS)}:")
        for path in unreached:
            print(f"  {path.relative_to(repo)}")
        return 1
    print(f"OK: all {len(sources_under(src))} src/ files are reachable from "
          f"{len(roots)} root sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
