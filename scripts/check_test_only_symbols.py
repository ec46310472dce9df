#!/usr/bin/env python3
"""Fail when the library defines a function that only tests call.

Usage: scripts/check_test_only_symbols.py BUILD_DIR

BUILD_DIR is a CMake build tree of this repository. The script lists the
themis:: functions that libthemis_core.a defines (nm: strong text symbols)
and the symbols that the library's objects and every non-test binary's
objects reference (readelf -r: the symbols an object leaves undefined, as
nm -u lists them, and those it points at in itself, such as vtable slots
and calls within one file). The non-test objects are those of every target
under BUILD_DIR/CMakeFiles other than the library and the *_test targets:
the benches and the examples. A function that none of them references has
no caller outside the tests, unless a caller in its own source file was
inlined away; so the script then looks for the function's name in that
file, with comments and string literals removed, besides its definitions.
A recursive function counts as its own caller, and a function defined in
a header is not checked.

Each function left is named, and the script exits 1. ALLOWLIST keeps the
few that tests may own on purpose; an entry that names no such function
fails too, so the list cannot go stale. Exits 0 when every function has a
caller, 2 when the build tree, nm or readelf is missing.
"""
import os
import re
import subprocess
import sys

LIBRARY_TARGET = "themis_core"

# Functions the library keeps although only tests (or programs built outside
# this tree) call them, each with its reason.
ALLOWLIST = {
    "themis::SensitiveModel": "model preset: a fixture",
    "themis::InsensitiveModel": "model preset: a fixture",
    "themis::AppState::FinalRho":
        "perfbench/daemon.cpp reads it; perfbench builds outside this tree",
    # Oracles: library entry points that tests check properties against.
    "themis::Agent::HypotheticalRho":
        "rho of one allocation, for the agent tests of V = 1/rho",
    "themis::WorkEstimator::TotalWork":
        "a whole job's estimate; only the estimator tests call it",
}


def run(args):
    return subprocess.run(args, check=True, capture_output=True,
                          text=True).stdout


def objects(build_dir):
    """Yields (target, object path) for every object file of the tree."""
    root = os.path.join(build_dir, "CMakeFiles")
    for entry in sorted(os.listdir(root)):
        if not entry.endswith(".dir"):
            continue
        for dirpath, _, files in os.walk(os.path.join(root, entry)):
            for name in sorted(files):
                if name.endswith(".o"):
                    yield entry[:-len(".dir")], os.path.join(dirpath, name)


def relocation_targets(obj):
    """The symbols `obj` references: its undefined ones, and the ones its
    own code or tables (vtables, atexit handlers) point at."""
    targets = set()
    for line in run(["readelf", "-rW", obj]).splitlines():
        fields = line.split()
        if len(fields) >= 5 and re.fullmatch(r"[0-9a-f]{8,}", fields[0]):
            targets.add(fields[4])
    return targets


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(symbols, out))


def qualified_name(signature):
    """"themis::A::f[abi:cxx11](int) const" -> "themis::A::f"."""
    depth = 0
    for i, c in enumerate(signature):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0 and not signature[:i].endswith(
                "operator"):
            return re.sub(r"\[abi:\w+\]", "", signature[:i])
    return signature


def strip_comments_and_strings(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif text.startswith("/*", i):
            i = text.find("*/", i + 2)
            i = n if i < 0 else i + 2
        elif text.startswith('R"', i):
            delim = text[i + 2:text.find("(", i)]
            i = text.find(")" + delim + '"', i)
            i = n if i < 0 else i + len(delim) + 2
            out.append('""')
        elif text[i] in "\"'":
            quote, i = text[i], i + 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append('""')
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def named_elsewhere_in_file(source, name, definitions):
    """Whether the last component of `name` appears in `source` more often
    than the file defines functions of that name."""
    try:
        with open(source, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
    except OSError:
        return False
    bare = name.split("::")[-1]
    pattern = r"(?<![\w~])" + re.escape(bare) + r"(?!\w)"
    return len(re.findall(pattern, text)) > definitions


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir = argv[1]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(build_dir, "CMakeFiles")):
        print(f"{build_dir}: not a CMake build tree", file=sys.stderr)
        return 2

    defined = {}  # mangled symbol -> the library source that defines it
    referenced = set()
    for target, obj in objects(build_dir):
        if target.endswith("_test"):
            continue
        try:
            if target == LIBRARY_TARGET:
                for line in run(["nm", "--defined-only", obj]).splitlines():
                    fields = line.split()
                    if len(fields) == 3 and fields[1] == "T":
                        rel = os.path.relpath(obj, os.path.join(
                            build_dir, "CMakeFiles", target + ".dir"))
                        defined[fields[2]] = os.path.join(repo, rel[:-2])
            referenced.update(relocation_targets(obj))
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"reading {obj} failed: {e}", file=sys.stderr)
            return 2
    if not defined:
        print(f"{build_dir}: no {LIBRARY_TARGET} objects", file=sys.stderr)
        return 2

    # Constructors and destructors have several symbols for one signature;
    # a function counts as called when any of its symbols is.
    signatures = demangle(sorted(defined))
    called, sources = set(), {}
    for symbol, signature in signatures.items():
        if not signature.startswith("themis::"):
            continue
        sources[signature] = defined[symbol]
        if symbol in referenced:
            called.add(signature)

    overloads = {}  # (source, bare name) -> functions it defines so named
    for signature, source in sources.items():
        key = (source, qualified_name(signature).split("::")[-1])
        overloads[key] = overloads.get(key, 0) + 1
    unused, allowed = [], set()
    for signature, source in sorted(sources.items()):
        name = qualified_name(signature)
        if signature in called or named_elsewhere_in_file(
                source, name, overloads[source, name.split("::")[-1]]):
            continue
        if name in ALLOWLIST:
            allowed.add(name)
        else:
            unused.append(f"{signature}  ({os.path.relpath(source, repo)})")
    script = os.path.relpath(os.path.abspath(__file__), repo)
    if unused:
        print("functions in src/ that no library or non-test code calls "
              f"(delete them, or add a fixture to ALLOWLIST in {script}):")
        for line in unused:
            print("  " + line)
    stale = sorted(set(ALLOWLIST) - allowed)
    if stale:
        print(f"ALLOWLIST entries in {script} that name no test-only "
              "function (remove them):")
        for name in stale:
            print("  " + name)
    if unused or stale:
        return 1
    print(f"{len(sources)} library functions, each with a non-test caller "
          f"({len(ALLOWLIST)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
