#!/usr/bin/env python3
"""Fails when libtegrec holds a function that no production binary links.

Builds the production targets (tegrec_cli, every bench_*, every example_*)
and perfbench's tegbench at -O0 with -ffunction-sections -fdata-sections
and -Wl,--gc-sections, so the linker keeps exactly the functions some
call chain from main() reaches.  -O0 matters: at -O2 inlining hides the
callers.  Every `tegrec::` function defined in the library archive that
no binary contains and tools/reachability_allowlist.txt does not name is
reported, and the exit code is 1; so is an allowlist entry that matches
no unlinked function.  Standard-library instantiations (`std::`,
`__gnu_cxx::`) are ignored.

Usage (from the checkout root):
    python3 tools/check_reachable.py [--build-dir DIR] [--jobs N]

The build goes to DIR (default .reach_build): DIR/main for the main
project, DIR/perfbench for tegbench.  Reruns only rebuild what changed.
"""

import argparse
import fnmatch
import glob
import os
import subprocess
import sys

FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"check_reachable: command failed: {' '.join(cmd)}")
    return proc.stdout


def configure_and_build(src, build, extra, targets, jobs):
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=NoOpt",
             f"-DCMAKE_CXX_FLAGS={FLAGS}",
             f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"] + extra)
    cmd = ["cmake", "--build", build, "-j", str(jobs)]
    for target in targets:
        cmd += ["--target", target]
    run(cmd)


def function_name(demangled):
    """The function's signature without return type or lambda tail.

    `void tegrec::util::f<int>(int)::{lambda()#1}::operator()() const`
    becomes `tegrec::util::f<int>(int)`, so constructor variants and the
    lambdas inside one function collapse to one entry while overloads stay
    apart.
    """
    angle = 0
    paren = 0
    start = 0
    i = 0
    while i < len(demangled):
        ch = demangled[i]
        if demangled.startswith("(anonymous namespace)", i):
            i += len("(anonymous namespace)")
            continue
        if ch == "<" and paren == 0:
            angle += 1
        elif ch == ">" and paren == 0:
            angle -= 1
        elif ch == " " and angle == 0 and paren == 0:
            # A space outside brackets ends a return type, except inside
            # names like `operator new`.
            if not demangled[:i].endswith("operator"):
                start = i + 1
        elif ch == "(" and angle == 0:
            paren += 1
        elif ch == ")" and angle == 0:
            paren -= 1
            if paren == 0:
                return demangled[start:i + 1]
        i += 1
    return demangled[start:]


def shorten(name):
    """Spells libstdc++'s long std::string name the way the source does."""
    return name.replace(
        "std::__cxx11::basic_string<char, std::char_traits<char>, "
        "std::allocator<char> >", "std::string").replace("[abi:cxx11]", "")


def defined_functions(path):
    out = run(["nm", "-C", "--defined-only", path])
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t", "W", "w"):
            continue
        name = shorten(function_name(parts[2]))
        if name.startswith("tegrec::"):
            names.add(name)
    return names


def load_allowlist(path):
    patterns = []
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            pattern, sep, reason = line.partition("#")
            if not sep or not reason.strip():
                sys.exit(f"check_reachable: {path}:{number}: every entry needs "
                         "a '# reason'")
            patterns.append(pattern.strip())
    return patterns


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=".reach_build")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.abspath(args.build_dir)
    main_build = os.path.join(build, "main")
    bench_build = os.path.join(build, "perfbench")

    configure_and_build(root, main_build,
                        ["-DBUILD_TESTING=OFF", "-DTEGREC_BUILD_BENCHES=ON",
                         "-DTEGREC_BUILD_EXAMPLES=ON"], [], args.jobs)
    configure_and_build(os.path.join(root, "perfbench"), bench_build, [],
                        ["tegbench"], args.jobs)

    binaries = [os.path.join(main_build, "tegrec_cli")]
    binaries += sorted(glob.glob(os.path.join(main_build, "bench_*")))
    binaries += sorted(glob.glob(os.path.join(main_build, "example_*")))
    binaries.append(os.path.join(bench_build, "tegbench"))
    binaries = [b for b in binaries
                if os.path.isfile(b) and os.access(b, os.X_OK)]

    library = defined_functions(os.path.join(main_build, "libtegrec.a"))
    linked = set()
    for binary in binaries:
        linked |= defined_functions(binary)

    allowlist = load_allowlist(os.path.join(root, "tools",
                                            "reachability_allowlist.txt"))
    used = set()
    unreachable = []
    for name in sorted(library - linked):
        hits = [p for p in allowlist if fnmatch.fnmatchcase(name, p)]
        if hits:
            used.update(hits)
        else:
            unreachable.append(name)

    print(f"check_reachable: {len(binaries)} production binaries, "
          f"{len(library)} library functions, {len(library - linked)} "
          f"unlinked, {len(allowlist)} allowlist entries")
    stale = [p for p in allowlist if p not in used]
    for pattern in stale:
        print(f"check_reachable: allowlist entry matches no unlinked "
              f"function (delete it): {pattern}")
    if unreachable:
        print(f"check_reachable: {len(unreachable)} library function(s) no "
              "production binary links; wire them in, move them under "
              "tests/, or allowlist them with a reason:")
        for name in unreachable:
            print(f"  {name}")
    return 1 if unreachable or stale else 0


if __name__ == "__main__":
    sys.exit(main())
