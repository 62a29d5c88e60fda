#!/usr/bin/env python3
"""Check that the x86-64-v4 copy of the lane kernels stays in its lane.

Usage:
    isa_leak_check.py --compile-commands BUILD/compile_commands.json
                      [--nm nm] [--objdump objdump]

The lane kernels are compiled twice (docs/performance.md §2, "Runtime ISA
dispatch"): a baseline copy and src/circuit/batch_opamp_v4.cpp, the only
source built with -march=x86-64-v4. Two link-level mistakes would let
AVX-512 code run on a CPU without it, or let the fast copy silently never
run. This script reads the build's compile_commands.json, finds the
objects of src/circuit and src/device, and checks:

  symbols  every global or weak symbol the v4 object defines lies in the
           anadex::circuit::isa_v4 or anadex::device::isa_v4 namespace
           (nm --defined-only). A weak symbol outside it, such as an
           out-of-line std::max or a kernel template without the namespace
           wrap, may be the copy the linker keeps for every caller.
  zmm      no other object of src/circuit or src/device uses a zmm
           register (objdump -d). Skipped, with a note, when the whole
           build already targets AVX-512 (CMAKE_CXX_FLAGS=-march=native on
           such a host): then every object may use it.

A build without the v4 copy (not x86-64, or a compiler without
-march=x86-64-v4) has nothing to check: exit 77, which ctest reports as
skipped. Exit 1 lists every finding; exit 0 means both checks passed.
Only the standard library is used.
"""

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

SKIP = 77
V4_SOURCE = "src/circuit/batch_opamp_v4.cpp"
CHECKED_DIRS = ("src/circuit/", "src/device/")
# Itanium mangling of a name nested in either isa_v4 namespace; a leading
# _ZZ is an entity local to such a function (a lambda, say).
V4_MANGLED = re.compile(r"^_ZZ?NK?6anadex(?:7circuit|6device)6isa_v4")
# The C++ personality-routine pointer every object with unwind tables
# shares; it is data, not code.
SHARED_DATA = {"DW.ref.__gxx_personality_v0"}
AVX512_FLAG = re.compile(r"^-m(?:arch=(?:native|x86-64-v4|.*avx512.*)|avx512)")


def objects(db_path: Path):
    """(source relpath, object path, compile args) of the checked sources."""
    found = []
    for entry in json.loads(db_path.read_text()):
        args = entry.get("arguments") or shlex.split(entry["command"])
        source = Path(entry["file"])
        parts = source.as_posix().split("/src/")
        relpath = "src/" + parts[-1] if len(parts) > 1 else source.as_posix()
        if not relpath.startswith(CHECKED_DIRS) or "-o" not in args:
            continue
        obj = Path(args[args.index("-o") + 1])
        if not obj.is_absolute():
            obj = Path(entry["directory"]) / obj
        found.append((relpath, obj, args))
    return found


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"isa-leak: {' '.join(cmd)} failed: {proc.stderr.strip()}")
    return proc.stdout


def symbol_leaks(obj: Path, nm_tool: str):
    """Exported symbols of `obj` outside isa_v4, demangled for display.
    `nm -p` keeps symbol-table order, so the raw and -C listings align."""
    raw = run([nm_tool, "-p", "--defined-only", str(obj)]).splitlines()
    shown = run([nm_tool, "-p", "--defined-only", "-C", str(obj)]).splitlines()
    leaks = []
    for line, pretty in zip(raw, shown):
        fields = line.split()
        if len(fields) < 3:
            continue
        kind, name = fields[1], fields[2]
        exported = kind.isupper() or kind in ("u", "v", "w", "i")
        if exported and name not in SHARED_DATA and not V4_MANGLED.match(name):
            leaks.append(pretty.split(None, 1)[1])
    return leaks


def zmm_uses(obj: Path, objdump_tool: str) -> int:
    text = run([objdump_tool, "-d", "--no-show-raw-insn", str(obj)])
    return sum(1 for line in text.splitlines() if "%zmm" in line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands", required=True, type=Path)
    parser.add_argument("--nm", default="nm")
    parser.add_argument("--objdump", default="objdump")
    args = parser.parse_args(argv)

    checked = objects(args.compile_commands)
    v4 = [(rel, obj) for rel, obj, _ in checked if rel == V4_SOURCE]
    if not v4:
        print(f"isa-leak: skipped: {V4_SOURCE} is not part of this build")
        return SKIP
    missing = [str(obj) for _, obj, _ in checked if not obj.is_file()]
    if missing:
        print("isa-leak: objects not built yet: " + ", ".join(missing))
        return 1

    findings = []
    _, v4_obj = v4[0]
    for leak in symbol_leaks(v4_obj, args.nm):
        findings.append(f"symbols: {v4_obj.name} exports {leak} outside the isa_v4 namespace")

    # An AVX-512 target flag every object carries is the build's own choice;
    # one that only some carry has leaked from the v4 source.
    build_wide = set.intersection(
        *({flag for flag in flags if AVX512_FLAG.match(flag)} for _, _, flags in checked))
    notes = []
    for rel, obj, flags in checked:
        if rel == V4_SOURCE:
            continue
        if build_wide & set(flags):
            notes.append(f"zmm: {rel} skipped, the whole build targets "
                         f"{' '.join(sorted(build_wide))}")
            continue
        uses = zmm_uses(obj, args.objdump)
        if uses:
            findings.append(f"zmm: {rel} ({obj.name}) has {uses} instructions on zmm "
                            "registers; only the x86-64-v4 copy may")

    for note in notes:
        print("isa-leak: " + note)
    for finding in findings:
        print("isa-leak: " + finding)
    if findings:
        print(f"isa-leak: FAIL, {len(findings)} finding(s)")
        return 1
    print(f"isa-leak: ok: {v4_obj.name} exports only isa_v4 symbols; none of the "
          f"{len(checked) - 1 - len(notes)} other circuit/device objects checked uses zmm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
