#!/usr/bin/env python3
"""Tier-1 gate: the workspace test run, judged against the known-red list.

Runs `cargo test --offline --workspace --no-fail-fast` once (no retries),
echoes its output, and names every failing test as `binary::test` — the
test binary's name (`determinism`, `lagraph`, `doc:graphblas`) followed by
the path libtest prints. A failure listed in `scripts/known_red.txt` is
reported and tolerated; any other failure, or a cargo error that is not a
test failure (a build break), fails the gate. Listed tests that passed are
printed too, so the list can shrink as ROADMAP item 1 is worked off.

Usage: python3 scripts/tier1_gate.py [repo_root]
Exits 0 when nothing outside the list failed, 1 otherwise.
"""

import re
import subprocess
import sys
from pathlib import Path

# "Running tests/determinism.rs (target/debug/deps/determinism-0bad3c72f64f900f)"
RUNNING = re.compile(r"^\s*Running .*\((?:.*/)?([\w-]+?)-[0-9a-f]{16}\)\s*$")
DOCTEST = re.compile(r"^\s*Doc-tests (\S+)\s*$")
RESULT = re.compile(r"^test (.+?)(?: - should panic)? \.\.\. (ok|FAILED|ignored)\b")


def known_red(path: Path) -> set[str]:
    lines = (raw.split("#")[0].strip() for raw in path.read_text().splitlines())
    return {line for line in lines if line}


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    listed = known_red(root / "scripts" / "known_red.txt")
    cargo = subprocess.Popen(
        ["cargo", "test", "--offline", "--workspace", "--no-fail-fast"],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    binary = None
    passed, failed = set(), set()
    for line in cargo.stdout:
        sys.stdout.write(line)
        if m := RUNNING.match(line):
            binary = m.group(1)
        elif m := DOCTEST.match(line):
            binary = f"doc:{m.group(1)}"
        elif (m := RESULT.match(line)) and m.group(2) != "ignored":
            (failed if m.group(2) == "FAILED" else passed).add(f"{binary}::{m.group(1)}")
    status = cargo.wait()

    print("\n== tier-1 gate ==")
    print(f"{len(passed)} passed, {len(failed)} failed, {len(listed)} listed as known red")
    for name in sorted(failed & listed):
        print(f"known red, failed:  {name}")
    for name in sorted(passed & listed):
        print(f"known red, PASSED:  {name}")
    for name in sorted(listed - passed - failed):
        print(f"known red, not run: {name}")
    unexpected = sorted(failed - listed)
    for name in unexpected:
        print(f"NEW FAILURE:        {name}")
    if status != 0 and not failed:
        print(f"cargo exited {status} without a failing test (build error?)")
        return 1
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
