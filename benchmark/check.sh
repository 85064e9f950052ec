#!/usr/bin/env bash
# Everything that keeps the benchmark honest, in one place: offline
# build, hermetic-manifest guard, unit + smoke tests, and a lint of
# BENCHMARK.json against the driver contract. Run from anywhere.
# (Wiring this into .github/workflows/ci.yml is left to a later issue.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
python3 scripts/check_hermetic.py benchmark
cargo test --release --offline --manifest-path benchmark/Cargo.toml

python3 - <<'PY'
import json, os, re, sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

raw = open("BENCHMARK.json", "rb").read()
assert len(raw) <= 64 * 1024, "BENCHMARK.json is over 64 KiB"
m = json.loads(raw)
assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(m)

assert 1 <= len(m["paths"]) <= 16
for p in m["paths"]:
    assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"), p
    assert os.path.isdir(p), f"{p} is not a directory"
assert 1 <= len(m["command"]) <= 32
for arg in m["command"]:
    assert isinstance(arg, str) and len(arg) <= 200 and not arg.startswith("/") and ".." not in arg.split("/"), arg
    if "/" in arg:
        assert any(arg == p or arg.startswith(p + "/") for p in m["paths"]), f"{arg} is outside paths"
assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60

assert 2 <= len(m["workloads"]) <= 8
for w in m["workloads"]:
    assert set(w) == {"name", "why"} and NAME.match(w["name"]), w
    assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
assert 1 <= len(m["end_to_end"]) <= 16
for d in m["end_to_end"]:
    assert set(d) == {"name", "unit", "better", "bound"}, d
    assert 0 < d["bound"] <= 0.25, d
assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
    next(d for d in m["end_to_end"] if d["name"] == "setup_s").items()
assert 1 <= len(m["per_layer"]) <= 128
for d in m["per_layer"]:
    assert set(d) == {"name", "unit", "better"}, d
for d in m["end_to_end"] + m["per_layer"]:
    assert NAME.match(d["name"]) and UNIT.match(d["unit"]) and d["better"] in ("higher", "lower"), d
names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
assert len(names) == len(set(names)), "a name is used twice"

runs = 4 + 22 * len(m["workloads"])
print(f"BENCHMARK.json ok: {len(m['workloads'])} workloads, {len(m['end_to_end'])} end-to-end and "
      f"{len(m['per_layer'])} per-layer metrics; the driver makes {runs} runs of {m['run_seconds']} s")
PY
