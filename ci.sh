#!/usr/bin/env bash
# Local CI: formatting, lints, the full test suite, and the fault-injection
# property suite. Run from the workspace root; everything is offline.
set -euo pipefail
cd "$(dirname "$0")"

# First-party packages only — the vendored offline mini-crates under
# vendor/ are exempt from fmt/clippy (they mirror external code).
PACKAGES=(
  datacenter-sprinting
  dcs-units dcs-breaker dcs-ups dcs-thermal dcs-server dcs-power
  dcs-workload dcs-faults dcs-core dcs-sim dcs-service dcs-econ dcs-testbed
  dcs-bench
)

echo "== rustfmt =="
fmt_paths=(src crates/*/src crates/*/tests tests examples)
mapfile -t fmt_files < <(find "${fmt_paths[@]}" -name '*.rs' 2>/dev/null)
rustfmt --edition 2021 --check "${fmt_files[@]}"

echo "== clippy =="
clippy_args=()
for p in "${PACKAGES[@]}"; do clippy_args+=(-p "$p"); done
cargo clippy "${clippy_args[@]}" --all-targets --offline -- -D warnings

echo "== tests =="
cargo test --workspace --offline -q

echo "== docs (missing or broken docs are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== fault suite =="
cargo test -p dcs-sim --test faults --offline -q

echo "== chaos smoke (supervised execution under injected failures) =="
# Panic-isolated sweeps, retried deadline overruns, checkpoint
# kill/resume, truncation/bit-flip corruption fallback — all asserting
# bit-identical results against clean runs. The second pass repeats it on
# one worker, where every nested sweep runs inline on that worker.
cargo test -p dcs-sim --test chaos --offline -q
DCS_THREADS=1 cargo test -p dcs-sim --test chaos --offline -q

echo "== CLI exit codes (simulate, bench) =="
cargo test -p dcs-bench --test simulate_cli --test bench_cli --offline -q

echo "== service smoke (sprintd: 1k live decisions, kill -9, bit-identical resume) =="
# Boots the real daemon, drives 1000 /step decisions over one keep-alive
# connection (zero 5xx tolerated), snapshots /status, SIGKILLs the
# process, restarts it on the same state directory, and asserts the
# restored facility section — breaker thermal memory, UPS/TES charge,
# room temperature — is bit-identical JSON. checkpoint_every=1 makes
# every decision durable before its response.
cargo build --release -p dcs-service --bin sprintd --offline -q
svc_dir="$(mktemp -d)"
printf '%s\n' '{"pdus":2,"servers_per_pdu":20,"checkpoint_every":1}' \
  > "$svc_dir/service.json"
svc_pid=""
svc_addr=""
boot_sprintd() {
  : > "$svc_dir/boot.log"
  target/release/sprintd "$svc_dir/service.json" \
    --state-dir "$svc_dir/state" --port 0 > "$svc_dir/boot.log" &
  svc_pid=$!
  svc_addr=""
  for _ in $(seq 200); do
    svc_addr="$(sed -n 's/^listening on //p' "$svc_dir/boot.log")"
    [ -n "$svc_addr" ] && break
    sleep 0.05
  done
  [ -n "$svc_addr" ] || { echo "sprintd did not boot"; exit 1; }
}
boot_sprintd
python3 - "$svc_addr" "$svc_dir/before.json" <<'EOF'
import http.client, json, sys
addr, out = sys.argv[1], sys.argv[2]
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=30)
for i in range(1000):
    demand = 2.6 if i % 60 < 12 else 0.6
    conn.request("POST", "/step", json.dumps({"demand": demand}))
    r = conn.getresponse()
    body = r.read()
    assert r.status == 200, f"step {i}: {r.status} {body!r}"
conn.request("GET", "/status")
status = json.loads(conn.getresponse().read())
assert status["mode"] == "serving", status["mode"]
assert status["decisions"] == 1000, status["decisions"]
assert status["counters"]["served"] == 1000, status["counters"]
with open(out, "w") as f:
    json.dump(status, f)
print("service smoke: 1000 decisions served, zero 5xx")
EOF
kill -9 "$svc_pid"
wait "$svc_pid" 2>/dev/null || true
# Snapshots hold runtime state only: a v2 tag, and well under 1 KB for
# this plant (the spec is rebuilt on boot, not stored).
snap="$(ls "$svc_dir"/state/plant-*/snap-*.json | sort | tail -n 1)"
grep -q '"schema":"dcs-service/hot-state-v2"' "$snap" \
  || { echo "service smoke: $snap is not a hot-state-v2 snapshot"; exit 1; }
snap_bytes="$(wc -c < "$snap")"
[ "$snap_bytes" -lt 1024 ] \
  || { echo "service smoke: $snap is $snap_bytes bytes, want < 1024"; exit 1; }
echo "service smoke: newest snapshot is hot-state-v2, $snap_bytes bytes"
boot_sprintd
python3 - "$svc_addr" "$svc_dir/before.json" <<'EOF'
import http.client, json, sys
addr, before_path = sys.argv[1], sys.argv[2]
before = json.load(open(before_path))
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=30)
conn.request("GET", "/status")
after = json.loads(conn.getresponse().read())
assert after["decisions"] == before["decisions"], \
    (after["decisions"], before["decisions"])
assert after["facility"] == before["facility"], \
    "facility hot state diverged across kill -9"
assert after["sprint"] == before["sprint"], \
    (after["sprint"], before["sprint"])
conn.request("POST", "/shutdown")
assert conn.getresponse().status == 200
print("service smoke: kill -9 resume is bit-identical")
EOF
wait "$svc_pid"
rm -rf "$svc_dir"

echo "== perfbench smoke =="
# Two-second untraced run of each benchmark workload. Seed 1 carries the
# pinned sweep and table digests, which hash serde_json output, so any
# byte drift in the encoder fails here. The last line of each run is the
# summary; it must report a correct run with no failed operations.
for workload in plan-sweep feed-small feed-large; do
  summary="$(cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
  python3 - "$workload" "$summary" <<'EOF'
import json, sys
workload, summary = sys.argv[1], json.loads(sys.argv[2])
assert summary["correct"] is True, f"{workload}: incorrect run {summary}"
assert summary["failed"] == 0, f"{workload}: {summary['failed']} failed ops"
print(f"perfbench {workload}: correct, {summary['attempted']} ops, 0 failed")
EOF
done

echo "== chaos soak (1k decisions through the seeded fault proxy) =="
# The seeded ChaosProxy soak: a RetryClient drives 1,000 decisions through
# injected resets, truncations, stalls, and trickled bytes, then asserts
# the post-soak hot state is bit-identical to a clean run of the same
# demand stream (exactly-once under ambiguous retries). The stage timeout
# is the zero-hang proof: a single wedged read would blow it.
timeout 300 cargo test -p dcs-service --test soak --offline -q

echo "== bench (sim, hyperscale, service, chaos) =="
# One full run of the timing harness. The binary exits non-zero unless
# every batched result is bit-identical to its independent per-lane runs
# (pruned == exhaustive, lean == full, the supervised and kill/resume
# tables == the plain build, the hyperscale table invariant across worker
# budgets), supervision costs <= 5% over the plain table build, the bare
# engine clears 50k decisions/s with a sub-ms p99, the HTTP drives see
# zero 5xx with >= 25k req/s aggregate pipelined, and the chaos run
# surfaces only typed errors and advances the plant exactly once per
# decision. It checks these on the serialized-and-reparsed report.
bench_json="$(mktemp)"
cargo run --release -p dcs-bench --bin bench --offline -q > "$bench_json"
rm -f "$bench_json"

echo "CI green."
