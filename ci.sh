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
# Panic-isolated sweeps, deadline watchdog trips, checkpoint kill/resume,
# truncation/bit-flip corruption fallback — all asserting bit-identical
# results against clean runs.
cargo test -p dcs-sim --test chaos --offline -q

echo "== simulate CLI exit codes =="
cargo test -p dcs-bench --test simulate_cli --offline -q

echo "== benches compile =="
cargo bench --workspace --offline --no-run -q

echo "== perf report smoke (batched vs independent, supervised vs plain, hyperscale) =="
# Tiny-scale run of the perf-trajectory harness. The binary exits non-zero
# unless every batched result — Oracle best bounds/outcomes, the table
# cell-for-cell, and the per-lane summaries under a random fault schedule —
# is bit-identical to the independent per-lane runs, the supervised +
# checkpointed table build reproduces the plain batched build, and a build
# killed at a snapshot boundary resumes to the identical table. A written
# report is itself the smoke; the validator double-checks the flags and
# that every timed section carries honest work counts. (The <=5% supervised
# overhead budget is enforced by the binary in full mode only — tiny-scale
# tables finish in ~2 ms, so checkpoint I/O dominates and the ratio is
# meaningless there.) The v6 scale_hyperscale section runs even in tiny
# mode (at reduced but still thousand-PDU dimensions): it re-asserts
# batched == independent and thread-count invariance on the hyperscale
# facility and records the worker-budget sweep.
smoke_json="$(mktemp)"
cargo run --release -p dcs-bench --bin perf_report --offline -q -- \
  --tiny --out "$smoke_json" > /dev/null
python3 - "$smoke_json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
sections = ["run_full", "run_lean", "oracle_exhaustive", "oracle_pruned",
            "oracle_pruned_unbatched", "table_exhaustive", "table_pruned",
            "table_pruned_unbatched", "table_pruned_supervised"]
required = ["schema", "mode", "batched_equals_independent", "best_bound",
            "supervised_table_overhead", "supervised_overhead_within_budget",
            "kill_resume_reproduces_table", "kernel_overhead",
            "speedup_run_vs_pr5", "speedup_oracle_vs_pr5",
            "speedup_table_vs_pr5", "scale_hyperscale"] + sections
missing = [k for k in required if k not in report]
assert not missing, f"perf report missing sections: {missing}"
assert report["schema"] == "dcs-bench/perf-report-v6", report["schema"]
assert report["mode"] == "tiny", report["mode"]
# kernel_overhead is anchored to full-mode PR4 timings; tiny mode runs a
# different scale, so the section must be present but null here. A full
# run must land within budget (the binary aborts otherwise). The same
# goes for the PR5 speedup anchors.
ko = report["kernel_overhead"]
assert ko is None or ko["within_budget"] is True, ko
assert report["batched_equals_independent"] is True, \
    "batched engine diverged from independent per-lane runs"
assert report["kill_resume_reproduces_table"] is True, \
    "kill-and-resume did not reproduce the table"
hy = report["scale_hyperscale"]
assert hy["batched_equals_independent"] is True, \
    "hyperscale batched engine diverged from independent runs"
assert hy["thread_count_invariant"] is True, \
    "hyperscale table diverged across worker budgets"
assert hy["pdus"] >= 1000, f"hyperscale has only {hy['pdus']} PDUs"
assert hy["total_cores"] >= 250_000, hy["total_cores"]
assert len(hy["thread_scaling"]) >= 2 \
    and all(p["table_ms"] > 0 for p in hy["thread_scaling"]), \
    "hyperscale worker sweep is incomplete"
assert 0 < hy["parallel_efficiency"], hy["parallel_efficiency"]
batched = 0
hy_sections = [("hyperscale." + k, hy[k])
               for k in ["run_lean", "oracle_pruned", "table_pruned"]]
for k, sec in [(k, report[k]) for k in sections] + hy_sections:
    assert sec["time_ms"] > 0, f"{k} has no timing"
    assert sec["sim_runs"] > 0, f"{k} has no work count"
    lanes = sec.get("lane_steps")
    if lanes is not None:
        assert lanes["live"] > 0 and lanes["unique_lanes"] > 0, \
            f"{k} went through the batched engine but reports no lane steps"
        batched += 1
assert batched >= 7, f"only {batched} sections report lane steps"
print(f"perf report OK ({len(sections) + len(hy_sections)} sections, "
      f"{batched} batched, hyperscale {hy['total_cores']} cores)")
EOF
rm -f "$smoke_json"

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

echo "== load report (multi-client throughput, chaos mode, idempotent retry) =="
# Full-mode run: the binary itself aborts unless the bare engine clears
# 50k decisions/s with a sub-ms p99, the single-connection and pipelined
# multi-client drives see zero 5xx, the aggregate pipelined rate clears
# its floor, the chaos-proxy run surfaces only typed errors and advances
# the plant exactly once per decision, and the forced ambiguous retry is
# replayed rather than re-applied. The validator re-checks every flag
# from the written report.
load_json="$(mktemp)"
cargo run --release -p dcs-bench --bin load_report --offline -q -- \
  --out "$load_json" > /dev/null
python3 - "$load_json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "dcs-bench/perf-report-v7", r["schema"]
assert r["mode"] == "full", r["mode"]
e, h = r["engine"], r["http"]
m, c, idem = r["http_multi"], r["chaos"], r["idempotent_retry"]
assert e["decisions"] >= 100_000, e["decisions"]
assert e["rate_per_sec"] >= 50_000, e["rate_per_sec"]
assert e["latency"]["p99_us"] < 1_000, e["latency"]
assert e["meets_rate_floor"] and e["sub_ms_p99"], e
assert h["requests"] >= 1_000, h["requests"]
assert h["responses_5xx"] == 0 and h["zero_5xx"], h
assert h["rate_per_sec"] > 100, h["rate_per_sec"]
# Aggregate pipelined throughput: the worker-pool accept path must
# sustain many concurrent clients without a single 5xx.
assert m["clients"] >= 4 and m["pipeline_depth"] >= 8, m
assert m["requests"] >= 10_000, m["requests"]
assert m["responses_5xx"] == 0 and m["zero_5xx"], m
assert m["aggregate_rate_per_sec"] >= 25_000, m["aggregate_rate_per_sec"]
assert m["meets_rate_floor"], m
# Chaos mode: faults were actually injected, every surfaced error was
# typed, and the plant advanced exactly once per intended decision.
assert c["decisions"] >= 1_000, c["decisions"]
faults = (c["injected_resets"] + c["injected_truncations"]
          + c["injected_stalls"] + c["injected_trickles"])
assert faults > 0, "chaos run injected no faults"
assert c["client_retries"] > 0, "chaos never forced a retry"
assert c["untyped_errors"] == 0, c["untyped_errors"]
assert c["exactly_once"], "chaos run was not exactly-once"
# The forced ambiguous retry: replayed, never re-applied.
assert idem["replayed_on_retry"], idem
assert idem["no_double_advance"], idem
assert idem["conflict_is_typed"], idem
print(f"load report OK: engine {e['rate_per_sec']:.0f}/s "
      f"(p99 {e['latency']['p99_us']:.1f} us), "
      f"http {h['rate_per_sec']:.0f}/s, "
      f"multi {m['aggregate_rate_per_sec']:.0f}/s aggregate, "
      f"chaos {faults} faults / {c['client_retries']} retries / "
      f"0 untyped, idempotent retry OK")
EOF
rm -f "$load_json"

echo "CI green."
