#!/usr/bin/env bash
# Local CI: formatting, lints, docs, the full test suite, the release-build
# timing floors, and the live-daemon smoke and soak. Run from the workspace
# root; everything is offline.
set -euo pipefail
cd "$(dirname "$0")"

# First-party packages only — the vendored offline mini-crates under
# vendor/ are exempt from fmt/clippy (they mirror external code).
PACKAGES=(
  datacenter-sprinting
  dcs-units dcs-breaker dcs-ups dcs-thermal dcs-server dcs-power
  dcs-workload dcs-faults dcs-core dcs-sim dcs-service dcs-econ dcs-testbed
  dcs-bench dcs-benchmark
)

echo "== size (informational, not a gate) =="
# First-party Rust outside the fixed benchmark crate: the line count
# ROADMAP.md quotes, from the command it quotes.
find src crates tests examples -name '*.rs' -not -path 'crates/benchmark/*' | xargs cat | wc -l
# Dead surface: `pub fn`s outside the benchmark crate whose name no other
# first-party file mentions. Some stay on purpose (test and documented
# hooks, accessors a test checks other behaviour through); the count is
# printed so that new dead surface shows up in review.
mapfile -t rs_files < <(find src crates tests examples -name '*.rs')
dead_pub_fns=0
while read -r file name; do
  others=$(grep -lw -- "$name" "${rs_files[@]}" | grep -cvx -- "$file" || true)
  if [ "$others" -eq 0 ]; then
    dead_pub_fns=$((dead_pub_fns + 1))
  fi
done < <(grep -Ho 'pub fn [a-z0-9_]*' "${rs_files[@]}" | grep -v '^crates/benchmark/' \
  | sed 's/:pub fn / /' | sort -u)
echo "$dead_pub_fns pub fns referenced nowhere outside their own file"

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

echo "== timing floors (release build) =="
# Throughput floors for the live decision path (bare engine >= 50k
# decisions/s with a sub-ms p99, >= 25k aggregate pipelined req/s, zero
# 5xx) and the <= 5% supervised clean-path budget for the table build.
# Debug builds skip these timing assertions; the timeout bounds a wedge.
timeout 600 cargo test --release -p dcs-service --test floors --offline -q
timeout 600 cargo test --release -p dcs-sim --test overhead --offline -q

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

echo "== chaos soak (1k decisions through the seeded fault proxy) =="
# The seeded ChaosProxy soak: a RetryClient drives 1,000 decisions through
# injected resets, truncations, stalls, and trickled bytes, then asserts
# the post-soak hot state is bit-identical to a clean run of the same
# demand stream (exactly-once under ambiguous retries). The stage timeout
# is the zero-hang proof: a single wedged read would blow it.
timeout 300 cargo test -p dcs-service --test soak --offline -q

echo "CI green."
