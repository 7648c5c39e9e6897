#!/usr/bin/env bash
# Smoke-test the crossbar_serve daemon: one query of every kind over
# stdin/stdout, then (when python3 is available) the same mixed stream
# through the Unix-domain socket.  Round 1 also sends an admit with its
# fields reordered, spaces and an unknown field (read by the direct
# request reader) and a line with a bad op (read by the JSON parser,
# which writes the error).  A round at --capacity 1 then sends one batch
# whose second solve evicts the first tree before a read of it.  An
# out-of-memory round, under `ulimit -v`, sends a batch whose second
# solve cannot allocate its lattice: it must answer ok:false and the
# daemon must serve the rest of the batch.  An admit round (python3
# again) checks every class's admit against the shadow_costs response
# of the same batch.  Any other ok:false response, missing response, or
# hung daemon fails the script.
#
# Usage: scripts/serve_smoke.sh [path-to-crossbar_serve.exe] [output.jsonl]
# (the output file ends up holding the last stdin round's responses)
#
# The output file defaults to a temp path removed on exit, so a smoke
# run never leaves artifacts in the working tree (CI asserts this).
set -euo pipefail

SERVE="${1:-_build/default/bin/crossbar_serve.exe}"
if [ $# -ge 2 ]; then
  OUT="$2"
  CLEAN_OUT=""
else
  OUT="$(mktemp "${TMPDIR:-/tmp}/crossbar-serve-smoke-XXXXXX.jsonl")"
  CLEAN_OUT="$OUT"
fi
DAEMON=""
SOCK=""
cleanup() {
  if [ -n "$DAEMON" ]; then kill "$DAEMON" 2>/dev/null || true; fi
  if [ -n "$SOCK" ]; then rm -f "$SOCK"; fi
  if [ -n "$CLEAN_OUT" ]; then rm -f "$CLEAN_OUT"; fi
}
trap cleanup EXIT

if [ ! -x "$SERVE" ]; then
  echo "FATAL: $SERVE not built (run: dune build bin)" >&2
  exit 1
fi

MODEL='{"inputs":8,"outputs":8,"classes":[{"name":"voice","bandwidth":1,"alpha":0.5,"mu":1.0},{"name":"video","bandwidth":2,"alpha":0.3,"beta":0.1,"mu":0.5}]}'

# ---- round 1: line protocol over stdin/stdout ----
# The lines after stats follow a pause, so they reach the daemon in a
# later batch; stats counts only the five requests before it.
{
  printf '%s\n' \
    "{\"id\":1,\"op\":\"solve\",\"tree\":\"smoke\",\"model\":$MODEL}" \
    '{"id":2,"op":"blocking","tree":"smoke"}' \
    '{"id":3,"op":"delta","tree":"smoke","changes":[{"class":0,"alpha":0.6}]}' \
    '{"id":4,"op":"shadow_costs","tree":"smoke","weights":[1.0,0.2]}' \
    '{"id":5,"op":"admit","tree":"smoke","class":1,"weights":[1.0,0.2]}' \
    '{"id":6,"op":"stats"}'
  sleep 1
  printf '%s\n' \
    '{ "weights": [1.0, 0.2], "x": [1, {"k": null}], "class": 1, "tree": "smoke", "op": "admit", "id": 8 }' \
    '{"id":"bad-op","op":"nope","tree":"smoke"}' \
    '{"id":7,"op":"shutdown"}'
} | timeout 60 "$SERVE" > "$OUT"

lines=$(wc -l < "$OUT")
if [ "$lines" -ne 9 ]; then
  echo "FATAL: expected 9 responses over stdin, got $lines" >&2
  cat "$OUT" >&2
  exit 1
fi
# The bad op is the one refusal, and it carries its id back.
if grep '"ok":false' "$OUT" | grep -qv '^{"id":"bad-op","ok":false,'; then
  echo "FATAL: a smoke query failed:" >&2
  grep '"ok":false' "$OUT" >&2
  exit 1
fi
if ! grep -q '^{"id":"bad-op","ok":false,"error":"unknown op \\"nope\\""}$' "$OUT"; then
  echo "FATAL: the bad op was not refused with its id:" >&2
  cat "$OUT" >&2
  exit 1
fi
if ! grep -q '^{"id":8,"ok":true,"op":"admit","tree":"smoke","class":1,' "$OUT"; then
  echo "FATAL: the reordered admit (id 8) was not answered ok:true:" >&2
  cat "$OUT" >&2
  exit 1
fi
# The stats response (id 6) follows the five tree queries: its telemetry
# must count exactly those as requests, only the solve and the delta as
# solves, and carry fixed-size aggregates only, never a per-request
# record list.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as out:
    responses = [json.loads(line) for line in out if line.strip()]
stats = next((r for r in responses if r.get("id") == 6), None)
if stats is None:
    sys.exit("FATAL: no stats response (id 6)")
telemetry = stats.get("telemetry")
if not isinstance(telemetry, dict):
    sys.exit(f"FATAL: stats response lacks a telemetry object: {stats}")
if telemetry.get("requests") != 5:
    sys.exit(f"FATAL: stats telemetry.requests is {telemetry.get('requests')}, expected 5")
if telemetry.get("solves") != 2:
    sys.exit(f"FATAL: stats telemetry.solves is {telemetry.get('solves')}, expected 2")
if "records" in telemetry:
    sys.exit("FATAL: stats telemetry carries a records list")
PYEOF
else
  stats_line=$(grep '"id":6,' "$OUT" || true)
  if [ -z "$stats_line" ]; then
    echo "FATAL: no stats response (id 6)" >&2
    exit 1
  fi
  if ! printf '%s\n' "$stats_line" | grep -q '"telemetry":{"requests":5,"solves":2,'; then
    echo "FATAL: stats telemetry is not 5 requests and 2 solves: $stats_line" >&2
    exit 1
  fi
  if printf '%s\n' "$stats_line" | grep -q '"records"'; then
    echo "FATAL: stats telemetry carries a records list" >&2
    exit 1
  fi
fi
echo "stdin round: 9/9 answered, 8 ok and the bad op refused"

# ---- capacity round: a batch that evicts is served in arrival order ----
# With room for one tree, installing b evicts a before the read of a
# queued behind it, so that read answers "unknown tree" exactly as it
# would one request at a time, and stats counts the one eviction.
status=0
printf '%s\n' \
  "{\"id\":1,\"op\":\"solve\",\"tree\":\"a\",\"model\":$MODEL}" \
  "{\"id\":2,\"op\":\"solve\",\"tree\":\"b\",\"model\":$MODEL}" \
  '{"id":3,"op":"blocking","tree":"a"}' \
  '{"id":4,"op":"stats"}' \
  '{"id":5,"op":"shutdown"}' |
  timeout 60 "$SERVE" --capacity 1 > "$OUT" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FATAL: the capacity round's daemon exited with status $status" >&2
  cat "$OUT" >&2
  exit 1
fi
lines=$(wc -l < "$OUT")
if [ "$lines" -ne 5 ]; then
  echo "FATAL: expected 5 responses in the capacity round, got $lines" >&2
  cat "$OUT" >&2
  exit 1
fi
for id in 1 2 5; do
  if ! grep -q "^{\"id\":$id,\"ok\":true," "$OUT"; then
    echo "FATAL: request $id of the capacity round was not answered ok:true:" >&2
    cat "$OUT" >&2
    exit 1
  fi
done
if ! grep -q '^{"id":3,"ok":false,"error":"unknown tree \\"a\\"' "$OUT"; then
  echo "FATAL: the read of the evicted tree a (id 3) did not answer unknown tree:" >&2
  cat "$OUT" >&2
  exit 1
fi
if ! grep '^{"id":4,' "$OUT" | grep -q '"registry":{[^}]*"evictions":1[,}]'; then
  echo "FATAL: stats (id 4) does not report exactly one eviction:" >&2
  cat "$OUT" >&2
  exit 1
fi
echo "capacity round: the evicted tree is unknown to the read behind its eviction"

# ---- out-of-memory round: one solve too large to allocate ----
# Under a 1 GB address-space limit, in a subshell of its own, the
# 40000x40000 lattice cannot be allocated: that solve answers ok:false
# "out of memory" and leaves big absent, while tree a, the read of it
# and the shutdown are served as usual.
SMALL='{"inputs":4,"outputs":4,"classes":[{"name":"p","bandwidth":1,"alpha":0.3,"mu":1.0}]}'
BIG='{"inputs":40000,"outputs":40000,"classes":[{"name":"p","bandwidth":1,"alpha":0.3,"mu":1.0}]}'
status=0
printf '%s\n' \
  "{\"id\":1,\"op\":\"solve\",\"tree\":\"a\",\"model\":$SMALL}" \
  "{\"id\":2,\"op\":\"solve\",\"tree\":\"big\",\"model\":$BIG}" \
  '{"id":3,"op":"blocking","tree":"a"}' \
  '{"id":4,"op":"blocking","tree":"big"}' \
  '{"id":5,"op":"shutdown"}' |
  (ulimit -v 1000000 && timeout 60 "$SERVE") > "$OUT" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FATAL: the out-of-memory round's daemon exited with status $status" >&2
  cat "$OUT" >&2
  exit 1
fi
lines=$(wc -l < "$OUT")
if [ "$lines" -ne 5 ]; then
  echo "FATAL: expected 5 responses in the out-of-memory round, got $lines" >&2
  cat "$OUT" >&2
  exit 1
fi
for id in 1 3 5; do
  if ! grep -q "^{\"id\":$id,\"ok\":true," "$OUT"; then
    echo "FATAL: request $id of the out-of-memory round was not answered ok:true:" >&2
    cat "$OUT" >&2
    exit 1
  fi
done
if ! grep -q '^{"id":2,"ok":false,"error":"out of memory"}$' "$OUT"; then
  echo "FATAL: the oversized solve (id 2) did not answer out of memory:" >&2
  cat "$OUT" >&2
  exit 1
fi
if ! grep -q '^{"id":4,"ok":false,"error":"unknown tree \\"big\\"' "$OUT"; then
  echo "FATAL: the read of the failed tree big (id 4) did not answer unknown tree:" >&2
  cat "$OUT" >&2
  exit 1
fi
echo "out-of-memory round: the oversized solve is refused and the daemon serves on"

# ---- admit round: admit answers from the same shadow costs ----
# One batch: a solve of a switch with two bandwidths and a Pascal class,
# its shadow costs, then an admit for every class.  Each admit's
# shadow_cost must be the matching shadow_costs entry, as text, and its
# decision weight >= shadow_cost.
if command -v python3 >/dev/null 2>&1; then
  ADMIT_MODEL='{"inputs":6,"outputs":6,"classes":[{"name":"voice","bandwidth":1,"alpha":0.8,"mu":1.0},{"name":"video","bandwidth":2,"alpha":0.4,"beta":0.2,"mu":0.5},{"name":"data","bandwidth":2,"alpha":0.3,"mu":2.0}]}'
  WEIGHTS='[1.0,0.05,4.0]'
  printf '%s\n' \
    "{\"id\":1,\"op\":\"solve\",\"tree\":\"t\",\"model\":$ADMIT_MODEL}" \
    "{\"id\":2,\"op\":\"shadow_costs\",\"tree\":\"t\",\"weights\":$WEIGHTS}" \
    "{\"id\":3,\"op\":\"admit\",\"tree\":\"t\",\"class\":0,\"weights\":$WEIGHTS}" \
    "{\"id\":4,\"op\":\"admit\",\"tree\":\"t\",\"class\":1,\"weights\":$WEIGHTS}" \
    "{\"id\":5,\"op\":\"admit\",\"tree\":\"t\",\"class\":2,\"weights\":$WEIGHTS}" \
    '{"id":6,"op":"shutdown"}' |
    timeout 60 "$SERVE" > "$OUT"
  python3 - "$OUT" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as out:
    # Floats stay text: the admit's shadow_cost must be written exactly
    # as the shadow_costs entry is.
    responses = [json.loads(line, parse_float=str) for line in out if line.strip()]
if len(responses) != 6:
    sys.exit(f"FATAL: expected 6 responses in the admit round, got {len(responses)}")
failed = [r for r in responses if not r.get("ok")]
if failed:
    sys.exit(f"FATAL: an admit-round query failed: {failed}")
costs = responses[1]["shadow_costs"]
decisions = []
for r in responses[2:5]:
    c = r["class"]
    if r["shadow_cost"] != costs[c]:
        sys.exit(f"FATAL: admit class {c} shadow_cost {r['shadow_cost']} != shadow_costs[{c}] {costs[c]}")
    if r["admit"] != (float(r["weight"]) >= float(r["shadow_cost"])):
        sys.exit(f"FATAL: admit class {c} answered {r['admit']} for weight {r['weight']} and shadow cost {r['shadow_cost']}")
    decisions.append(r["admit"])
print(f"admit round: 3 admits match shadow_costs as text (decisions {decisions})")
PYEOF
else
  echo "python3 not found; skipping the admit round"
fi

# ---- round 2: same stream through the Unix-domain socket ----
if ! command -v python3 >/dev/null 2>&1; then
  echo "python3 not found; skipping the socket round"
  exit 0
fi

SOCK="$(mktemp -u "${TMPDIR:-/tmp}/crossbar-serve-XXXXXX.sock")"
timeout 60 "$SERVE" --socket "$SOCK" >/dev/null 2>&1 < /dev/null &
DAEMON=$!

for _ in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "FATAL: daemon never bound $SOCK" >&2
  exit 1
fi

python3 - "$SOCK" <<'PYEOF'
import json, socket, sys

model = {
    "inputs": 8, "outputs": 8,
    "classes": [
        {"name": "voice", "bandwidth": 1, "alpha": 0.5, "mu": 1.0},
        {"name": "video", "bandwidth": 2, "alpha": 0.3, "beta": 0.1, "mu": 0.5},
    ],
}
requests = [
    {"id": 1, "op": "solve", "tree": "smoke", "model": model},
    {"id": 2, "op": "blocking", "tree": "smoke"},
    {"id": 3, "op": "delta", "tree": "smoke",
     "changes": [{"class": 0, "alpha": 0.6}]},
    {"id": 4, "op": "shadow_costs", "tree": "smoke", "weights": [1.0, 0.2]},
    {"id": 5, "op": "admit", "tree": "smoke", "class": 1,
     "weights": [1.0, 0.2]},
    {"id": 6, "op": "stats"},
    {"id": 7, "op": "shutdown"},
]

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.settimeout(30)
sock.connect(sys.argv[1])
sock.sendall("".join(json.dumps(r) + "\n" for r in requests).encode())

data = b""
while data.count(b"\n") < len(requests):
    chunk = sock.recv(65536)
    if not chunk:
        break
    data += chunk

lines = [line for line in data.decode().split("\n") if line.strip()]
if len(lines) != len(requests):
    sys.exit(f"FATAL: expected {len(requests)} socket responses, got {len(lines)}")
for line in lines:
    response = json.loads(line)
    if not response.get("ok"):
        sys.exit(f"FATAL: socket query failed: {response}")
print(f"socket round: {len(lines)}/{len(requests)} ok")
PYEOF

status=0
wait "$DAEMON" || status=$?
DAEMON=""
if [ "$status" -ne 0 ]; then
  echo "FATAL: daemon exited with status $status after shutdown" >&2
  exit 1
fi
if [ -e "$SOCK" ]; then
  echo "FATAL: daemon left its socket file behind" >&2
  exit 1
fi
echo "serve smoke: all rounds ok"
