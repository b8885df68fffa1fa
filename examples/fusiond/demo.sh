#!/usr/bin/env bash
# Replays the README transcript non-interactively: starts a fusiond on an
# ephemeral port, runs generate → cluster → inject-fault → recover, and
# shuts the daemon down cleanly. Run from the repository root:
#
#   examples/fusiond/demo.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

ADDR="127.0.0.1:${FUSIOND_PORT:-8123}"
BIN="$(mktemp -d)/fusiond"
go build -o "$BIN" ./cmd/fusiond

"$BIN" -addr "$ADDR" -max-inflight 4 -queue-depth 8 -queue-timeout 2s &
FUSIOND=$!
trap 'kill -TERM "$FUSIOND" 2>/dev/null || true; wait "$FUSIOND" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

step() { printf '\n== %s\n' "$*"; }

step "generate: two mod-3 counters, f=1 (Fig. 1)"
curl -fsS "http://$ADDR/v1/generate" -d '{"zoo":["0-Counter","1-Counter"],"f":1}'

step "create cluster"
curl -fsS "http://$ADDR/v1/clusters" -d '{"zoo":["0-Counter","1-Counter"],"f":1,"seed":42}'

step "broadcast 20 events, crash the backup at the cut"
curl -fsS "http://$ADDR/v1/clusters/c1/events" \
  -d '{"random":{"count":20,"seed":7},"faults":[{"server":"F1","kind":"crash"}]}'

step "recover (Algorithm 3)"
RECOVERY="$(curl -fsS -X POST "http://$ADDR/v1/clusters/c1/recover")"
printf '%s\n' "$RECOVERY"
printf '%s' "$RECOVERY" | grep -q '"consistent":true'

step "engine stats"
curl -fsS "http://$ADDR/healthz"

step "SIGTERM: clean drain"
kill -TERM "$FUSIOND"
wait "$FUSIOND"
trap - EXIT
echo "fusiond exited cleanly"
