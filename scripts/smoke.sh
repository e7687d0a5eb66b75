#!/bin/sh
# Smoke test for the mzserver telemetry endpoint: run a short scenario
# with -listen, wait for liveness, and assert the documented surfaces
# respond with the documented content. Exits non-zero on any miss.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:19097}"
BIN="${TMPDIR:-/tmp}/mzserver-smoke"

go build -o "$BIN" ./cmd/mzserver

"$BIN" -rounds 120 -report 0 -listen "$ADDR" -linger 120s >/dev/null &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM

up=0
i=0
while [ "$i" -lt 100 ]; do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$up" -ne 1 ]; then
    echo "smoke: FAIL endpoint on $ADDR never became healthy" >&2
    exit 1
fi

fail=0
expect() { # expect <path> <grep-pattern> <label>
    if curl -sf "http://$ADDR$1" | grep -q "$2"; then
        echo "smoke: ok   $1 serves $3"
    else
        echo "smoke: FAIL $1 lacks $3 (pattern: $2)" >&2
        fail=1
    fi
}

expect /metrics '^mzqos_server_rounds_total ' "server round counter"
expect /metrics '^mzqos_server_round_time_seconds_bucket{disk="0",le="1"}' "round-time histogram with t boundary"
expect /metrics '^mzqos_server_phase_seconds_total{disk="0",phase="seek"}' "phase breakdown"
expect /metrics '^mzqos_model_chain_hits_total ' "model solver counters"
expect /report '"bound_p_late"' "bound-tightness report"
expect /sweeps '"rotation_s"' "sweep phase events"
expect /admission '"explanations"' "admission explanation list"
expect /admission '"binding_k"' "binding-constraint tuple"
expect /admission '"theta"' "solved Chernoff parameter"
expect /trace '"spans"' "flight-recorder span history"
expect /trace '"capacity"' "recorder ring stats"
expect '/trace?format=chrome' '"traceEvents"' "Chrome trace-event export"
expect '/trace?format=chrome' '"sweep"' "sweep slices in the export"
expect /slo '"burn_threshold"' "guarantee-audit configuration"
expect /slo '"target": "late"' "late-target audit row"
expect /slo '"target": "glitch"' "glitch-target audit row"
expect /metrics '^mzqos_slo_budget{target="late"} ' "SLO budget gauge"
expect /metrics '^mzqos_slo_alerts_fired_total{target="late"} 0$' "no alert fired on a clean run"
expect /metrics '^mzqos_slo_burn_rate{target="late",window="fast"} ' "SLO burn-rate gauge"
expect /timeline '"kind": "admit"' "journalled admissions"
expect /timeline '"head_seq"' "journal ring stats"
expect '/timeline?kind=admit' '"seq"' "kind-filtered timeline"
expect /streams '"active_streams"' "QoS ledger roll-up"
expect /streams '"b_late"' "per-stream promised bounds"
expect /debug/bundle '"schema": "mzqos/bundle/v1"' "bundle schema header"
expect /debug/bundle '"timeline"' "bundle timeline section"
expect /metrics '^mzqos_journal_events_total{kind="admit"} ' "journal event counter"
expect /metrics '^mzqos_journal_head_seq ' "journal head-seq gauge"
expect /metrics '^mzqos_go_goroutines ' "Go goroutine gauge"
expect /metrics '^mzqos_go_heap_bytes ' "Go heap gauge"
expect /metrics '^mzqos_go_gc_pause_seconds_bucket' "GC pause histogram"
expect /healthz '"status":"ok"' "readiness JSON"
expect /query '"series"' "history series discovery"
expect /query '"retention_rounds"' "history retention report"
expect /debug/bundle '"history"' "bundle history section"
expect /dashboard '<svg' "dashboard SVG panels"
expect /dashboard '</html>' "complete dashboard document"

# The JSON observability surfaces must parse, not merely contain the
# expected keys.
if command -v python3 >/dev/null 2>&1; then
    for path in /admission /trace '/trace?format=chrome' /slo /timeline /streams /debug/bundle /query; do
        if curl -sf "http://$ADDR$path" | python3 -m json.tool >/dev/null 2>&1; then
            echo "smoke: ok   $path is valid JSON"
        else
            echo "smoke: FAIL $path is not valid JSON" >&2
            fail=1
        fi
    done
    # The embedded history must have kept a real trajectory — at least two
    # retained points for the round counter — not just the latest value.
    if curl -sf "http://$ADDR/query?series=mzqos_server_rounds_total&agg=last" | python3 -c '
import json, sys
res = json.load(sys.stdin)
pts = res["series"][0]["points"]
assert len(pts) >= 2, f"history kept {len(pts)} points, want >= 2"
assert pts[-1]["value"] > pts[0]["value"], f"round counter trajectory is flat: {pts[0]} .. {pts[-1]}"
print(f"smoke: ok   /query serves {len(pts)} history points for the round counter")
'; then
        :
    else
        echo "smoke: FAIL /query lacks a >=2-point history for the round counter" >&2
        fail=1
    fi
    # A series that never moves holds one value in the store and no column;
    # read end to end it is still a full trajectory: a healthy server is
    # not degraded in any round the round counter has a point for.
    rounds=$(curl -sf "http://$ADDR/query?series=mzqos_server_rounds_total&agg=max" |
        python3 -c 'import json, sys; print(len(json.load(sys.stdin)["series"][0]["points"]))' || echo none)
    if curl -sf "http://$ADDR/query?series=mzqos_server_degraded&agg=max" | python3 -c '
import json, sys
pts = json.load(sys.stdin)["series"][0]["points"]
assert str(len(pts)) == sys.argv[1], f"{len(pts)} points for the degraded gauge, {sys.argv[1]} for the round counter"
assert all(p["value"] == 0 for p in pts), "a healthy server reads degraded in its history"
print(f"smoke: ok   /query serves {len(pts)} points, all 0, for a gauge that never moved")
' "$rounds"; then
        :
    else
        echo "smoke: FAIL /query does not serve the degraded gauge at rest as a full trajectory" >&2
        fail=1
    fi
fi

# On failure, preserve the flight recorder (frozen snapshot if latched,
# else the live ring) and the SLO audit snapshot so CI can upload both as
# debugging artifacts.
if [ "$fail" -ne 0 ]; then
    ARTDIR="${SMOKE_ARTIFACT_DIR:-${TMPDIR:-/tmp}}"
    mkdir -p "$ARTDIR"
    curl -s "http://$ADDR/trace" >"$ARTDIR/flight-recorder.json" || true
    curl -s "http://$ADDR/slo" >"$ARTDIR/slo.json" || true
    curl -s "http://$ADDR/debug/bundle" >"$ARTDIR/debug-bundle.json" || true
    echo "smoke: saved flight recorder, SLO snapshot, and debug bundle to $ARTDIR/" >&2
fi

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# --- Cluster mode: S shards in one process behind the coordinator ---

CADDR="${SMOKE_CLUSTER_ADDR:-127.0.0.1:19098}"
"$BIN" -shards 3 -disks 2 -rounds 80 -arrivals 2 -report 0 \
    -route least-loaded -replicas 2 -listen "$CADDR" -linger 120s >/dev/null &
PID=$!

up=0
i=0
while [ "$i" -lt 100 ]; do
    if curl -sf "http://$CADDR/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$up" -ne 1 ]; then
    echo "smoke: FAIL cluster endpoint on $CADDR never became healthy" >&2
    exit 1
fi

cexpect() { # cexpect <path> <grep-pattern> <label>
    if curl -sf "http://$CADDR$1" | grep -q "$2"; then
        echo "smoke: ok   cluster $1 serves $3"
    else
        echo "smoke: FAIL cluster $1 lacks $3 (pattern: $2)" >&2
        fail=1
    fi
}

# The shared registry keeps per-shard series apart via the shard label.
cexpect /metrics '^mzqos_server_rounds_total{shard="0"} ' "shard 0 round counter"
cexpect /metrics '^mzqos_server_rounds_total{shard="2"} ' "shard 2 round counter"
cexpect /metrics '^mzqos_server_round_time_seconds_bucket{shard="1",disk="0",le="1"}' "per-shard histogram"
cexpect /metrics '^mzqos_cluster_admitted_total ' "cluster admission counter"
cexpect /metrics '^mzqos_cluster_capacity ' "cluster capacity gauge"
cexpect /cluster '"route": "least-loaded"' "routing policy"
cexpect /cluster '"per_disk_limit"' "shard health rows"
cexpect /cluster '"tickets"' "per-shard and total open-stream counts"
cexpect /slo '"audited_shards": 3' "cluster audit covering all shards"
cexpect /slo '"target": "late"' "cluster late-target roll-up"
cexpect /report '"within_bounds"' "cluster bound-tightness verdict"
cexpect /metrics '^mzqos_cluster_slo_budget{target="late"} ' "cluster SLO budget roll-up"
cexpect /metrics '^mzqos_cluster_slo_firing_shards 0$' "no shard firing on a clean run"
cexpect /metrics '^mzqos_slo_budget{shard="0",target="late"} ' "shard-labeled SLO budget"
cexpect /timeline '"kind": "admit"' "cluster journalled admissions"
cexpect /timeline '"shard"' "shard-labelled timeline events"
cexpect /streams '"active_streams"' "cluster QoS ledger"
cexpect /debug/bundle '"kind": "cluster"' "cluster bundle kind"
cexpect /debug/bundle '"schema": "mzqos/bundle/v1"' "cluster bundle schema"
cexpect /healthz '"status":"ok"' "cluster readiness JSON"
cexpect /query '"series"' "cluster history series discovery"
cexpect /dashboard '<svg' "cluster dashboard SVG panels"
cexpect /dashboard '</html>' "complete cluster dashboard document"

# Every admitted stream names its shard in the /admission explanations.
if command -v python3 >/dev/null 2>&1; then
    if curl -sf "http://$CADDR/admission" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
adm = rep["admissions"]
assert adm, "no admissions retained"
shards = set()
for a in adm:
    assert isinstance(a["shard"], int) and a["shard"] >= 0, f"admission without a shard: {a}"
    assert a["object"].startswith("clip-"), f"admission without an object: {a}"
    shards.add(a["shard"])
assert len(shards) > 1, f"all admissions landed on one shard: {shards}"
print(f"smoke: ok   cluster /admission names a shard on all {len(adm)} admissions over {len(shards)} shards")
'; then
        :
    else
        echo "smoke: FAIL cluster /admission admissions do not all name their shard" >&2
        fail=1
    fi
    if curl -sf "http://$CADDR/cluster" | python3 -m json.tool >/dev/null 2>&1; then
        echo "smoke: ok   cluster /cluster is valid JSON"
    else
        echo "smoke: FAIL cluster /cluster is not valid JSON" >&2
        fail=1
    fi
    if curl -sf "http://$CADDR/query?series=mzqos_cluster_heartbeats_total&agg=last" | python3 -c '
import json, sys
res = json.load(sys.stdin)
pts = res["series"][0]["points"]
assert len(pts) >= 2, f"cluster history kept {len(pts)} points, want >= 2"
assert pts[-1]["value"] > pts[0]["value"], f"heartbeat trajectory is flat: {pts[0]} .. {pts[-1]}"
print(f"smoke: ok   cluster /query serves {len(pts)} history points for the heartbeat counter")
'; then
        :
    else
        echo "smoke: FAIL cluster /query lacks a >=2-point history for the heartbeat counter" >&2
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    ARTDIR="${SMOKE_ARTIFACT_DIR:-${TMPDIR:-/tmp}}"
    mkdir -p "$ARTDIR"
    curl -s "http://$CADDR/slo" >"$ARTDIR/cluster-slo.json" || true
    curl -s "http://$CADDR/debug/bundle" >"$ARTDIR/cluster-debug-bundle.json" || true
    echo "smoke: saved cluster SLO snapshot and debug bundle to $ARTDIR/" >&2
fi

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# --- Interrupted run: the final utilization covers the rounds executed ---

OUT="${TMPDIR:-/tmp}/mzserver-smoke-interrupt.out"
"$BIN" -rounds 2000000 -arrivals 2 -report 10000 >"$OUT" 2>/dev/null &
PID=$!
i=0
while [ "$i" -lt 100 ] && ! grep -q ' util ' "$OUT"; do
    sleep 0.2
    i=$((i + 1))
done
kill -INT "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
# The last progress line and the final line average the same run, at most
# one report interval apart, so they agree to within 2 points; dividing
# by -rounds instead of the rounds executed reads several times lower.
if awk '
    / util /             { sub(/%/, "", $NF); last = $NF; seen = 1 }
    /^disk utilization / { sub(/%/, "", $NF); final = $NF; done = 1 }
    END {
        d = final - last
        if (d < 0) d = -d
        if (!seen || !done || d > 2) exit 1
        printf "smoke: ok   interrupted run reports %s%% utilization (last progress line %s%%)\n", final, last
    }' "$OUT"; then
    :
else
    echo "smoke: FAIL interrupted run: final utilization not within 2 points of the last progress line" >&2
    tail -n 12 "$OUT" >&2
    fail=1
fi

exit "$fail"
