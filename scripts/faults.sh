#!/bin/sh
# Fault-injection smoke test, two phases.
#
# Phase 1 (single server): drive mzserver through a scripted disk
# slowdown (2x latency on disk 0 for rounds 100..300) with graceful
# degradation enabled, then assert the degraded-mode lifecycle happened —
# the limit dropped and was restored, streams were shed, and the fault
# telemetry and /faults endpoint expose the schedule. -log json renders
# the journal to stderr, which must carry one degrade and one restore
# record. The SLO audit rides the same scenario: the late rounds before
# shedding kicks in must push the b_late burn rate over threshold (alert
# fires), and the clean tail of the run must resolve it. -degrade-after 8
# holds shedding off long enough for the fast window to see the violation.
#
# Phase 2 (cluster failover): run a 3-shard cluster with -migrate, fail
# every disk of shard 0 mid-run (-fault-shard scopes the plan), and
# assert the failed shard's streams resumed on its siblings — at least
# 90% of migration attempts succeed, failover streams were drained, and
# the SLO auditors on the surviving shards never fire. The cluster's -log
# json rendering of its journal must carry the failover.
#
# Exits non-zero on any miss.
set -eu

ADDR="${FAULTS_ADDR:-127.0.0.1:19098}"
CADDR="${FAULTS_CLUSTER_ADDR:-127.0.0.1:19099}"
BIN="${TMPDIR:-/tmp}/mzserver-faults"
LOG="${TMPDIR:-/tmp}/mzserver-faults.log"
CLOG="${TMPDIR:-/tmp}/mzserver-faults-cluster.log"
JLOG="${TMPDIR:-/tmp}/mzserver-faults-journal.log"
CJLOG="${TMPDIR:-/tmp}/mzserver-faults-cluster-journal.log"

go build -o "$BIN" ./cmd/mzserver

"$BIN" -disks 2 -rounds 400 -arrivals 2 -report 0 \
    -faults "latency:disk=0,from=100,until=300,factor=2" -degrade \
    -degrade-after 8 -log json \
    -listen "$ADDR" -linger 120s >"$LOG" 2>"$JLOG" &
PID=$!
CPID=""
trap 'kill "$PID" 2>/dev/null || true; [ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true' EXIT INT TERM

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
    echo "faults: FAIL endpoint on $ADDR never became healthy" >&2
    exit 1
fi

# Wait for the scenario to complete all 400 rounds.
done=0
i=0
while [ "$i" -lt 300 ]; do
    if curl -sf "http://$ADDR/metrics" | grep -q '^mzqos_server_rounds_total 400$'; then
        done=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$done" -ne 1 ]; then
    echo "faults: FAIL scenario never reached round 400" >&2
    exit 1
fi

fail=0
expect() { # expect <path> <grep-pattern> <label>
    if curl -sf "http://$ADDR$1" | grep -q "$2"; then
        echo "faults: ok   $1 serves $3"
    else
        echo "faults: FAIL $1 lacks $3 (pattern: $2)" >&2
        fail=1
    fi
}
expect_log() { # expect_log <grep-pattern> <label>
    if grep -q "$1" "$LOG"; then
        echo "faults: ok   log shows $2"
    else
        echo "faults: FAIL log lacks $2 (pattern: $1)" >&2
        fail=1
    fi
}

expect /faults '"kind": "latency"' "the scheduled fault plan"
expect /faults '"degraded": false' "degraded cleared after recovery"
expect /metrics '^mzqos_server_fault_rounds_total{disk="0"} 200$' "per-disk fault round count"
expect /metrics '^mzqos_server_degraded 0$' "degraded gauge back to 0"
expect /metrics '^mzqos_server_degraded_transitions_total 2$' "enter+exit transitions"
expect /metrics '^mzqos_server_fault_evictions_total [1-9]' "shed streams counted"
expect /metrics '^mzqos_server_phase_seconds_total{disk="0",phase="seek"}' "phase counters survive migration"
expect_log 'entering degraded mode' "degraded-mode entry"
expect_log 'healthy limit .*/disk restored' "healthy-limit restoration"
expect_log 'shed [1-9][0-9]* streams' "stream shedding"
# -log renders the journal: the one degrade and one restore of the arc.
for kind in degrade restore; do
    n=$(grep -c "\"msg\":\"$kind\"" "$JLOG" || true)
    if [ "$n" -eq 1 ]; then
        echo "faults: ok   -log shows one $kind record"
    else
        echo "faults: FAIL -log shows $n $kind records, want 1" >&2
        fail=1
    fi
done

# The guarantee audit saw the violation: the b_late alert fired while the
# fault outran the bound, resolved on the clean tail, and the transition
# history on /slo records the full arc.
expect /slo '"to": "firing"' "a firing transition in the audit history"
expect /slo '"to": "resolved"' "a resolved transition in the audit history"
expect /metrics '^mzqos_slo_alerts_fired_total{target="late"} [1-9]' "late alert fired under fault"
expect /metrics '^mzqos_slo_alerts_resolved_total{target="late"} [1-9]' "late alert resolved after recovery"
expect /metrics '^mzqos_slo_alert_state{target="late"} 0$' "late alert back to inactive by scenario end"

# The journal recorded the incident arc end to end, and the ledger kept
# one promised-vs-delivered record per shed stream.
expect '/timeline?kind=fault_inject' '"kind": "fault_inject"' "journalled fault edge"
expect '/timeline?kind=degrade' '"kind": "degrade"' "journalled degrade transition"
expect '/timeline?kind=evict' '"kind": "evict"' "journalled evictions"
expect '/timeline?kind=slo_firing' 'binding k=' "firing events carrying the binding bound"
expect '/timeline?kind=slo_resolved' '"kind": "slo_resolved"' "journalled alert resolution"
expect /streams '"evicted": true' "evicted streams in the ledger"
expect /streams '"retired_total"' "ledger retirement roll-up"

# The embedded history must reproduce the same arc after the fact: the
# alert-state trajectory on /query reaches firing (2) mid-run and is back
# to inactive (0) by the final round. -g stops curl from glob-expanding
# the {target=late} selector. The series sat at 0 with no column of its own
# until the alert first moved it, so its history must still start where the
# round counter's does, at 0: the rounds it rested through are served.
if command -v python3 >/dev/null 2>&1; then
    first=$(curl -sf "http://$ADDR/query?series=mzqos_server_rounds_total&agg=max&step=4" |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["series"][0]["points"][0]["round"])' || echo none)
    if curl -sfg "http://$ADDR/query?series=mzqos_slo_alert_state{target=late}&agg=max&step=4" | python3 -c '
import json, sys
res = json.load(sys.stdin)
assert res["series"], "no alert-state history"
pts = res["series"][0]["points"]
assert len(pts) >= 2, f"history kept {len(pts)} points, want >= 2"
peak = max(p["value"] for p in pts)
assert peak >= 2, f"alert-state history never reached firing: peak {peak}"
assert pts[-1]["value"] == 0, f"alert-state history did not return to inactive: {pts[-1]}"
assert str(pts[0]["round"]) == sys.argv[1] and pts[0]["value"] == 0, f"alert-state history starts at {pts[0]}, the round counter at round {sys.argv[1]}"
print(f"faults: ok   /query alert-state history replays the fire->resolve arc over {len(pts)} points, from round {sys.argv[1]}")
' "$first"; then
        :
    else
        echo "faults: FAIL /query alert-state history does not replay the fire->resolve arc" >&2
        fail=1
    fi
    if curl -sfg "http://$ADDR/query?series=mzqos_slo_burn_rate{target=late}&agg=max&step=4" | python3 -c '
import json, sys
res = json.load(sys.stdin)
fast = [s for s in res["series"] if "{window=fast}" in s["id"]]
assert fast, f"no fast-window burn-rate history in {[s['id'] for s in res['series']]}"
pts = fast[0]["points"]
peak = max(p["value"] for p in pts)
assert peak > pts[-1]["value"], f"burn rate never decayed from its peak: peak {peak}, final {pts[-1]}"
print(f"faults: ok   /query burn-rate history peaks at {peak:.1f} and decays by scenario end")
'; then
        :
    else
        echo "faults: FAIL /query burn-rate history lacks the fault arc" >&2
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    ARTDIR="${SMOKE_ARTIFACT_DIR:-${TMPDIR:-/tmp}}"
    mkdir -p "$ARTDIR"
    curl -s "http://$ADDR/debug/bundle" >"$ARTDIR/faults-bundle.json" || true
    # The burn-rate trajectory is the artifact an SLO postmortem starts
    # from: the full windowed history of both targets, not just the final
    # gauge values.
    curl -sg "http://$ADDR/query?series=mzqos_slo_burn_rate&agg=last" >"$ARTDIR/faults-burn-rate.json" || true
    echo "faults: saved debug bundle and burn-rate trajectory to $ARTDIR/" >&2
fi

kill "$PID" 2>/dev/null || true
PID=""
trap '[ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true' EXIT INT TERM

# --- Phase 2: cluster failover ------------------------------------------
# Three shards, every object replicated on all of them. Shard 0 loses all
# of its disks for rounds 100..250; the shard-local degrade controller
# closes its admission and reports Failed, and the coordinator drains the
# whole active set onto shards 1 and 2 through the migration path.

# -arrivals/-cliplen keep steady-state occupancy near half the cluster's
# 156 slots so the siblings have headroom to absorb the failed shard.
"$BIN" -shards 3 -disks 2 -replicas 3 -rounds 400 -arrivals 1.2 -cliplen 60 \
    -report 0 -migrate -fault-shard 0 \
    -faults "failure:disk=all,from=100,until=250" \
    -degrade -log json -listen "$CADDR" -linger 120s >"$CLOG" 2>"$CJLOG" &
CPID=$!

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
    echo "faults: FAIL cluster endpoint on $CADDR never became healthy" >&2
    exit 1
fi

# The admission ring is bounded (256 records), so the failover records
# from the failure round get recycled by the steady admissions that
# follow — catch them mid-run while waiting for the scenario to finish.
done=0
failover_ring=0
i=0
while [ "$i" -lt 300 ]; do
    if [ "$failover_ring" -eq 0 ] &&
        curl -sf "http://$CADDR/admission" | grep -Eq '"kind":[[:space:]]*"failover"'; then
        failover_ring=1
    fi
    if curl -sf "http://$CADDR/metrics" | grep -q '^mzqos_server_rounds_total{shard="1"} 400$'; then
        done=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$done" -ne 1 ]; then
    echo "faults: FAIL cluster scenario never reached round 400" >&2
    exit 1
fi

cexpect() { # cexpect <path> <grep-E-pattern> <label>
    if curl -sf "http://$CADDR$1" | grep -Eq "$2"; then
        echo "faults: ok   cluster $1 serves $3"
    else
        echo "faults: FAIL cluster $1 lacks $3 (pattern: $2)" >&2
        fail=1
    fi
}
cexpect_absent() { # cexpect_absent <path> <grep-E-pattern> <label>
    if curl -sf "http://$CADDR$1" | grep -Eq "$2"; then
        echo "faults: FAIL cluster $1 shows $3 (pattern: $2)" >&2
        fail=1
    else
        echo "faults: ok   cluster $1 free of $3"
    fi
}

# Streams were failed over and re-admitted on siblings through the
# same room check as fresh opens.
cexpect /metrics '^mzqos_cluster_failover_streams_total [1-9]' "failover-drained streams"
cexpect /metrics '^mzqos_cluster_migrations_attempted_total [1-9]' "migration attempts"
cexpect /metrics '^mzqos_cluster_migrations_succeeded_total [1-9]' "migration successes"
# The failed shard closed as a failure (not a mere degrade-to-zero) and
# reopened by scenario end: the health snapshot carries the failed bit
# (false again after restore) and the gauge is back to 0.
cexpect /cluster '"failed":[[:space:]]*false' "the health failed bit after restore"
cexpect /metrics '^mzqos_server_failed\{shard="0"\} 0$' "failed gauge cleared after restore"
# The admission ring explained the migrations while they were in the
# retention window: failover records carrying their kind were observed
# mid-run before steady admissions recycled the ring.
if [ "$failover_ring" -eq 1 ]; then
    echo "faults: ok   cluster /admission served failover records mid-run"
elif curl -sf "http://$CADDR/timeline?kind=failover" | grep -Eq '"kind":[[:space:]]*"failover"'; then
    # On fast machines the scenario outruns the poller and steady
    # admissions recycle the bounded ring before a poll catches the
    # failover records. The journal retains them durably — catching
    # exactly this recycling window is what it exists for.
    echo "faults: ok   cluster failover records retained on /timeline after the ring recycled"
else
    echo "faults: FAIL cluster shows no failover records on /admission or /timeline" >&2
    fail=1
fi
grep -q 'failed over' "$CLOG" \
    && echo "faults: ok   cluster log shows failover rounds" \
    || { echo "faults: FAIL cluster log lacks failover rounds" >&2; fail=1; }
grep -q '"msg":"failover"' "$CJLOG" \
    && echo "faults: ok   cluster -log shows failover records" \
    || { echo "faults: FAIL cluster -log lacks failover records" >&2; fail=1; }

# >= 90% of the failed shard's streams resumed on siblings: the acceptance
# ratio read straight off the migration counters.
metrics=$(curl -sf "http://$CADDR/metrics")
att=$(printf '%s\n' "$metrics" | awk '$1 == "mzqos_cluster_migrations_attempted_total" {print $2}')
suc=$(printf '%s\n' "$metrics" | awk '$1 == "mzqos_cluster_migrations_succeeded_total" {print $2}')
if [ -n "$att" ] && [ -n "$suc" ] && [ "$att" -gt 0 ] && [ $((suc * 10)) -ge $((att * 9)) ]; then
    echo "faults: ok   migration success ratio $suc/$att >= 90%"
else
    echo "faults: FAIL migration success ratio $suc/$att below 90%" >&2
    fail=1
fi

# The cluster's tickets gauge is derived, not kept: the loop sets it from
# the shards' own counts of open streams after every Open, Close and view
# refresh. Once the run has ended (its "lingering" line), it must equal the
# active streams summed over the shards' own series, so a population change
# that skips the republish shows here.
i=0
while [ "$i" -lt 50 ] && ! grep -q '^lingering' "$CLOG"; do
    sleep 0.2
    i=$((i + 1))
done
metrics=$(curl -sf "http://$CADDR/metrics")
tickets=$(printf '%s\n' "$metrics" | awk '$1 == "mzqos_cluster_tickets" {print $2}')
active=$(printf '%s\n' "$metrics" | awk '$1 ~ /^mzqos_server_streams_active[{]/ {n += $2} END {print n + 0}')
if [ -n "$tickets" ] && [ "$tickets" = "$active" ]; then
    echo "faults: ok   cluster tickets $tickets = active streams over the shards $active"
else
    echo "faults: FAIL cluster tickets ${tickets:-missing} != active streams over the shards $active" >&2
    fail=1
fi

# The surviving shards absorbed the load without their guarantee audits
# firing: no fired alerts and an inactive alert state on shards 1 and 2.
cexpect_absent /metrics 'mzqos_slo_alerts_fired_total\{[^}]*shard="[12]"[^}]*\} [1-9]' "fired alerts on surviving shards"
cexpect_absent /metrics 'mzqos_slo_alert_state\{[^}]*shard="[12]"[^}]*\} [1-9]' "active alert state on surviving shards"

# The cluster journal recorded the failover drain and every re-admission,
# and the shared ledger merged migrated lineages across shards.
cexpect '/timeline?kind=failover' '"kind":[[:space:]]*"failover"' "journalled failover drains"
cexpect '/timeline?kind=migrate' '"kind":[[:space:]]*"migrate"' "journalled migrations"
cexpect /streams '"migrations":[[:space:]]*[1-9]' "migrated lineages in the ledger"
cexpect /streams '"shards_visited"' "shard lineage on ledger records"

if [ "$fail" -ne 0 ]; then
    ARTDIR="${SMOKE_ARTIFACT_DIR:-${TMPDIR:-/tmp}}"
    mkdir -p "$ARTDIR"
    curl -s "http://$CADDR/debug/bundle" >"$ARTDIR/faults-cluster-bundle.json" || true
    echo "faults: saved cluster debug bundle to $ARTDIR/faults-cluster-bundle.json" >&2
fi

exit "$fail"
