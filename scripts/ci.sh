#!/usr/bin/env bash
# Tier-1 verification, three times: the plain build, the ASan+UBSan
# build, and a build on the ucontext fiber fallback (what non-x86-64
# hosts run; threads switch fiber to fiber through swapcontext). All
# must be green for a change to land.
#
#   scripts/ci.sh            # all three passes
#   scripts/ci.sh default    # plain only
#   scripts/ci.sh asan-ubsan # sanitized only
#   scripts/ci.sh ucontext   # ucontext fibers only
set -euo pipefail
cd "$(dirname "$0")/.."

# The fibers switch stacks via swapcontext; ASan's interceptor
# handles that, but stack-use-after-return instrumentation does not.
export ASAN_OPTIONS="detect_stack_use_after_return=0:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"

run_pass() {
    local preset="$1"
    echo "=== [$preset] configure + build + ctest ==="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset"
}

for preset in "${@:-default asan-ubsan ucontext}"; do
    # Allow "scripts/ci.sh default asan-ubsan" as well as no args.
    for p in $preset; do
        run_pass "$p"
        if [ "$p" = default ]; then
            # The repo benchmark at scale 1: every cell must finish
            # valid with round-stable fingerprints, so a hot-path
            # change that breaks a cell's correctness fails here.
            echo "=== perfbench smoke ==="
            python3 perfbench/smoke_test.py
        fi
    done
done

# Every smoke below writes under one scratch dir, removed on exit.
work="$(mktemp -d -t tmi_ci.XXXXXX)"
trap 'rm -rf "$work"' EXIT

# Observability smoke: one traced, fault-injected robustness run must
# emit Chrome trace JSON that passes the schema checker, including the
# fault-fire and ladder-drop events the robustness figure depends on.
echo "=== traced robustness sweep + trace schema check ==="
trace_out="$work/trace.json"
./build/examples/experiment_cli \
    --workload histogramfs --treatment tmi-protect --scale 2 \
    --fault mem.clone_fail:always \
    --trace-out "$trace_out"
python3 scripts/check_trace.py "$trace_out" \
    --require fault.fire,ladder.drop,t2p.rollback,hitm.sample \
    --min-events 100

# Sweep-driver smoke: a small matrix through tmi-sweep on 2 workers
# must produce a schema-valid CSV that is byte-identical to the same
# sweep on 1 worker (the driver's determinism contract).
echo "=== tmi-sweep smoke + CSV schema check ==="
sweep1="$work/sweep1.csv"
sweep2="$work/sweep2.csv"
sweep_args=(--workloads histogramfs,spinlockpool
    --treatments pthreads,tmi-protect --scales 2
    --fault-points mem.frame_exhausted --fault-rates 0,0.5
    --no-progress)
./build/examples/tmi-sweep "${sweep_args[@]}" --workers 1 --csv "$sweep1"
./build/examples/tmi-sweep "${sweep_args[@]}" --workers 2 --csv "$sweep2"
python3 scripts/check_sweep.py "$sweep1" --expect-rows 8 --expect-ok
cmp "$sweep1" "$sweep2"

# Chaos smoke: a fixed-seed campaign over two cells must produce a
# schema-valid CSV, byte-identical on 1 and 4 workers, with every
# surviving run converging to its cell's fault-free digest; and the
# checked-in minimized reproducer for the Sheriff dissolve-ordering
# regression must still be caught by the differential oracle.
echo "=== tmi-chaos campaign smoke + golden reproducer replay ==="
chaos1="$work/chaos1.csv"
chaos4="$work/chaos4.csv"
chaos_args=(--workloads histogramfs --treatments tmi-protect,laser
    --schedules 8 --campaign-seed 2026 --no-minimize --no-progress)
./build/examples/tmi-chaos campaign "${chaos_args[@]}" \
    --workers 1 --csv "$chaos1"
./build/examples/tmi-chaos campaign "${chaos_args[@]}" \
    --workers 4 --csv "$chaos4"
python3 scripts/check_chaos.py "$chaos1" --expect-rows 18 --expect-pass
cmp "$chaos1" "$chaos4"
./build/examples/tmi-chaos replay \
    goldens/chaos/sheriff_dissolve_order.spec --expect-fail

# Crash-safe orchestration smoke: the same workloads on the shard
# supervisor (worker processes + journals) must merge to CSVs
# byte-identical to the in-process runs, the checkers must validate
# the shard metadata the CSVs deliberately omit, and a supervisor
# SIGKILLed mid-campaign must resume from its journals into the same
# bytes as an uninterrupted run.
echo "=== crash-safe orchestration smoke (kill -9 + resume) ==="
sweep3="$work/sweep3.csv"
sweep4="$work/sweep4.csv"
kill_gold="$work/killgold.csv"
chaos_sh="$work/chaos_sh.csv"

./build/examples/tmi-sweep "${sweep_args[@]}" --csv "$sweep3" \
    --journal-dir "$work/full" --shards 3 --checkpoint-every 2
python3 scripts/check_sweep.py "$sweep3" --expect-rows 8 --expect-ok \
    --manifest "$work/full"
cmp "$sweep1" "$sweep3"

./build/examples/tmi-chaos campaign "${chaos_args[@]}" \
    --csv "$chaos_sh" --journal-dir "$work/chaos" --shards 2
python3 scripts/check_chaos.py "$chaos_sh" --expect-rows 18 \
    --expect-pass --manifest "$work/chaos"
cmp "$chaos1" "$chaos_sh"

# SIGKILL the supervisor once at least one result has been journaled.
# setsid gives it its own session, so the process-group kill takes
# the forked shard workers with it and leaves ci.sh alone. If the
# small campaign wins the race and finishes before the kill lands,
# resume is a no-op over complete journals -- the byte comparison is
# meaningful either way.
kill_args=(--workloads histogramfs,spinlockpool
    --treatments pthreads,tmi-protect --scales 2
    --fault-points mem.frame_exhausted --fault-rates 0,0.25,0.5,0.75
    --no-progress)
./build/examples/tmi-sweep "${kill_args[@]}" --workers 1 \
    --csv "$kill_gold"
setsid ./build/examples/tmi-sweep "${kill_args[@]}" --csv "$sweep4" \
    --journal-dir "$work/killed" --shards 2 \
    --checkpoint-every 1 &
victim=$!
for _ in $(seq 1 200); do
    size="$(stat -c%s "$work/killed/shard-000.journal" \
        2>/dev/null || echo 0)"
    if [ "$size" -gt 8 ]; then break; fi # past the journal magic
    sleep 0.02
done
kill -9 -- "-$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
./build/examples/tmi-sweep "${kill_args[@]}" --csv "$sweep4" \
    --journal-dir "$work/killed" --resume
cmp "$kill_gold" "$sweep4"
python3 scripts/check_sweep.py "$sweep4" --expect-rows 16 \
    --expect-ok --manifest "$work/killed"

# Access-path smoke: the cycle-identity golden (simulated outputs are
# byte-identical across hot-path changes; also run under ctest, pinned
# here explicitly because the AccessPipeline depends on it). Host
# throughput is measured by perfbench/ (see perfbench/README.md).
echo "=== cycle-identity golden ==="
./build/tests/integration_cycle_identity_test

# Server-family smoke: the feed-handler workloads through the
# family:server spec expansion with --param knobs must produce a
# schema-valid CSV carrying per-row tail latency (nonzero requests,
# p50 <= p99 <= p999), byte-identical on 1 and 4 workers; and a
# misspelled --param key must fail fast (exit 2) naming the valid
# knobs instead of silently running the default.
echo "=== server-family latency sweep + --param validation ==="
server1="$work/server1.csv"
server4="$work/server4.csv"
param_err="$work/paramerr.txt"
server_args=(--workloads family:server
    --treatments pthreads,tmi-protect --scales 1
    --param requests=96 --param arrival_gap=300 --no-progress)
./build/examples/tmi-sweep "${server_args[@]}" --workers 1 \
    --csv "$server1"
./build/examples/tmi-sweep "${server_args[@]}" --workers 4 \
    --csv "$server4"
python3 scripts/check_sweep.py "$server1" --expect-rows 4 --expect-ok
cmp "$server1" "$server4"
awk -F, 'NR > 1 && ($30 + 0 == 0 || $31 + 0 > $32 + 0 \
    || $32 + 0 > $33 + 0) \
    { print "bad latency row: " $0; bad = 1 } END { exit bad }' \
    "$server1"

rc=0
./build/examples/tmi-sweep --workloads feed-spsc \
    --treatments pthreads --param bogus_knob=7 --no-progress \
    --dry-run 2> "$param_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "bogus_knob" "$param_err"
grep -q "arrival_gap" "$param_err"

# Strict numeric flags: a negative list item and a non-numeric
# orchestration flag must each fail fast (exit 2) naming the flag,
# not wrap to 2^64-1 or silently mean "all cores".
echo "=== numeric flag validation ==="
expect_flag_error() { # FLAG CMD...: CMD must exit 2 naming FLAG
    local flag="$1" rc=0
    shift
    "$@" 2> "$work/flagerr.txt" || rc=$?
    [ "$rc" -eq 2 ] && grep -q -- "$flag" "$work/flagerr.txt"
}
expect_flag_error --scales ./build/examples/tmi-sweep \
    --workloads histogramfs --treatments pthreads --scales -1 --dry-run
expect_flag_error --workers ./build/examples/tmi-chaos campaign \
    --workloads histogramfs --treatments tmi-protect --workers abc

# Static-repair smoke: the fixed-seed profile phase must synthesize
# exactly the checked-in golden layout plan (profile -> plan is
# deterministic), and a huron-static sweep -- both the self-profiling
# cells and a pure replay of the golden plan via --plan-in -- must be
# byte-identical on 1 and 4 workers, cut each workload's HITMs at
# least 5x against its pthreads row, and report zero profile HITMs on
# the pure replay (profiling really was skipped).
echo "=== huron-static golden plan + profile->plan->replay smoke ==="
plan_out="$work/plan.txt"
huron1="$work/huron1.csv"
huron4="$work/huron4.csv"
replay1="$work/replay1.csv"
./build/examples/experiment_cli --workload histogramfs \
    --treatment huron-static --scale 4 --interval 500000 \
    --plan-out "$plan_out"
cmp goldens/staticrepair/histogramfs.plan "$plan_out"

huron_args=(--workloads histogramfs,lreg,spinlockpool
    --treatments pthreads,huron-static --scales 4 --interval 500000
    --no-progress)
./build/examples/tmi-sweep "${huron_args[@]}" --workers 1 \
    --csv "$huron1"
./build/examples/tmi-sweep "${huron_args[@]}" --workers 4 \
    --csv "$huron4"
python3 scripts/check_sweep.py "$huron1" --expect-rows 6 --expect-ok
cmp "$huron1" "$huron4"
awk -F, 'NR > 1 { hitm[$2 "," $3] = $18
        if ($3 == "huron-static" && ($34 + 0 < 1 || $35 != $34)) {
            print "huron row without applied plan: " $0; bad = 1 } }
    END { for (k in hitm) { split(k, a, ",")
            if (a[2] != "huron-static") continue
            base = hitm[a[1] ",pthreads"]
            if (hitm[k] * 5 > base) {
                print "weak repair on " a[1] ": " hitm[k] \
                    " vs " base; bad = 1 } }
        exit bad }' "$huron1"

./build/examples/tmi-sweep --workloads histogramfs \
    --treatments pthreads,huron-static --scales 4 --interval 500000 \
    --plan-in goldens/staticrepair/histogramfs.plan \
    --no-progress --workers 1 --csv "$replay1"
python3 scripts/check_sweep.py "$replay1" --expect-rows 2 --expect-ok
awk -F, 'NR > 1 && $3 == "huron-static" \
    && ($38 + 0 != 0 || $34 + 0 < 1 || $18 * 5 > base) \
    { print "bad replay row: " $0; bad = 1 }
    NR > 1 && $3 == "pthreads" { base = $18 }
    END { exit bad }' "$replay1"

# Long-running stateful server chaos smoke: fault schedules against
# the feed handlers (typed --param knobs, requests scaled well past
# the default so per-worker stat state stays live across many ring
# generations) must all converge to the fault-free end-state digest,
# byte-identical on 1 and 4 workers. sheriff-protect is excluded:
# it cannot validate the ring atomics.
echo "=== server-family chaos campaign smoke ==="
schaos1="$work/schaos1.csv"
schaos4="$work/schaos4.csv"
schaos_args=(--workloads feed-spsc,feed-spmc
    --treatments tmi-protect,laser --schedules 4 --campaign-seed 2026
    --param requests=384 --param stat_rounds=8
    --no-minimize --no-progress)
./build/examples/tmi-chaos campaign "${schaos_args[@]}" \
    --workers 1 --csv "$schaos1"
./build/examples/tmi-chaos campaign "${schaos_args[@]}" \
    --workers 4 --csv "$schaos4"
python3 scripts/check_chaos.py "$schaos1" --expect-rows 20 \
    --expect-pass
cmp "$schaos1" "$schaos4"

# htm-elide smoke: the elision sweep must be byte-identical on 1 and
# 4 workers and show the backend doing its job -- spinlockpool's
# packed-lock HITMs collapse at least 10x with zero fallbacks, and
# the lock-free shptr-relaxed rows prove the txn hooks are a no-op
# (identical hitm and cycle counts against pthreads). The placement
# axis must keep its monotone abort-rate response (pack > arena >=
# isolate on per-worker malloc'd slots): elision cannot fix what the
# allocator broke, and CI pins that ordering.
echo "=== htm-elide sweep + malloc-placement gate ==="
htm1="$work/htm1.csv"
htm4="$work/htm4.csv"
place1="$work/place1.csv"
htm_args=(--workloads spinlockpool,shptr-lock,shptr-relaxed
    --treatments pthreads,htm-elide --scales 2 --no-progress)
./build/examples/tmi-sweep "${htm_args[@]}" --workers 1 --csv "$htm1"
./build/examples/tmi-sweep "${htm_args[@]}" --workers 4 --csv "$htm4"
python3 scripts/check_sweep.py "$htm1" --expect-rows 6 --expect-ok
cmp "$htm1" "$htm4"
awk -F, 'NR > 1 { hitm[$2 "," $3] = $18; cyc[$2 "," $3] = $16
        if ($3 == "htm-elide" && $2 == "spinlockpool" \
            && ($40 + 0 < 1 || $43 + 0 != 0)) {
            print "spinlockpool must elide commit-clean: " $0
            bad = 1 } }
    END { if (hitm["spinlockpool,htm-elide"] * 10 > \
              hitm["spinlockpool,pthreads"]) {
            print "weak elision on spinlockpool: " \
                hitm["spinlockpool,htm-elide"] " vs " \
                hitm["spinlockpool,pthreads"]; bad = 1 }
        if (hitm["shptr-relaxed,htm-elide"] != \
                hitm["shptr-relaxed,pthreads"] ||
            cyc["shptr-relaxed,htm-elide"] != \
                cyc["shptr-relaxed,pthreads"]) {
            print "txn hooks must be a no-op on lock-free code"
            bad = 1 }
        exit bad }' "$htm1"

./build/examples/tmi-sweep --workloads spinlockpool \
    --treatments htm-elide --placements pack,arena,isolate \
    --param small_slots=1 --scales 2 --no-progress \
    --workers 1 --csv "$place1"
python3 scripts/check_sweep.py "$place1" --expect-rows 3 --expect-ok
awk -F, 'NR > 1 { rate[$39] = $42 + 0 }
    END { if (!(rate["pack"] > rate["arena"] &&
               rate["arena"] >= rate["isolate"])) {
            print "placement abort-rate not monotone: pack=" \
                rate["pack"] " arena=" rate["arena"] \
                " isolate=" rate["isolate"]; bad = 1 }
        exit bad }' "$place1"

# Abort-storm chaos smoke: a fixed-seed campaign whose schedules arm
# all three htm.* fault points (spurious-abort storms included) must
# pass -- the armed watchdog bounds every storm -- with verdicts
# byte-identical on 1 and 4 workers; and the checked-in minimized
# livelock-by-abort reproducer (watchdog disarmed, stuck fallback)
# must still be caught by the oracle.
echo "=== htm abort-storm chaos smoke + livelock reproducer ==="
hchaos1="$work/hchaos1.csv"
hchaos4="$work/hchaos4.csv"
hchaos_args=(--workloads spinlockpool --treatments htm-elide
    --schedules 8 --campaign-seed 2026 --no-minimize --no-progress)
./build/examples/tmi-chaos campaign "${hchaos_args[@]}" \
    --workers 1 --csv "$hchaos1"
./build/examples/tmi-chaos campaign "${hchaos_args[@]}" \
    --workers 4 --csv "$hchaos4"
python3 scripts/check_chaos.py "$hchaos1" --expect-rows 9 \
    --expect-pass
cmp "$hchaos1" "$hchaos4"
./build/examples/tmi-chaos replay \
    goldens/chaos/htm_abort_storm.spec --expect-fail

# Degradation-ladder goldens: a fault sweep over the three runtimes
# that share runtime/ladder (Tmi, Sheriff, LASER; watchdog and monitor
# armed) and a RecoverUp chaos campaign must reproduce the checked-in
# CSVs byte for byte. They pin every drop, un-repair, dissolve and
# recovery the ladder takes on these schedules.
echo "=== degradation-ladder goldens ==="
ladder_sweep="$work/ladder_sweep.csv"
ladder_chaos="$work/ladder_chaos.csv"
faults=perf.ring_overflow,perf.drop_record,mem.clone_fail
faults+=,mem.frame_exhausted,ptsb.twin_alloc_fail,ptsb.oversize_commit
faults+=,sched.stop_timeout
./build/examples/tmi-sweep --workloads histogramfs,lreg,spinlockpool \
    --treatments tmi-protect,sheriff-protect,laser --scales 2 \
    --fault-points "$faults" --fault-rates 0.5,1 \
    --watchdog 1 --monitor 1 --no-progress \
    --workers 4 --csv "$ladder_sweep"
cmp goldens/ladder/fault_sweep.csv "$ladder_sweep"
./build/examples/tmi-chaos campaign \
    --workloads histogramfs,lreg,spinlockpool --treatments tmi-protect \
    --recover-up 2 --schedules 24 --min-events 2 --max-events 5 \
    --campaign-seed 7 --no-minimize --no-progress \
    --workers 4 --csv "$ladder_chaos"
cmp goldens/ladder/recover_up.csv "$ladder_chaos"

echo "=== CI green ==="
