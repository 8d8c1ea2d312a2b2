/**
 * @file
 * Self-healing tests for the Tmi runtime: transactional T2P with
 * rollback/retry, the degradation ladder, COW fallback on twin
 * allocation failure, the effectiveness monitor's un-repair path,
 * and the PTSB livelock watchdog.
 */

#include <gtest/gtest.h>

#include "runtime/tmi_runtime.hh"

namespace tmi
{

namespace
{

/** Same shape as the TmiFixture in tmi_runtime_test.cc. */
struct RobustFixture : public ::testing::Test
{
    RobustFixture() { makeMachine(false); }

    void
    makeMachine(bool trace)
    {
        MachineConfig mc;
        mc.shmBackedHeap = true;
        mc.tmiModifiedAllocator = true;
        mc.trace.enabled = trace;
        machine = std::make_unique<Machine>(mc);
        pc_load = machine->instructions().define("t.load",
                                                 MemKind::Load, 8);
        pc_store = machine->instructions().define("t.store",
                                                  MemKind::Store, 8);
        pc_atomic = machine->instructions().define("t.atomic",
                                                   MemKind::Store, 8);
    }

    TmiRuntime &
    makeRuntime(TmiConfig cfg = {})
    {
        cfg.analysisInterval = 200'000; // fast cadence for tests
        cfg.detector.repairThreshold = 1000.0;
        runtime = std::make_unique<TmiRuntime>(*machine, cfg);
        runtime->attach();
        return *runtime;
    }

    void
    runFalseSharing(std::uint64_t iters,
                    std::function<void(ThreadApi &, int)> extra = {})
    {
        machine->spawnThread("main", [&, iters](ThreadApi &api) {
            shared_arr = api.memalign(lineBytes, 16);
            api.fill(shared_arr, 0, 16);
            std::vector<ThreadId> ws;
            for (int t = 0; t < 2; ++t) {
                Addr slot = shared_arr + t * 8;
                ws.push_back(api.spawn(
                    "w" + std::to_string(t),
                    [&, slot, t, iters](ThreadApi &w) {
                        for (std::uint64_t i = 0; i < iters; ++i) {
                            std::uint64_t v = w.load(pc_load, slot);
                            w.store(pc_store, slot, v + 1);
                            if (extra)
                                extra(w, t);
                        }
                    }));
            }
            for (ThreadId t : ws)
                api.join(t);
        });
        ASSERT_EQ(machine->sched().run(50'000'000'000ULL),
                  RunOutcome::Completed);
    }

    std::uint64_t
    fsTotal() const
    {
        return machine->peekShared(shared_arr, 8) +
               machine->peekShared(shared_arr + 8, 8);
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<TmiRuntime> runtime;
    Addr shared_arr = 0;
    Addr pc_load = 0, pc_store = 0, pc_atomic = 0;
};

} // namespace

TEST_F(RobustFixture, T2pAbortRollsBackThenRetrySucceeds)
{
    TmiRuntime &tmi = makeRuntime();
    // First conversion attempt hits a thread that refuses to stop;
    // the transaction aborts, rolls back, and the retry succeeds.
    machine->faults().arm(faultpoint::schedStopTimeout,
                          FaultSpec::once(1));
    runFalseSharing(60000);
    EXPECT_EQ(tmi.ladder().t2pAborts(), 1u);
    EXPECT_TRUE(tmi.repairActive());
    EXPECT_EQ(tmi.rung(), TmiMode::DetectAndRepair);
    // The abort left the address space intact: no update lost.
    EXPECT_EQ(fsTotal(), 120000u);
}

TEST_F(RobustFixture, CloneFailureExhaustsRetriesAndDegrades)
{
    TmiRuntime &tmi = makeRuntime();
    machine->faults().arm(faultpoint::memCloneFail,
                          FaultSpec::always());
    runFalseSharing(60000);
    // All t2pMaxAttempts (default 4) failed; runtime dropped a rung.
    EXPECT_EQ(tmi.ladder().t2pAborts(), 4u);
    EXPECT_EQ(machine->faults().fires(faultpoint::memCloneFail), 4u);
    EXPECT_EQ(tmi.rung(), TmiMode::DetectOnly);
    EXPECT_FALSE(tmi.repairActive());
    EXPECT_GE(tmi.ladder().drops(), 1u);
    // Rollback identity: every thread still lives in process 0.
    for (ThreadId tid = 0; tid < 3; ++tid)
        EXPECT_EQ(machine->processOf(tid), 0u);
    EXPECT_EQ(fsTotal(), 120000u);
}

TEST_F(RobustFixture, TwinAllocFailureFallsBackToSharing)
{
    TmiRuntime &tmi = makeRuntime();
    machine->faults().arm(faultpoint::ptsbTwinAllocFail,
                          FaultSpec::always());
    runFalseSharing(60000);
    // Every COW attempt failed to twin; the pages reverted to shared
    // mappings (unrepaired but memory-safe) and the run stayed
    // correct.
    EXPECT_GT(tmi.ladder().cowFallbacks(), 0u);
    EXPECT_EQ(fsTotal(), 120000u);
}

TEST_F(RobustFixture, FrameExhaustionAbandonsCowSafely)
{
    TmiRuntime &tmi = makeRuntime();
    machine->faults().arm(faultpoint::memFrameExhausted,
                          FaultSpec::always());
    runFalseSharing(60000);
    EXPECT_GT(tmi.ladder().cowFallbacks(), 0u);
    EXPECT_EQ(fsTotal(), 120000u);
}

TEST_F(RobustFixture, MonitorUnrepairsWhenRepairRegresses)
{
    TmiConfig cfg;
    // Make the monitor hair-triggered: no warmup slack, one bad
    // window suffices, and the benefit estimate is negligible.
    cfg.robust.monitorWarmupWindows = 1;
    cfg.robust.regressWindows = 1;
    cfg.robust.hitmCostEstimate = 1;
    TmiRuntime &tmi = makeRuntime(cfg);
    // Every commit is inflated 64x, so repair costs far more than it
    // saves once SeqCst atomics force a commit per iteration.
    machine->faults().arm(faultpoint::ptsbOversizeCommit,
                          FaultSpec::always());

    Addr actr = 0;
    machine->spawnThread("pre", [&](ThreadApi &api) {
        actr = api.memalign(lineBytes, 8);
        api.fill(actr, 0, 8);
    });
    ASSERT_EQ(machine->sched().run(1'000'000'000ULL),
              RunOutcome::Completed);

    runFalseSharing(60000, [&](ThreadApi &w, int) {
        w.fetchAdd(pc_atomic, actr, 1, MemOrder::SeqCst);
    });
    EXPECT_GE(tmi.ladder().unrepairs(), 1u);
    // Un-repair preserved both the racy-line counts and atomicity.
    EXPECT_EQ(fsTotal(), 120000u);
    EXPECT_EQ(machine->peekShared(actr, 8), 120000u);
}

TEST_F(RobustFixture, WatchdogBreaksPtsbLivelock)
{
    TmiConfig cfg;
    cfg.ptsbEverywhere = true; // flag pages are protected too
    cfg.robust.watchdogTimeout = 2'000'000;
    cfg.robust.watchdogMaxFlushes = 1000; // keep flushing, never
                                          // un-repair
    cfg.robust.monitorEnabled = false;
    TmiRuntime &tmi = makeRuntime(cfg);

    // After a false-sharing phase engages repair, w0 publishes flagA
    // (buffered in its PTSB -- invisible) and spins on flagB; w1
    // spins on flagA before publishing flagB. Neither thread ever
    // reaches a sync commit point: without the watchdog this
    // livelocks (the cholesky failure mode). Each flag sits on a
    // page its reader never writes, so a forced commit makes the
    // store visible through the shared frame.
    Addr flag_a = 0, flag_b = 0;
    machine->spawnThread("main", [&](ThreadApi &api) {
        shared_arr = api.memalign(lineBytes, 16);
        api.fill(shared_arr, 0, 16);
        flag_a = api.memalign(smallPageBytes, 8);
        api.fill(flag_a, 0, 8);
        flag_b = api.memalign(smallPageBytes, 8);
        api.fill(flag_b, 0, 8);
        ThreadId t0 = api.spawn("w0", [&](ThreadApi &w) {
            for (int i = 0; i < 60000; ++i) {
                std::uint64_t v = w.load(pc_load, shared_arr);
                w.store(pc_store, shared_arr, v + 1);
            }
            w.store(pc_store, flag_a, 1);
            while (w.load(pc_load, flag_b) == 0) {
            }
        });
        ThreadId t1 = api.spawn("w1", [&](ThreadApi &w) {
            for (int i = 0; i < 60000; ++i) {
                std::uint64_t v = w.load(pc_load, shared_arr + 8);
                w.store(pc_store, shared_arr + 8, v + 1);
            }
            while (w.load(pc_load, flag_a) == 0) {
            }
            w.store(pc_store, flag_b, 1);
        });
        api.join(t0);
        api.join(t1);
    });
    ASSERT_EQ(machine->sched().run(2'000'000'000ULL),
              RunOutcome::Completed);
    ASSERT_TRUE(runtime->repairActive());
    EXPECT_GE(tmi.ladder().watchdogFires(), 1u);
    EXPECT_EQ(fsTotal(), 120000u);
    EXPECT_EQ(machine->peekShared(flag_a, 8), 1u);
    EXPECT_EQ(machine->peekShared(flag_b, 8), 1u);
}

TEST_F(RobustFixture, RecoverUpReArmsRepairAfterCleanWindows)
{
    makeMachine(true); // trace on: the recovery event is asserted
    TmiConfig cfg;
    cfg.robust.recoverUpWindows = 2;
    TmiRuntime &tmi = makeRuntime(cfg);
    // The clone fails exactly as often as one engage's retry budget:
    // the first engage exhausts its attempts and drops the ladder,
    // then the fault is spent and the machine is healthy again.
    FaultSpec clone_fail;
    clone_fail.probability = 1.0;
    clone_fail.maxFires = 4;
    machine->faults().arm(faultpoint::memCloneFail, clone_fail);
    runFalseSharing(200000);
    EXPECT_EQ(tmi.ladder().t2pAborts(), 4u);
    EXPECT_GE(tmi.ladder().drops(), 1u);
    // Two clean windows later the ladder climbed back and the next
    // engage succeeded.
    EXPECT_GE(tmi.ladder().recovers(), 1u);
    EXPECT_EQ(tmi.rung(), TmiMode::DetectAndRepair);
    EXPECT_TRUE(tmi.repairActive());
    // The climb reset the rollback budget.
    EXPECT_EQ(tmi.ladder().unrepairs(), 0u);
    std::size_t recover_events = 0;
    for (const auto &ev : machine->trace()->drain())
        recover_events += ev.kind == obs::EventKind::LadderRecover;
    EXPECT_EQ(recover_events, tmi.ladder().recovers());
    EXPECT_EQ(fsTotal(), 400000u);
}

TEST_F(RobustFixture, RecoverUpDisabledKeepsDropPermanent)
{
    TmiRuntime &tmi = makeRuntime(); // recoverUpWindows = 0
    FaultSpec clone_fail;
    clone_fail.probability = 1.0;
    clone_fail.maxFires = 4;
    machine->faults().arm(faultpoint::memCloneFail, clone_fail);
    runFalseSharing(200000);
    // The faults were spent long before the run ended, but with
    // recovery disabled the drop is permanent.
    EXPECT_EQ(machine->faults().fires(faultpoint::memCloneFail), 4u);
    EXPECT_EQ(tmi.rung(), TmiMode::DetectOnly);
    EXPECT_FALSE(tmi.repairActive());
    EXPECT_EQ(tmi.ladder().recovers(), 0u);
    EXPECT_EQ(fsTotal(), 400000u);
}

TEST_F(RobustFixture, FaultFreeRunIsUnperturbed)
{
    // The injector is wired but never armed: behavior must be
    // byte-identical to a build without the framework.
    TmiRuntime &tmi = makeRuntime();
    EXPECT_FALSE(machine->faults().enabled());
    runFalseSharing(60000);
    EXPECT_TRUE(tmi.repairActive());
    EXPECT_EQ(tmi.ladder().t2pAborts(), 0u);
    EXPECT_EQ(tmi.ladder().unrepairs(), 0u);
    EXPECT_EQ(tmi.ladder().watchdogFires(), 0u);
    EXPECT_EQ(tmi.ladder().cowFallbacks(), 0u);
    EXPECT_EQ(tmi.ladder().drops(), 0u);
    EXPECT_EQ(machine->faults().totalFires(), 0u);
    EXPECT_EQ(fsTotal(), 120000u);
}

} // namespace tmi
