/**
 * @file
 * Unit tests for the green-thread scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hh"

namespace tmi
{

TEST(Scheduler, RunsSingleThreadToCompletion)
{
    SimScheduler sched;
    bool ran = false;
    sched.spawn("t", [&] { ran = true; });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_TRUE(ran);
}

TEST(Scheduler, AdvanceAccumulatesClock)
{
    SimScheduler sched;
    sched.spawn("t", [&] {
        sched.advance(100);
        sched.advance(250);
    });
    sched.run();
    EXPECT_EQ(sched.maxClock(), 350u);
}

TEST(Scheduler, MinClockFirstInterleaving)
{
    // The slow thread advances in big steps; the fast one in small
    // steps. Min-clock scheduling must interleave them so that the
    // fast thread's events stay between the slow thread's.
    SimScheduler sched(10);
    std::vector<int> order;
    sched.spawn("slow", [&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(100 + i);
            sched.advance(100);
        }
    });
    sched.spawn("fast", [&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(200 + i);
            sched.advance(10);
        }
    });
    sched.run();
    // fast(200,201,202) all run before slow's second step (101)
    // because their clocks (0,10,20) are below 100.
    auto pos = [&](int v) {
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i] == v)
                return i;
        }
        return order.size();
    };
    EXPECT_LT(pos(202), pos(101));
}

TEST(Scheduler, BlockAndWake)
{
    SimScheduler sched;
    bool woke = false;
    ThreadId sleeper = sched.spawn("sleeper", [&] {
        sched.block();
        woke = true;
    });
    sched.spawn("waker", [&] {
        sched.advance(500);
        sched.wake(sleeper, sched.now());
    });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_TRUE(woke);
    // The sleeper resumed no earlier than the waker's clock.
    EXPECT_GE(sched.thread(sleeper).clock(), 500u);
}

TEST(Scheduler, WakeBeforeBlockIsNotLost)
{
    // A wake that arrives while the target is still Running must be
    // consumed by the next block() instead of losing the wakeup.
    SimScheduler sched(1000000); // huge quantum: no preemption
    ThreadId a = sched.spawn("a", [&] {
        sched.yield(); // let b run first
        sched.block(); // b already woke us: must not sleep
    });
    sched.spawn("b", [&] { sched.wake(a, 42); });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
}

TEST(Scheduler, DeadlockDetected)
{
    SimScheduler sched;
    sched.spawn("stuck", [&] { sched.block(); });
    EXPECT_EQ(sched.run(), RunOutcome::Deadlock);
}

TEST(Scheduler, TimeoutOnRunawayThread)
{
    SimScheduler sched;
    sched.spawn("spin", [&] {
        while (true)
            sched.advance(100);
    });
    EXPECT_EQ(sched.run(50000), RunOutcome::Timeout);
}

TEST(Scheduler, DaemonDoesNotKeepSimulationAlive)
{
    SimScheduler sched;
    sched.spawn(
        "daemon",
        [&] {
            while (true)
                sched.sleepUntil(sched.now() + 1000);
        },
        /*daemon=*/true);
    sched.spawn("app", [&] { sched.advance(5000); });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
}

TEST(Scheduler, SleepUntilAdvancesClock)
{
    SimScheduler sched;
    sched.spawn("s", [&] {
        sched.sleepUntil(12345);
        EXPECT_GE(sched.now(), 12345u);
    });
    sched.run();
    EXPECT_GE(sched.maxClock(), 12345u);
}

TEST(Scheduler, SpawnFromInsideThreadInheritsClock)
{
    SimScheduler sched;
    Cycles child_start = 0;
    sched.spawn("parent", [&] {
        sched.advance(700);
        sched.spawn("child",
                    [&] { child_start = sched.now(); });
    });
    sched.run();
    EXPECT_GE(child_start, 700u);
}

TEST(Scheduler, PenalizeAddsTime)
{
    SimScheduler sched;
    ThreadId t = sched.spawn("t", [&] { sched.block(); });
    sched.spawn("p", [&] {
        sched.penalize(t, 9000);
        sched.wake(t, 0);
    });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_GE(sched.thread(t).clock(), 9000u);
    EXPECT_GE(sched.maxClock(), 9000u);
}

TEST(Scheduler, CheckpointRestoreRewindsTheStackNotTheHeap)
{
    SimScheduler sched;
    FiberCheckpoint ck;
    int passes = 0; // host-resident: survives the rewind
    sched.spawn("t", [&] {
        int local = 0; // fiber-stack resident: rewound
        std::uint64_t before = ck.resumes;
        sched.checkpointCurrent(ck);
        bool rolled_back = ck.resumes != before;
        ++passes;
        ++local;
        if (!rolled_back) {
            EXPECT_EQ(local, 1);
            sched.restoreCurrent(ck);
            FAIL() << "restoreCurrent must not return";
        }
        EXPECT_EQ(local, 1) << "stack locals must rewind to capture";
    });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_EQ(passes, 2) << "heap state must survive the rewind";
    EXPECT_EQ(ck.resumes, 1u);
}

TEST(Scheduler, HijackRewindsASuspendedThread)
{
    SimScheduler sched;
    FiberCheckpoint ck;
    bool rewound = false;
    ThreadId victim = sched.spawn("victim", [&] {
        std::uint64_t before = ck.resumes;
        sched.checkpointCurrent(ck);
        if (ck.resumes != before) {
            rewound = true; // the remote abort landed
            return;
        }
        // First pass: yield forever; only the hijack ends the spin.
        for (int i = 0; i < 1'000'000; ++i)
            sched.advance(10);
        FAIL() << "victim was never hijacked";
    });
    sched.spawn("attacker", [&] {
        sched.advance(100); // victim captures, then spins
        sched.hijackThread(victim, ck);
    });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_TRUE(rewound);
    EXPECT_EQ(ck.resumes, 1u);
}

TEST(Scheduler, RestoreKeepsAbortedWorkOnTheClock)
{
    // Rollback rewinds state, never time: cycles burned inside an
    // aborted txn stay burned (that is what makes livelock-by-abort
    // visible to the timeout verdicts).
    SimScheduler sched;
    FiberCheckpoint ck;
    Cycles at_capture = 0, at_resume = 0;
    sched.spawn("t", [&] {
        sched.advance(500);
        std::uint64_t before = ck.resumes;
        at_capture = sched.now();
        sched.checkpointCurrent(ck);
        if (ck.resumes != before) {
            at_resume = sched.now();
            return;
        }
        sched.advance(250); // doomed speculative work
        sched.restoreCurrent(ck);
    });
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_EQ(at_capture, 500u);
    EXPECT_EQ(at_resume, 750u);
}

TEST(Scheduler, ManyThreadsAllComplete)
{
    SimScheduler sched;
    int done = 0;
    for (int i = 0; i < 32; ++i) {
        sched.spawn("w" + std::to_string(i), [&, i] {
            for (int k = 0; k < i + 1; ++k)
                sched.advance(10);
            ++done;
        });
    }
    EXPECT_EQ(sched.run(), RunOutcome::Completed);
    EXPECT_EQ(done, 32);
    EXPECT_GT(sched.contextSwitches(), 32u);
}

TEST(Scheduler, HandoffSequenceIsPinned)
{
    // One scenario through every way a thread leaves the CPU --
    // quantum expiry, sleepUntil, block/wake, an in-thread spawn,
    // penalize, checkpoint/restore, hijack, a daemon, and the abort
    // flag ending one run() that a second run() then finishes. The
    // (tid, clock) of every return from a scheduler call, plus the
    // switch and restore counts, pin the scheduling decisions: how a
    // switch is performed may change, which thread runs next may not.
    SimScheduler sched(40);
    std::atomic<bool> stop{false};
    sched.setAbortFlag(&stop);
    std::vector<std::pair<ThreadId, Cycles>> seq;
    auto note = [&] {
        seq.emplace_back(sched.current()->tid(), sched.now());
    };
    FiberCheckpoint txn, victim_ck;
    ThreadId worker = 0, victim = 0;

    worker = sched.spawn("worker", [&] {
        for (int i = 0; i < 12; ++i) {
            sched.advance(15);
            note();
            if (i == 3) {
                sched.spawn("child", [&] {
                    for (int k = 0; k < 4; ++k) {
                        sched.advance(10);
                        note();
                    }
                });
            }
            if (i == 6) {
                sched.block();
                note();
            }
        }
    });
    sched.spawn("waker", [&] {
        sched.sleepUntil(100);
        note();
        sched.hijackThread(victim, victim_ck);
        sched.penalize(worker, 30);
        for (int i = 0; i < 6; ++i) {
            sched.advance(25);
            note();
        }
        sched.wake(worker, sched.now());
        stop = true;
        sched.advance(25); // quantum or not, the next switch aborts
        note();
        sched.advance(40);
        note();
    });
    sched.spawn("txn", [&] {
        sched.advance(30);
        note();
        std::uint64_t before = txn.resumes;
        sched.checkpointCurrent(txn);
        note();
        if (txn.resumes == before) {
            sched.advance(50);
            note();
            sched.restoreCurrent(txn);
        }
        for (int i = 0; i < 3; ++i) {
            sched.advance(35);
            note();
        }
    });
    victim = sched.spawn("victim", [&] {
        std::uint64_t before = victim_ck.resumes;
        sched.checkpointCurrent(victim_ck);
        note();
        if (victim_ck.resumes != before)
            return; // the remote abort landed
        while (true) {
            sched.advance(10);
            note();
        }
    });
    sched.spawn(
        "daemon",
        [&] {
            while (true) {
                sched.sleepUntil(sched.now() + 70);
                note();
            }
        },
        /*daemon=*/true);

    EXPECT_EQ(sched.run(), RunOutcome::Timeout);
    std::size_t at_abort = seq.size();
    std::uint64_t switches_at_abort = sched.contextSwitches();
    stop = false;
    EXPECT_EQ(sched.run(), RunOutcome::Completed);

    std::string got;
    for (auto [tid, clock] : seq)
        got += std::to_string(tid) + "@" + std::to_string(clock) + " ";
    // tids: 0 worker, 1 waker, 2 txn, 3 victim, 4 daemon, 5 child.
    EXPECT_EQ(got,
        "0@15 0@30 2@30 2@30 3@0 3@10 3@20 3@30 3@40 3@50 3@60 3@70 "
        "3@80 0@45 0@60 0@75 0@90 5@70 5@80 5@90 5@100 4@70 2@80 2@80 "
        "2@115 3@90 3@100 3@110 3@120 3@130 1@100 1@125 0@135 3@140 "
        "4@140 1@150 1@175 2@150 2@185 1@200 1@225 4@210 1@250 1@275 "
        "0@250 0@265 0@280 0@295 0@310 4@280 1@315 0@325 ");
    EXPECT_EQ(at_abort, 44u);
    EXPECT_EQ(switches_at_abort, 20u);
    EXPECT_EQ(sched.contextSwitches(), 24u);
    stats::StatGroup group("sched");
    sched.regStats(group);
    double restores = -1;
    ASSERT_TRUE(group.lookupScalar("restores", restores));
    EXPECT_EQ(restores, 2);
    EXPECT_EQ(txn.resumes, 1u);
    EXPECT_EQ(victim_ck.resumes, 1u);
}

} // namespace tmi
