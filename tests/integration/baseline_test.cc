/**
 * @file
 * Integration tests for the Sheriff and LASER baselines: their
 * strengths and the documented failure modes (Table 1).
 */

#include <gtest/gtest.h>

#include "core/config.hh"

namespace tmi
{

namespace
{

ExperimentConfig
cfgFor(const std::string &workload, Treatment treatment,
       std::uint64_t scale = 4)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.treatment = treatment;
    cfg.threads = 4;
    cfg.scale = scale;
    cfg.analysisInterval = 500'000;
    cfg.budget = 30'000'000'000ULL;
    return cfg;
}

} // namespace

TEST(Sheriff, RepairsSimpleFalseSharingWell)
{
    RunResult base =
        runExperiment(cfgFor("histogramfs", Treatment::Pthreads));
    RunResult sheriff =
        runExperiment(cfgFor("histogramfs", Treatment::SheriffProtect));
    ASSERT_TRUE(sheriff.compatible);
    // Sheriff prevents FS from the very start: solid speedup.
    EXPECT_GT(speedup(base, sheriff), 1.3);
}

TEST(Sheriff, IncompatibleWithAtomicsWorkloads)
{
    // "Sheriff does not work on ... leveldb or shptr-relaxed."
    RunResult leveldb =
        runExperiment(cfgFor("leveldb", Treatment::SheriffProtect, 2));
    EXPECT_FALSE(leveldb.compatible);
}

TEST(Sheriff, DetectModeSlowerThanTmiDetect)
{
    RunResult base =
        runExperiment(cfgFor("streamcluster", Treatment::Pthreads, 1));
    RunResult sheriff = runExperiment(
        cfgFor("streamcluster", Treatment::SheriffDetect, 1));
    RunResult tmi =
        runExperiment(cfgFor("streamcluster", Treatment::TmiDetect, 1));
    ASSERT_TRUE(sheriff.compatible);
    ASSERT_TRUE(tmi.compatible);
    // Sheriff page-protects everything from the start; Tmi treads
    // lightly (2% vs 27% average in Table 1).
    double sheriff_overhead =
        static_cast<double>(sheriff.cycles) / base.cycles;
    double tmi_overhead =
        static_cast<double>(tmi.cycles) / base.cycles;
    EXPECT_GT(sheriff_overhead, tmi_overhead);
}

TEST(Laser, RepairsButCapturesLessThanTmi)
{
    RunResult base =
        runExperiment(cfgFor("lreg", Treatment::Pthreads));
    RunResult laser =
        runExperiment(cfgFor("lreg", Treatment::Laser));
    RunResult tmi =
        runExperiment(cfgFor("lreg", Treatment::TmiProtect));
    RunResult manual =
        runExperiment(cfgFor("lreg", Treatment::Manual));
    ASSERT_TRUE(laser.compatible);
    ASSERT_TRUE(laser.repairActive);

    double laser_speedup = speedup(base, laser);
    double tmi_speedup = speedup(base, tmi);
    double manual_speedup = speedup(base, manual);
    // LASER helps, but far less than Tmi or the manual fix.
    EXPECT_GT(laser_speedup, 1.05);
    EXPECT_GT(tmi_speedup, laser_speedup);
    EXPECT_GT(manual_speedup, laser_speedup);
}

TEST(Laser, PreservesConsistencyOnCanneal)
{
    // LASER's store buffer is TSO-correct: canneal stays valid.
    ExperimentConfig cfg = cfgFor("canneal", Treatment::Laser, 2);
    cfg.repairThreshold = 1.0;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
}

TEST(Laser, DeclinesRepairOnSyncHeavyMicrobenchmarks)
{
    // "LASER does not enable repair on the Boost microbenchmarks."
    RunResult res =
        runExperiment(cfgFor("shptr-relaxed", Treatment::Laser));
    EXPECT_TRUE(res.compatible);
    EXPECT_FALSE(res.repairActive);
}

TEST(SheriffLadder, CloneFailureExhaustionDropsToPartialIsolation)
{
    // Every cloneAddressSpace call fails: each thread burns its full
    // retry budget, stays plain, and the runtime lands on the
    // partial-isolation rung -- but the program still finishes with
    // correct results.
    ExperimentConfig cfg =
        cfgFor("histogramfs", Treatment::SheriffProtect, 2);
    cfg.faults.emplace_back(faultpoint::memCloneFail,
                            FaultSpec::always());
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
    EXPECT_EQ(res.ladderRung, "partial-isolation");
    EXPECT_GE(res.t2pAborts, 1u);
    EXPECT_EQ(res.faultFires, res.t2pAborts);
}

TEST(SheriffLadder, SingleCloneFailureIsRetriedAway)
{
    // One transient clone failure: the retry succeeds and isolation
    // stays fully engaged.
    ExperimentConfig cfg =
        cfgFor("histogramfs", Treatment::SheriffProtect, 2);
    cfg.faults.emplace_back(faultpoint::memCloneFail,
                            FaultSpec::once());
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
    EXPECT_EQ(res.ladderRung, "full-isolation");
    EXPECT_EQ(res.t2pAborts, 1u);
}

TEST(SheriffLadder, MonitorDissolvesUnprofitableIsolation)
{
    // "reverse" commits constantly (fine-grained locks over a big
    // array), so isolation overhead dwarfs the merge benefit. The
    // effectiveness monitor must dissolve -- and the dissolution must
    // not lose buffered writes, even when threads are created while
    // the dissolve is in flight.
    ExperimentConfig cfg =
        cfgFor("reverse", Treatment::SheriffProtect, 2);
    cfg.monitor = 1;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
    EXPECT_EQ(res.ladderRung, "dissolved");
    EXPECT_GE(res.unrepairs, 1u);
}

TEST(LaserLadder, RecoverUpClimbsBackToDetectAndRepair)
{
    // A stretch of ring overflows makes perf sampling unreliable, so
    // the armed monitor drops LASER to detect-only. The recover-up
    // knob arrives through Config::tmi.robust -- the path
    // tmi-chaos --recover-up and ExperimentBuilder::robustness() take
    // -- and once the overflows stop, clean windows climb back.
    Config cfg;
    cfg.run = cfgFor("lu-ncb", Treatment::Laser);
    cfg.run.monitor = 1;
    FaultSpec overflow = FaultSpec::always();
    overflow.windowEnd = 3'000'000;
    cfg.run.faults.emplace_back(faultpoint::perfRingOverflow, overflow);
    cfg.tmi.robust.recoverUpWindows = 2;
    RunResult res = runExperiment(cfg);
    EXPECT_TRUE(res.compatible);
    EXPECT_EQ(res.ladderDrops, 1u);
    EXPECT_EQ(res.ladderRecovers, 1u);
    EXPECT_EQ(res.ladderRung, "detect-and-repair");
    EXPECT_TRUE(res.repairActive);
    EXPECT_EQ(res.invariantViolations, 0u);
}

TEST(Table1, TmiOverheadLowWithoutContention)
{
    RunResult base =
        runExperiment(cfgFor("swaptions", Treatment::Pthreads, 4));
    RunResult detect =
        runExperiment(cfgFor("swaptions", Treatment::TmiDetect, 4));
    ASSERT_TRUE(detect.compatible);
    double overhead =
        static_cast<double>(detect.cycles) / base.cycles - 1.0;
    EXPECT_LT(overhead, 0.10);
}

TEST(Table1, TmiCapturesMostOfManualSpeedup)
{
    ExperimentConfig base_cfg =
        cfgFor("histogramfs", Treatment::Pthreads, 8);
    RunResult base = runExperiment(base_cfg);
    base_cfg.treatment = Treatment::TmiProtect;
    RunResult tmi = runExperiment(base_cfg);
    base_cfg.treatment = Treatment::Manual;
    RunResult manual = runExperiment(base_cfg);

    double capture = (speedup(base, tmi) - 1.0) /
                     (speedup(base, manual) - 1.0);
    EXPECT_GT(capture, 0.5);
}

} // namespace tmi
