#include "campaign.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "driver/cli.hh"

namespace tmi::chaos
{

namespace
{

/** The fault-free config for one (workload, treatment) cell. */
Config
cellConfig(const CampaignSpec &spec, const std::string &workload,
           Treatment treatment)
{
    Config config = spec.base;
    config.run.workload = workload;
    config.run.treatment = treatment;
    config.run.faults.clear();
    config.run.sheriffBuggyDissolve = spec.sheriffBuggyDissolve;
    return config;
}

/** The run-cell fields of a schedule, from a cell config. */
void
fillCell(ChaosSchedule &sched, const Config &config)
{
    sched.workload = config.run.workload;
    sched.treatment = config.run.treatment;
    sched.threads = config.run.threads;
    sched.scale = config.run.scale;
    sched.seed = config.run.seed;
    sched.budget = config.run.budget;
    sched.sheriffBuggyDissolve = config.run.sheriffBuggyDissolve;
    // Capture the self-healing arming too: a reproducer spec must
    // replay the exact ladder the run failed under, not whatever the
    // replaying binary's base config happens to arm.
    sched.watchdog = config.run.watchdog;
    sched.monitor = config.run.monitor;
    sched.watchdogTimeout = config.run.watchdogTimeout;
    sched.analysisInterval = config.run.analysisInterval;
    sched.recoverUpWindows = config.tmi.robust.recoverUpWindows;
}

/** CSV cells must not sprout new columns or rows. */
std::string
sanitize(std::string s)
{
    for (char &c : s) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ';';
    }
    return s;
}

const char *
outcomeStr(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed:
        return "completed";
      case RunOutcome::Timeout:
        return "timeout";
      case RunOutcome::Deadlock:
        return "deadlock";
    }
    return "?";
}

/** Judge a delivered job against its golden (host failures too). */
Judgement
judgeJob(const driver::JobResult &jr, const RunResult &golden)
{
    switch (jr.status) {
      case driver::JobStatus::Ok:
        return judge(golden, jr.run);
      case driver::JobStatus::TimedOut:
        return {Verdict::Livelock, "killed by the host-side timeout"};
      case driver::JobStatus::Failed:
        return {Verdict::RunFailed,
                jr.error.empty() ? "job failed" : jr.error};
      case driver::JobStatus::Poisoned:
        return {Verdict::RunFailed,
                jr.error.empty() ? "quarantined as a poison job"
                                 : jr.error};
      case driver::JobStatus::Cancelled:
        break;
    }
    return {Verdict::NoDigest, "cancelled before running"};
}

} // namespace

std::vector<ConfigError>
CampaignSpec::validate() const
{
    std::vector<ConfigError> errors;
    if (workloads.empty()) {
        errors.push_back({"CampaignSpec.workloads",
                          "a campaign needs at least one workload"});
    }
    if (treatments.empty()) {
        errors.push_back({"CampaignSpec.treatments",
                          "a campaign needs at least one treatment"});
    }
    if (schedules == 0) {
        errors.push_back({"CampaignSpec.schedules",
                          "a campaign of zero schedules per cell "
                          "judges nothing"});
    }
    if (generator.minEvents < 1 ||
        generator.maxEvents < generator.minEvents) {
        errors.push_back({"CampaignSpec.generator",
                          "event range [min, max] is invalid"});
    }
    // Every cell must be a runnable config (bad workload names and
    // template inconsistencies surface here, not mid-campaign).
    for (const std::string &wl : workloads) {
        for (Treatment t : treatments) {
            for (ConfigError &e :
                 cellConfig(*this, wl, t).validate()) {
                e.field = wl + "/" + treatmentName(t) + ": " + e.field;
                errors.push_back(std::move(e));
            }
        }
    }
    return errors;
}

std::uint64_t
CampaignSpec::totalRuns() const
{
    std::uint64_t cells = static_cast<std::uint64_t>(
                              workloads.size()) *
                          treatments.size();
    return cells * (1 + schedules);
}

const char *
chaosCsvHeader()
{
    return "row_id,kind,workload,treatment,threads,scale,seed,"
           "campaign_seed,schedule_index,fault_seed,events,status,"
           "outcome,verdict,reason,rung,cycles,slowdown,fault_fires,"
           "t2p_aborts,unrepairs,watchdog_flushes,ladder_drops,"
           "ladder_recovers,invariant_violations,digest,"
           "golden_digest";
}

std::string
chaosCsvRow(const CampaignRow &row)
{
    bool ok = row.status == driver::JobStatus::Ok;
    const RunResult &r = row.run;
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%llu,%s,%s,%s,%u,%llu,%llu,%llu,%llu,%llu,%zu,%s,%s,%s,%s,"
        "%s,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%016llx,%016llx",
        static_cast<unsigned long long>(row.id),
        row.golden ? "golden" : "chaos",
        row.schedule.workload.c_str(),
        treatmentName(row.schedule.treatment), row.schedule.threads,
        static_cast<unsigned long long>(row.schedule.scale),
        static_cast<unsigned long long>(row.schedule.seed),
        static_cast<unsigned long long>(row.schedule.campaignSeed),
        static_cast<unsigned long long>(row.schedule.index),
        static_cast<unsigned long long>(row.schedule.faultSeed),
        row.schedule.events.size(),
        driver::jobStatusName(row.status),
        ok ? outcomeStr(r.outcome) : "-",
        row.golden ? "golden" : verdictName(row.judgement.verdict),
        row.judgement.reason.empty()
            ? "-"
            : sanitize(row.judgement.reason).c_str(),
        ok && !r.ladderRung.empty() ? r.ladderRung.c_str() : "-",
        static_cast<unsigned long long>(ok ? r.cycles : 0),
        row.slowdown,
        static_cast<unsigned long long>(ok ? r.faultFires : 0),
        static_cast<unsigned long long>(ok ? r.t2pAborts : 0),
        static_cast<unsigned long long>(ok ? r.unrepairs : 0),
        static_cast<unsigned long long>(ok ? r.watchdogFlushes : 0),
        static_cast<unsigned long long>(ok ? r.ladderDrops : 0),
        static_cast<unsigned long long>(ok ? r.ladderRecovers : 0),
        static_cast<unsigned long long>(ok ? r.invariantViolations
                                           : 0),
        static_cast<unsigned long long>(ok ? r.resultDigest : 0),
        static_cast<unsigned long long>(row.goldenDigest));
    return buf;
}

namespace
{

/** Sum the executor stats of one phase into the campaign total. */
void
accumulateStats(driver::ShardRunStats &total,
                const driver::ShardRunStats &phase)
{
    total.shards = std::max(total.shards, phase.shards);
    total.crashes += phase.crashes;
    total.respawns += phase.respawns;
    total.poisoned += phase.poisoned;
    total.resumedJobs += phase.resumedJobs;
    total.tornRecords += phase.tornRecords;
    total.sweep.total += phase.sweep.total;
    total.sweep.ok += phase.sweep.ok;
    total.sweep.failed += phase.sweep.failed;
    total.sweep.timedOut += phase.sweep.timedOut;
    total.sweep.cancelled += phase.sweep.cancelled;
    total.sweep.poisoned += phase.sweep.poisoned;
    total.sweep.retries += phase.sweep.retries;
    total.sweep.wallSeconds += phase.sweep.wallSeconds;
}

} // namespace

CampaignOutcome
runCampaign(const CampaignSpec &spec, const driver::ShardOptions &opts,
            std::ostream *csv, driver::ShardRunStats *orchestration)
{
    CampaignOutcome out;
    driver::ShardRunStats total;
    if (csv)
        *csv << chaosCsvHeader() << "\n";

    struct Cell
    {
        Config config;
        RunResult golden;
        bool goldenOk = false;
    };
    std::vector<Cell> cells;
    for (const std::string &wl : spec.workloads) {
        for (Treatment t : spec.treatments)
            cells.push_back({cellConfig(spec, wl, t), {}, false});
    }

    // Sharded, each phase journals into its own subdirectory: the
    // two job lists have different shapes, so they must not share a
    // MANIFEST.
    auto runPhase = [&](std::vector<driver::Job> jobs,
                        driver::ResultSink *sink, const char *phase) {
        driver::ShardOptions so = opts;
        if (!so.journalDir.empty())
            so.journalDir += std::string{"/"} + phase;
        accumulateStats(total,
                        driver::runJobs(std::move(jobs), sink, so));
    };

    // Phase 1: golden fault-free runs, one job per cell. Delivered
    // in job-id (== cell) order, so the golden rows stream first and
    // in a stable order for any executor.
    std::vector<driver::Job> golden_jobs;
    for (const Cell &cell : cells)
        golden_jobs.push_back({0, cell.config, "", 0.0});

    std::uint64_t next_id = 0;
    driver::FunctionSink golden_sink([&](const driver::JobResult &jr) {
        Cell &cell = cells[jr.job.id];
        CampaignRow row;
        row.id = next_id++;
        row.golden = true;
        fillCell(row.schedule, cell.config);
        row.schedule.campaignSeed = spec.campaignSeed;
        row.status = jr.status;
        row.run = jr.run;
        if (jr.status == driver::JobStatus::Ok) {
            cell.golden = jr.run;
            cell.goldenOk = jr.run.outcome == RunOutcome::Completed;
            row.goldenDigest = jr.run.resultDigest;
            row.slowdown = 1.0;
            row.judgement = {Verdict::Pass, "golden baseline"};
        } else {
            row.judgement = judgeJob(jr, {});
            ++out.jobFailures;
        }
        if (csv)
            *csv << chaosCsvRow(row) << "\n";
    });
    runPhase(std::move(golden_jobs), &golden_sink, "goldens");

    // Phase 2: the chaos matrix. Schedule draw k of cell c is a pure
    // function of (campaign seed, c * schedules + k, the cell's
    // golden makespan as the window horizon), so the job list (and
    // the CSV) is reproducible however execution interleaves, and
    // the sink re-draws each delivered job's schedule on demand
    // instead of buffering all of them: the campaign holds one row
    // at a time no matter how many schedules run.
    ScheduleGenerator gen(spec.campaignSeed, spec.generator);
    auto drawSchedule = [&](std::uint64_t globalIndex) {
        const Cell &cell = cells[globalIndex / spec.schedules];
        ChaosSchedule sched = gen.generate(
            globalIndex, cell.goldenOk ? cell.golden.cycles : 0);
        fillCell(sched, cell.config);
        // fillCell resets provenance inputs to the cell's; keep the
        // draw identity.
        sched.campaignSeed = spec.campaignSeed;
        return sched;
    };

    std::vector<driver::Job> chaos_jobs;
    for (std::uint64_t i = 0; i < cells.size() * spec.schedules; ++i) {
        chaos_jobs.push_back(
            {0, drawSchedule(i).toConfig(spec.base), "chaos", 0.0});
    }

    // The first few failures, queued for phase 3.
    struct PendingFailure
    {
        ChaosSchedule schedule;
        std::size_t cell;
    };
    std::vector<PendingFailure> to_minimize;

    driver::FunctionSink chaos_sink([&](const driver::JobResult &jr) {
        std::size_t c = jr.job.id / spec.schedules;
        const Cell &cell = cells[c];
        CampaignRow row;
        row.id = next_id++;
        row.schedule = drawSchedule(jr.job.id);
        row.status = jr.status;
        row.run = jr.run;
        row.goldenDigest =
            cell.goldenOk ? cell.golden.resultDigest : 0;
        row.judgement = judgeJob(jr, cell.golden);
        if (jr.status == driver::JobStatus::Ok && cell.goldenOk &&
            cell.golden.cycles != 0) {
            row.slowdown = static_cast<double>(jr.run.cycles) /
                           static_cast<double>(cell.golden.cycles);
        }
        if (jr.status != driver::JobStatus::Ok)
            ++out.jobFailures;
        ++out.judged;
        if (row.judgement.pass())
            ++out.passed;
        else if (row.judgement.fail())
            ++out.failed;
        else
            ++out.skipped;
        if (spec.minimizeFailures &&
            to_minimize.size() < spec.minimizeLimit &&
            row.judgement.fail() &&
            jr.status == driver::JobStatus::Ok) {
            to_minimize.push_back({row.schedule, c});
        }
        if (csv)
            *csv << chaosCsvRow(row) << "\n";
    });
    runPhase(std::move(chaos_jobs), &chaos_sink, "chaos");

    if (orchestration)
        *orchestration = total;

    // Phase 3: shrink the queued failures to 1-minimal reproducers.
    // Probes replay synchronously (deterministically) in this
    // thread; the CSV is already complete.
    for (const PendingFailure &pf : to_minimize) {
        out.reproducers.push_back(minimizeFailure(
            pf.schedule, cells[pf.cell].golden, spec.base));
    }
    return out;
}

CampaignOutcome::Reproducer
minimizeFailure(const ChaosSchedule &failing, const RunResult &golden,
                const Config &base)
{
    auto still_fails = [&](const ChaosSchedule &s) {
        return judge(golden, runExperiment(s.toConfig(base))).fail();
    };
    CampaignOutcome::Reproducer repro;
    repro.minimized = minimizeSchedule(failing, still_fails, &repro.stats);
    repro.judgement =
        judge(golden, runExperiment(repro.minimized.toConfig(base)));
    return repro;
}

bool
reportCampaign(const char *tag, const CampaignSpec &spec,
               const CampaignOutcome &out,
               const driver::ShardRunStats &run,
               const std::string &reproDir)
{
    driver::printShardSummary(tag, run);
    for (const CampaignOutcome::Reproducer &repro : out.reproducers) {
        const ChaosSchedule &min = repro.minimized;
        std::fprintf(stderr,
                     "[%s] minimized %s: %zu -> %zu events in %u "
                     "probes (%s)\n",
                     tag, min.summary().c_str(),
                     repro.stats.originalEvents,
                     repro.stats.minimizedEvents, repro.stats.probes,
                     verdictName(repro.judgement.verdict));
        if (reproDir.empty()) {
            std::fputs(writeScheduleSpec(min).c_str(), stderr);
            continue;
        }
        std::filesystem::create_directories(reproDir);
        std::string name = reproDir + "/repro_" + min.workload + "_" +
                           treatmentName(min.treatment) + "_" +
                           std::to_string(min.index) + ".spec";
        std::ofstream rf(name);
        rf << writeScheduleSpec(min);
        std::fprintf(stderr, rf ? "[%s] wrote %s\n"
                                : "[%s] cannot write '%s'\n",
                     tag, name.c_str());
    }

    std::fprintf(stderr,
                 "[%s] campaign seed %llu: %llu judged, %llu passed, "
                 "%llu failed, %llu skipped\n",
                 tag, static_cast<unsigned long long>(spec.campaignSeed),
                 static_cast<unsigned long long>(out.judged),
                 static_cast<unsigned long long>(out.passed),
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.skipped));
    // A campaign is only a success when every run executed AND
    // passed: a crashed or quarantined job must not be laundered
    // into "skipped" silence.
    if (!out.clean()) {
        std::fprintf(
            stderr,
            "[%s] FAILED: %llu oracle failure(s), %llu job(s) did "
            "not execute (crashed/failed/quarantined)\n",
            tag, static_cast<unsigned long long>(out.failed),
            static_cast<unsigned long long>(out.jobFailures));
    }
    return out.clean();
}

CampaignRow
replaySchedule(const ChaosSchedule &schedule, const Config &base)
{
    Config faulted_cfg = schedule.toConfig(base);
    Config golden_cfg = faulted_cfg;
    golden_cfg.run.faults.clear();

    CampaignRow row;
    row.schedule = schedule;
    row.status = driver::JobStatus::Ok;

    RunResult golden = runExperiment(golden_cfg);
    row.goldenDigest = golden.resultDigest;
    row.run = runExperiment(faulted_cfg);
    row.judgement = judge(golden, row.run);
    if (golden.outcome == RunOutcome::Completed &&
        golden.cycles != 0) {
        row.slowdown = static_cast<double>(row.run.cycles) /
                       static_cast<double>(golden.cycles);
    }
    annotateTrace(row.run, schedule, row.judgement);
    return row;
}

} // namespace tmi::chaos
