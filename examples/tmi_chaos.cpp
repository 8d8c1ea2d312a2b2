/**
 * @file
 * tmi-chaos: the chaos campaign front-end.
 *
 * Three subcommands over src/chaos/:
 *
 *   tmi-chaos campaign --workloads histogramfs,lreg \
 *       --treatments tmi-protect,sheriff-protect \
 *       [--schedules N] [--campaign-seed S] [--threads N]
 *       [--scale N] [--budget N] [--param key=value]...
 *       [--min-events N] [--max-events N]
 *       [--watchdog 0|1] [--monitor 0|1] [--recover-up N]
 *       [--no-minimize] [--minimize-limit N] [--repro-dir DIR]
 *       [tmi-sweep's orchestration flags: --workers ... --kill-budget]
 *
 *     Runs goldens + N generated fault schedules per cell, streams
 *     the campaign CSV (schema: scripts/check_chaos.py), and shrinks
 *     failures to minimal reproducer spec files under --repro-dir.
 *     The CSV is byte-identical for any --workers value.
 *
 *     --journal-dir turns on crash-safe orchestration: schedules run
 *     in --shards worker processes journaling every result, a
 *     schedule that kills its worker twice is quarantined
 *     (status=poisoned) instead of sinking the campaign, and a
 *     killed campaign continues with --resume, reproducing the
 *     uninterrupted CSV byte for byte. Numeric flags are strict.
 *     Exit status: 0 = every run executed and passed its oracle,
 *     1 = an oracle failure OR any job that failed/crashed/was
 *     quarantined, 2 = usage error.
 *
 *   tmi-chaos replay <spec-file> [--expect-fail] [--verbose]
 *       [--param key=value]...
 *
 *     Re-runs one schedule spec (fresh golden + faulted run) and
 *     prints the verdict. Exit 0 when the verdict is pass -- or,
 *     with --expect-fail, when the oracle (still) catches the
 *     failure, which is how CI pins checked-in regression
 *     reproducers. --param passes workload knobs into the base
 *     config exactly as the campaign subcommand does, so a
 *     reproducer minimized from a parameterized campaign replays
 *     under the same knobs.
 *
 *   tmi-chaos minimize <spec-file> [--out file.spec] [--verbose]
 *       [--param key=value]...
 *
 *     Delta-debugs a failing spec to a 1-minimal reproducer.
 *
 *   tmi-chaos --list-fault-points
 *
 *     The full fault-point registry schedules are drawn from.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "chaos/campaign.hh"
#include "common/logging.hh"
#include "driver/cli.hh"
#include "workloads/params.hh"

using namespace tmi;

namespace
{

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "tmi-chaos: %s\n", message.c_str());
    std::exit(2);
}

/** --param key=value onto @p base, or exit 2. */
void
addParam(Config &base, const std::string &text)
{
    std::pair<std::string, std::string> kv;
    std::string err;
    if (!parseParamAssignment(text, kv, err))
        usageError("--param: " + err);
    base.run.params.push_back(std::move(kv));
}

chaos::ChaosSchedule
loadSchedule(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        usageError("cannot read spec file '" + path + "'");
    std::ostringstream text;
    text << is.rdbuf();
    chaos::ChaosSchedule sched;
    std::string err;
    if (!chaos::parseScheduleSpec(text.str(), sched, err))
        usageError(path + ": " + err);
    return sched;
}

void
printRow(const chaos::CampaignRow &row)
{
    std::fprintf(stderr,
                 "[chaos] %s: %s (%s) rung=%s fires=%llu "
                 "slowdown=%.2f\n",
                 row.schedule.summary().c_str(),
                 chaos::verdictName(row.judgement.verdict),
                 row.judgement.reason.c_str(),
                 row.run.ladderRung.empty()
                     ? "-"
                     : row.run.ladderRung.c_str(),
                 static_cast<unsigned long long>(row.run.faultFires),
                 row.slowdown);
}

int
cmdCampaign(int argc, char **argv)
{
    driver::OrchestrationFlags flags;
    std::vector<std::string> args;
    std::string err;
    if (!driver::parseOrchestrationFlags(argc, argv, flags, args, err))
        usageError(err);

    chaos::CampaignSpec spec;
    std::string repro_dir;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                usageError("'" + arg + "' needs a value");
            return args[++i];
        };
        auto number = [&](auto &out) {
            if (!driver::parseFlagValue(arg, next(), out, err))
                usageError(err);
        };
        if (arg == "--workloads") {
            spec.workloads = driver::splitList(next());
        } else if (arg == "--treatments") {
            if (!driver::parseTreatmentList(next(), spec.treatments,
                                            err)) {
                usageError(err);
            }
        } else if (arg == "--schedules") {
            number(spec.schedules);
        } else if (arg == "--campaign-seed") {
            number(spec.campaignSeed);
        } else if (arg == "--threads") {
            number(spec.base.run.threads);
        } else if (arg == "--scale") {
            number(spec.base.run.scale);
        } else if (arg == "--budget") {
            number(spec.base.run.budget);
        } else if (arg == "--param") {
            addParam(spec.base, next());
        } else if (arg == "--watchdog") {
            number(spec.base.run.watchdog);
        } else if (arg == "--monitor") {
            number(spec.base.run.monitor);
        } else if (arg == "--recover-up") {
            number(spec.base.tmi.robust.recoverUpWindows);
        } else if (arg == "--min-events") {
            number(spec.generator.minEvents);
        } else if (arg == "--max-events") {
            number(spec.generator.maxEvents);
        } else if (arg == "--no-minimize") {
            spec.minimizeFailures = false;
        } else if (arg == "--minimize-limit") {
            number(spec.minimizeLimit);
        } else if (arg == "--buggy-dissolve") {
            spec.sheriffBuggyDissolve = true;
        } else if (arg == "--repro-dir") {
            repro_dir = next();
        } else {
            usageError("unknown campaign flag '" + arg + "'");
        }
    }
    if (!flags.verbose)
        setLogLevel(LogLevel::Quiet);

    std::vector<ConfigError> errors = spec.validate();
    if (!errors.empty()) {
        for (const ConfigError &e : errors) {
            std::fprintf(stderr, "tmi-chaos: %s: %s\n",
                         e.field.c_str(), e.message.c_str());
        }
        return 2;
    }

    std::ofstream csv_file;
    if (!flags.csvPath.empty()) {
        csv_file.open(flags.csvPath);
        if (!csv_file)
            usageError("cannot write '" + flags.csvPath + "'");
    }
    std::ostream &os = flags.csvPath.empty() ? std::cout : csv_file;

    chaos::CampaignOutcome outcome;
    driver::ShardRunStats run;
    try {
        outcome = chaos::runCampaign(spec, flags.shard, &os, &run);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tmi-chaos: %s\n", e.what());
        return 2;
    }
    return chaos::reportCampaign("chaos", spec, outcome, run, repro_dir)
               ? 0
               : 1;
}

/** What replay and minimize take: one spec file plus knobs. */
struct SpecCommand
{
    std::string path;
    Config base;
    bool expectFail = false; //!< replay --expect-fail
    std::string outPath;     //!< minimize --out
};

SpecCommand
parseSpecCommand(const std::string &cmd, int argc, char **argv)
{
    SpecCommand c;
    bool verbose = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("'" + arg + "' needs a value");
            return argv[++i];
        };
        if (arg == "--expect-fail" && cmd == "replay")
            c.expectFail = true;
        else if (arg == "--out" && cmd == "minimize")
            c.outPath = next();
        else if (arg == "--param")
            addParam(c.base, next());
        else if (arg == "--verbose")
            verbose = true;
        else if (!arg.empty() && arg[0] != '-')
            c.path = arg;
        else
            usageError("unknown " + cmd + " flag '" + arg + "'");
    }
    if (c.path.empty())
        usageError(cmd + " needs a spec file");
    if (!verbose)
        setLogLevel(LogLevel::Quiet);
    return c;
}

int
cmdReplay(int argc, char **argv)
{
    SpecCommand c = parseSpecCommand("replay", argc, argv);
    chaos::CampaignRow row =
        chaos::replaySchedule(loadSchedule(c.path), c.base);
    printRow(row);
    bool caught = row.judgement.fail();
    if (c.expectFail) {
        std::fprintf(stderr,
                     caught ? "[chaos] reproducer still caught\n"
                            : "[chaos] reproducer NO LONGER FAILS\n");
        return caught ? 0 : 1;
    }
    return row.judgement.pass() ? 0 : 1;
}

int
cmdMinimize(int argc, char **argv)
{
    SpecCommand c = parseSpecCommand("minimize", argc, argv);
    chaos::ChaosSchedule sched = loadSchedule(c.path);
    Config golden_cfg = sched.toConfig(c.base);
    golden_cfg.run.faults.clear();
    RunResult golden = runExperiment(golden_cfg);

    if (!chaos::judge(golden, runExperiment(sched.toConfig(c.base)))
             .fail()) {
        std::fprintf(stderr,
                     "tmi-chaos: '%s' does not fail; nothing to "
                     "minimize\n",
                     c.path.c_str());
        return 1;
    }

    chaos::CampaignOutcome::Reproducer repro =
        chaos::minimizeFailure(sched, golden, c.base);
    std::fprintf(stderr,
                 "[chaos] minimized %zu -> %zu events in %u probes\n",
                 repro.stats.originalEvents, repro.stats.minimizedEvents,
                 repro.stats.probes);
    std::string text = chaos::writeScheduleSpec(repro.minimized);
    if (c.outPath.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream os(c.outPath);
        if (!os)
            usageError("cannot write '" + c.outPath + "'");
        os << text;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usageError("need a subcommand: campaign, replay, minimize, "
                   "or --list-fault-points");
    }
    std::string cmd = argv[1];
    if (cmd == "--list-fault-points") {
        driver::printFaultPoints();
        return 0;
    }
    if (cmd == "campaign")
        return cmdCampaign(argc - 2, argv + 2);
    if (cmd == "replay")
        return cmdReplay(argc - 2, argv + 2);
    if (cmd == "minimize")
        return cmdMinimize(argc - 2, argv + 2);
    usageError("unknown subcommand '" + cmd + "'");
}
