/**
 * @file
 * tmi-sweep: run a whole experiment matrix in one command.
 *
 * A sweep is a base configuration plus value lists for the evaluation
 * axes (workload x treatment x scale x period x fault-point x
 * fault-rate x seed). The matrix is expanded once, executed through
 * driver::runJobs with retries and per-job timeouts, and streamed as
 * the canonical sweep CSV (schema: scripts/check_sweep.py) in job-id
 * order -- the CSV is byte-identical for any --workers value.
 *
 * Usage:
 *   tmi-sweep --workloads histogramfs,counterarray \
 *       --treatments pthreads,tmi-protect [--scales 2,4] \
 *       [--placements default,pack,arena,isolate] \
 *       [--periods 100,1000] [--seeds 1,2,3] \
 *       [--fault-points mem.frame_exhausted] \
 *       [--fault-rates 0,0.1,0.5] \
 *       [--threads N] [--budget N] [--param key=value]... \
 *       [--plan-in plan.txt] [--spec sweep.conf] [--dry-run] \
 *       [--family NAME] [--list-workloads] [--list-treatments] \
 *       [--list-fault-points] [orchestration flags]
 *
 * The orchestration flags (--workers ... --kill-budget) are the run,
 * output and sharding flags shared with `tmi-chaos campaign`; see
 * driver/cli.hh.
 *
 * --plan-in loads a saved huron-static layout plan into the base
 * config: every huron-static cell replays it directly instead of
 * profiling first (other treatments ignore it).
 *
 * --spec reads the same keys from a key=value file (one per line,
 * #-comments); flags apply after the file, appending to axis lists.
 * A --workloads item of the form family:NAME expands to every
 * workload tagged with that family; --param appends one typed
 * workload knob (validated against each workload's schema).
 * --family NAME restricts --list-workloads to one family (give it
 * before --list-workloads; flags apply in order). CSV goes to stdout
 * unless --csv is given; progress and the summary go to stderr.
 *
 * --journal-dir turns on crash-safe orchestration: the matrix is
 * split over --shards worker *processes*, every result is journaled
 * before it counts, a crashing job is retried and then quarantined
 * (status=poisoned) instead of killing the campaign, and a killed
 * run continues with --resume -- the merged CSV is byte-identical
 * to an uninterrupted run. Numeric values are strict: a negative,
 * overflowing or non-numeric one is a usage error naming the flag.
 * Exit status: 0 = every job ok, 1 = some job failed, timed out or
 * was quarantined, 2 = usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "driver/cli.hh"

using namespace tmi;

namespace
{

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "tmi-sweep: %s\n", message.c_str());
    std::exit(2);
}

/** The spec key an axis/base flag sets, in spec-file spelling
 *  ("--fault-points" -> "fault_points"); "" for any other flag. */
std::string
specKeyOf(const std::string &flag)
{
    static const char *const keys[] = {
        "workloads", "treatments", "placements", "scales", "periods",
        "fault_points", "fault_rates", "seeds", "threads", "budget",
        "param", "interval", "watchdog", "monitor"};
    if (flag.rfind("--", 0) != 0 ||
        flag.find('_') != std::string::npos) {
        return "";
    }
    std::string key = flag.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    for (const char *k : keys) {
        if (key == k)
            return key;
    }
    return "";
}

std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream is(path);
    if (!is)
        usageError("cannot read " + std::string{what} + " '" + path + "'");
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

} // namespace

int
main(int argc, char **argv)
{
    driver::OrchestrationFlags flags;
    std::vector<std::string> args;
    std::string err;
    if (!driver::parseOrchestrationFlags(argc - 1, argv + 1, flags, args,
                                         err)) {
        usageError(err);
    }

    driver::SweepSpec spec;
    bool dry_run = false;
    std::string family_filter; //!< --family for --list-workloads
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                usageError("'" + arg + "' needs a value");
            return args[++i];
        };
        if (std::string key = specKeyOf(arg); !key.empty()) {
            if (!driver::applySpecEntry(spec, key, next(), err))
                usageError(arg + ": " + err);
        } else if (arg == "--spec") {
            const std::string &path = next();
            if (!driver::parseSpecText(spec,
                                       readFile(path, "spec file"),
                                       err)) {
                usageError(path + ": " + err);
            }
        } else if (arg == "--plan-in") {
            spec.base.run.planIn = readFile(next(), "plan file");
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--family") {
            family_filter = next();
        } else if (arg == "--list-workloads") {
            return driver::printWorkloads(family_filter) ? 0 : 2;
        } else if (arg == "--list-treatments") {
            driver::printTreatments();
            return 0;
        } else if (arg == "--list-fault-points") {
            driver::printFaultPoints();
            return 0;
        } else {
            usageError("unknown flag '" + arg + "'");
        }
    }

    // Worker-thread inform() lines would interleave with the CSV
    // (and with each other) nondeterministically; quiet by default.
    if (!flags.verbose)
        setLogLevel(LogLevel::Quiet);

    std::vector<ConfigError> errors = spec.validate();
    if (!errors.empty()) {
        for (const ConfigError &e : errors) {
            std::fprintf(stderr, "tmi-sweep: %s: %s\n",
                         e.field.c_str(), e.message.c_str());
        }
        return 2;
    }

    if (dry_run) {
        // The expansion, one line per job, without running anything.
        for (const driver::Job &job : spec.expand()) {
            std::printf(
                "%llu %s %s scale=%llu period=%llu seed=%llu %s\n",
                static_cast<unsigned long long>(job.id),
                job.config.run.workload.c_str(),
                treatmentName(job.config.run.treatment),
                static_cast<unsigned long long>(job.config.run.scale),
                static_cast<unsigned long long>(
                    job.config.run.perfPeriod),
                static_cast<unsigned long long>(job.config.run.seed),
                job.scenario().c_str());
        }
        return 0;
    }

    // The path sink owns its FILE and fsyncs on checkpoint
    // boundaries: a killed orchestrator never leaves a torn row.
    auto sink =
        flags.csvPath.empty()
            ? std::make_unique<driver::SweepCsvSink>(std::cout)
            : std::make_unique<driver::SweepCsvSink>(
                  flags.csvPath, flags.shard.checkpointEvery);
    if (!sink->ok())
        usageError("cannot write '" + flags.csvPath + "'");

    driver::ShardRunStats run;
    try {
        run = driver::runJobs(spec.expand(), sink.get(), flags.shard);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tmi-sweep: %s\n", e.what());
        return 2;
    }
    sink->sync();

    driver::printShardSummary("sweep", run);
    const driver::SweepStats &stats = run.sweep;
    std::fprintf(
        stderr,
        "[sweep] %llu jobs: %llu ok, %llu failed, %llu "
        "timed out, %llu cancelled, %llu poisoned; %llu retries; "
        "%.1fs\n",
        static_cast<unsigned long long>(stats.total),
        static_cast<unsigned long long>(stats.ok),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.timedOut),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.poisoned),
        static_cast<unsigned long long>(stats.retries),
        stats.wallSeconds);
    if (stats.ok != stats.total) {
        std::fprintf(
            stderr,
            "[sweep] FAILED: %llu of %llu job(s) did not finish ok"
            " (%llu quarantined as poison, %llu worker crash(es))\n",
            static_cast<unsigned long long>(stats.total - stats.ok),
            static_cast<unsigned long long>(stats.total),
            static_cast<unsigned long long>(stats.poisoned),
            static_cast<unsigned long long>(run.crashes));
        return 1;
    }
    return 0;
}
