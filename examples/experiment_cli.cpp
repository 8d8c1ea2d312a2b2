/**
 * @file
 * General-purpose experiment CLI: run any (workload x treatment)
 * cell of the evaluation matrix with full control over the knobs,
 * and export what happened -- component statistics, a Chrome trace
 * of the run, a CSV time series, or a human-readable report.
 *
 * Usage:
 *   experiment_cli --workload leveldb --treatment tmi-protect \
 *       [--threads 4] [--scale 4] [--period 100] [--huge-pages]
 *       [--threshold 100000] [--interval 2000000] [--seed 42]
 *       [--budget N] [--glibc-allocator] [--stats]
 *       [--placement default|pack|arena|isolate]
 *       [--param key=value]... [--family NAME]
 *       [--list-workloads] [--list-treatments] [--list-fault-points]
 *       [--fault point:SPEC]... [--fault-seed N]
 *       [--watchdog 0|1] [--monitor 0|1] [--watchdog-timeout N]
 *       [--trace] [--ring N] [--trace-out run.json]
 *       [--trace-csv run.csv] [--report] [--csv-out row.csv]
 *       [--plan-in plan.txt] [--plan-out plan.txt]
 *
 * Fault SPECs: always | once | once=N | p=0.5 | every=N.
 *
 * --plan-in / --plan-out serve the huron-static treatment: --plan-out
 * saves the layout plan the profiling phase synthesized, --plan-in
 * replays a saved plan directly (profiling is skipped). Together they
 * split the offline pipeline across invocations, which is what lets
 * CI pin a golden plan.
 *
 * --trace-out writes Chrome trace_event JSON: load it in
 * chrome://tracing or https://ui.perfetto.dev to scrub through the
 * detect -> repair -> fault -> ladder-drop timeline.
 *
 * --param passes one typed workload knob (repeatable); run
 * --list-workloads to see each workload's schema (knob names, types,
 * defaults). --family NAME restricts --list-workloads to one family;
 * give it before --list-workloads (flags apply in order).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/config.hh"
#include "driver/cli.hh"
#include "obs/export.hh"
#include "workloads/workload.hh"

using namespace tmi;

namespace
{

Treatment
parseTreatment(const std::string &name)
{
    if (const Treatment *t = tryParseTreatment(name))
        return *t;
    std::fprintf(stderr, "unknown treatment '%s'; one of:\n",
                 name.c_str());
    for (Treatment t : allTreatments())
        std::fprintf(stderr, "  %s\n", treatmentName(t));
    std::exit(2);
}

/** Parse "point:SPEC" (SPEC: always|once|once=N|p=0.5|every=N). */
std::pair<std::string, FaultSpec>
parseFault(const std::string &arg)
{
    auto colon = arg.find(':');
    if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr,
                     "--fault wants point:SPEC, got '%s'\n",
                     arg.c_str());
        std::exit(2);
    }
    std::string point = arg.substr(0, colon);
    std::string spec = arg.substr(colon + 1);
    if (spec == "always")
        return {point, FaultSpec::always()};
    if (spec == "once")
        return {point, FaultSpec::once()};
    if (spec.rfind("once=", 0) == 0) {
        return {point, FaultSpec::once(std::strtoull(
                           spec.c_str() + 5, nullptr, 10))};
    }
    if (spec.rfind("p=", 0) == 0) {
        return {point, FaultSpec::withProbability(
                           std::atof(spec.c_str() + 2))};
    }
    if (spec.rfind("every=", 0) == 0) {
        FaultSpec s;
        s.everyNth = std::strtoull(spec.c_str() + 6, nullptr, 10);
        return {point, s};
    }
    std::fprintf(stderr,
                 "bad fault SPEC '%s'; one of always, once, once=N, "
                 "p=0.5, every=N\n",
                 spec.c_str());
    std::exit(2);
}

/** Open @p path for writing or die. */
std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        std::exit(2);
    }
    return os;
}

/** Slurp @p path or die. */
std::string
readAll(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentBuilder builder = Experiment::builder();
    builder.workload("histogramfs");
    bool stats = false;
    bool report = false;
    std::string trace_out, trace_csv, csv_out;
    std::string plan_out;
    std::string family_filter;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            builder.workload(next());
        } else if (arg == "--treatment") {
            builder.treatment(parseTreatment(next()));
        } else if (arg == "--threads") {
            builder.threads(static_cast<unsigned>(std::atoi(next())));
        } else if (arg == "--scale") {
            builder.scale(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--period") {
            builder.perfPeriod(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--threshold") {
            builder.repairThreshold(std::atof(next()));
        } else if (arg == "--interval") {
            builder.analysisInterval(
                std::strtoull(next(), nullptr, 10));
        } else if (arg == "--seed") {
            builder.seed(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--budget") {
            builder.budget(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--param") {
            std::pair<std::string, std::string> kv;
            std::string perr;
            if (!parseParamAssignment(next(), kv, perr)) {
                std::fprintf(stderr, "--param: %s\n", perr.c_str());
                return 2;
            }
            builder.param(kv.first, kv.second);
        } else if (arg == "--family") {
            family_filter = next();
        } else if (arg == "--huge-pages") {
            builder.pageShift(hugePageShift);
        } else if (arg == "--glibc-allocator") {
            builder.allocator(AllocatorKind::GlibcLike);
        } else if (arg == "--placement") {
            std::string name = next();
            const PlacementPolicy *p = tryParsePlacement(name);
            if (!p) {
                std::fprintf(stderr,
                             "unknown placement '%s'; one of:\n",
                             name.c_str());
                for (PlacementPolicy pp : allPlacements())
                    std::fprintf(stderr, "  %s\n", placementName(pp));
                return 2;
            }
            builder.placement(*p);
        } else if (arg == "--fault") {
            auto [point, spec] = parseFault(next());
            builder.fault(point, spec);
        } else if (arg == "--fault-seed") {
            builder.faultSeed(std::strtoull(next(), nullptr, 10));
        } else if (arg == "--watchdog") {
            builder.watchdog(std::atoi(next()));
        } else if (arg == "--monitor") {
            builder.monitor(std::atoi(next()));
        } else if (arg == "--watchdog-timeout") {
            builder.watchdogTimeout(
                std::strtoull(next(), nullptr, 10));
        } else if (arg == "--trace") {
            builder.trace(true);
        } else if (arg == "--ring") {
            obs::TraceConfig tc;
            tc.enabled = true;
            tc.ringCapacity = std::strtoull(next(), nullptr, 10);
            builder.trace(tc);
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--trace-csv") {
            trace_csv = next();
        } else if (arg == "--csv-out") {
            csv_out = next();
        } else if (arg == "--plan-in") {
            builder.planIn(readAll(next()));
        } else if (arg == "--plan-out") {
            plan_out = next();
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--list" || arg == "--list-workloads") {
            return driver::printWorkloads(family_filter) ? 0 : 2;
        } else if (arg == "--list-treatments") {
            driver::printTreatments();
            return 0;
        } else if (arg == "--list-fault-points") {
            driver::printFaultPoints();
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return 2;
        }
    }
    builder.dumpStats(stats);
    // Any trace consumer implies recording.
    if (!trace_out.empty() || !trace_csv.empty() || report)
        builder.trace(true);

    Config cfg = builder.build();
    double cps = cfg.machine.cyclesPerSecond;
    RunResult res = runExperiment(cfg);

    std::printf("workload      : %s\n", res.workload.c_str());
    std::printf("treatment     : %s\n", treatmentName(res.treatment));
    std::printf("outcome       : %s%s\n",
                res.outcome == RunOutcome::Completed ? "completed"
                : res.outcome == RunOutcome::Timeout ? "TIMEOUT"
                                                     : "DEADLOCK",
                res.compatible       ? " (valid)"
                : res.outcome == RunOutcome::Completed
                    ? " (INVALID RESULT)"
                    : "");
    std::printf("simulated time: %.3f ms (%llu cycles)\n",
                res.seconds * 1e3,
                static_cast<unsigned long long>(res.cycles));
    std::printf("memory ops    : %llu (%llu HITM, %llu PEBS "
                "records)\n",
                static_cast<unsigned long long>(res.memOps),
                static_cast<unsigned long long>(res.hitmEvents),
                static_cast<unsigned long long>(res.pebsRecords));
    std::printf("app memory    : %.2f MB peak (+%.2f MB runtime "
                "overhead)\n",
                res.appBytesPeak / 1048576.0,
                res.overheadBytes / 1048576.0);
    if (res.requests) {
        std::printf("sojourn       : %llu requests; p50 %.0f / p99 "
                    "%.0f / p999 %.0f cycles\n",
                    static_cast<unsigned long long>(res.requests),
                    res.sojournP50, res.sojournP99, res.sojournP999);
    }
    if (res.treatment == Treatment::HuronStatic) {
        std::printf("static plan   : %llu site(s), %llu applied, "
                    "%llu redirected, %llu bytes padding; profile "
                    "saw %llu HITM\n",
                    static_cast<unsigned long long>(res.planSites),
                    static_cast<unsigned long long>(
                        res.planAppliedSites),
                    static_cast<unsigned long long>(
                        res.planRedirectedSites),
                    static_cast<unsigned long long>(
                        res.planPaddingBytes),
                    static_cast<unsigned long long>(
                        res.planProfileHitms));
    }
    if (res.treatment == Treatment::HtmElide) {
        std::uint64_t tries = res.txnCommits + res.txnAborts;
        std::printf("htm           : %llu commits, %llu aborts "
                    "(%.1f%% abort rate), %llu lock fallbacks; "
                    "rung %s\n",
                    static_cast<unsigned long long>(res.txnCommits),
                    static_cast<unsigned long long>(res.txnAborts),
                    tries ? 100.0 * res.txnAborts / tries : 0.0,
                    static_cast<unsigned long long>(
                        res.txnFallbackLocks),
                    res.ladderRung.c_str());
    } else if (res.repairActive) {
        std::printf("repair        : engaged at %.3f ms; T2P %.1f us; "
                    "%llu pages; %llu commits (%.0f/s)\n",
                    res.repairStartCycles / (cps / 1e3),
                    res.t2pCycles / (cps / 1e6),
                    static_cast<unsigned long long>(
                        res.pagesProtected),
                    static_cast<unsigned long long>(res.commits),
                    res.commitsPerSec);
        if (res.conflictBytes) {
            std::printf("WARNING       : %llu racy-merge bytes -- the "
                        "PTSB raced with itself; results suspect\n",
                        static_cast<unsigned long long>(
                            res.conflictBytes));
        }
    }
    if (res.fsEventsEstimated || res.tsEventsEstimated) {
        std::printf("detector      : %.0f FS ev/s, %.0f TS ev/s "
                    "estimated\n",
                    res.fsEventsEstimated / res.seconds,
                    res.tsEventsEstimated / res.seconds);
    }
    if (cfg.run.trace.enabled) {
        std::printf("trace         : %llu events recorded, %llu lost "
                    "to ring wraparound\n",
                    static_cast<unsigned long long>(res.traceRecorded),
                    static_cast<unsigned long long>(
                        res.traceOverwritten));
    }

    if (!trace_out.empty()) {
        obs::ChromeTraceMeta meta;
        meta.cyclesPerSecond = cps;
        meta.processName = std::string(res.workload) + " / " +
                           treatmentName(res.treatment);
        std::ofstream os = openOut(trace_out);
        obs::writeChromeTrace(os, res.traceEvents, meta);
        std::printf("trace-out     : %s (%zu events; open in "
                    "ui.perfetto.dev)\n",
                    trace_out.c_str(), res.traceEvents.size());
    }
    if (!trace_csv.empty()) {
        std::ofstream os = openOut(trace_csv);
        obs::writeCsvTimeSeries(os, res.traceEvents, cps,
                                cfg.run.analysisInterval);
        std::printf("trace-csv     : %s (%llu-cycle windows)\n",
                    trace_csv.c_str(),
                    static_cast<unsigned long long>(
                        cfg.run.analysisInterval));
    }
    if (!csv_out.empty()) {
        std::ofstream os = openOut(csv_out);
        os << robustnessCsvHeader() << "\n"
           << robustnessCsvRow(res, "cli", 1.0) << "\n";
        std::printf("csv-out       : %s\n", csv_out.c_str());
    }
    if (!plan_out.empty()) {
        if (res.planText.empty()) {
            std::fprintf(stderr,
                         "--plan-out: no plan to save (treatment "
                         "'%s' does not synthesize one)\n",
                         treatmentName(res.treatment));
            return 2;
        }
        std::ofstream os = openOut(plan_out);
        os << res.planText;
        std::printf("plan-out      : %s (%llu site(s))\n",
                    plan_out.c_str(),
                    static_cast<unsigned long long>(res.planSites));
    }
    if (report) {
        std::printf("\n");
        obs::writeTraceReport(std::cout, res.traceEvents, cps);
    }
    if (stats)
        std::printf("\n%s", res.statsText.c_str());
    return res.compatible ? 0 : 1;
}
