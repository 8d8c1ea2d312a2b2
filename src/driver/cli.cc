#include "cli.hh"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <iterator>

#include "common/parse.hh"
#include "fault/fault_injector.hh"
#include "workloads/workload.hh"

namespace tmi::driver
{

namespace
{

bool
badValue(const std::string &flag, const std::string &text,
         long long lo, unsigned long long hi, std::string &err)
{
    err = flag + ": expected an integer in [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "], got '" + text + "'";
    return false;
}

} // namespace

bool
parseFlagValue(const std::string &flag, const std::string &text,
               std::uint64_t &out, std::string &err, std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseU64(text, v) || v > max)
        return badValue(flag, text, 0, max, err);
    out = v;
    return true;
}

bool
parseFlagValue(const std::string &flag, const std::string &text,
               unsigned &out, std::string &err)
{
    std::uint64_t v = 0;
    if (!parseFlagValue(flag, text, v, err, UINT_MAX))
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

bool
parseFlagValue(const std::string &flag, const std::string &text,
               int &out, std::string &err)
{
    return parseInt(text, out) ||
           badValue(flag, text, -INT_MAX, INT_MAX, err);
}

bool
parseOrchestrationFlags(int argc, char **argv, OrchestrationFlags &out,
                        std::vector<std::string> &rest,
                        std::string &err)
{
    static const char *const valueFlags[] = {
        "--workers", "--retries", "--timeout-ms", "--csv",
        "--journal-dir", "--shards", "--checkpoint-every",
        "--kill-budget"};
    out = {};
    RunnerOptions &ro = out.shard.runner;
    ro.workers = 1;
    ro.progress = true;
    bool sharding = false; //!< a flag that needs --journal-dir

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--no-progress") {
            ro.progress = false;
        } else if (arg == "--verbose") {
            out.verbose = true;
        } else if (arg == "--resume") {
            out.shard.resume = sharding = true;
        } else if (std::find(std::begin(valueFlags),
                             std::end(valueFlags),
                             arg) == std::end(valueFlags)) {
            rest.push_back(arg);
        } else if (i + 1 >= argc) {
            err = "'" + arg + "' needs a value";
            return false;
        } else {
            const std::string v = argv[++i];
            if (arg == "--csv") {
                out.csvPath = v;
            } else if (arg == "--journal-dir") {
                out.shard.journalDir = v;
            } else if (arg == "--workers") {
                ok = parseFlagValue(arg, v, ro.workers, err);
            } else if (arg == "--retries") {
                std::uint64_t retries = 0; // N retries = N+1 attempts
                ok = parseFlagValue(arg, v, retries, err, UINT_MAX - 1);
                ro.maxAttempts = static_cast<unsigned>(retries) + 1;
            } else if (arg == "--timeout-ms") {
                std::uint64_t ms = 0;
                ok = parseFlagValue(arg, v, ms, err, INT64_MAX);
                ro.jobTimeout = std::chrono::milliseconds(ms);
            } else if (arg == "--shards") {
                ok = parseFlagValue(arg, v, out.shard.shards, err);
                sharding = true;
            } else if (arg == "--checkpoint-every") {
                ok = parseFlagValue(arg, v, out.shard.checkpointEvery,
                                    err);
                sharding = true;
            } else {
                ok = parseFlagValue(arg, v, out.shard.killBudget, err);
                sharding = true;
            }
        }
        if (!ok)
            return false;
    }

    if (sharding && out.shard.journalDir.empty()) {
        err = "--shards/--resume/--checkpoint-every/--kill-budget "
              "need --journal-dir";
        return false;
    }
    // Progress uses \r; keep it off a terminal that is also
    // receiving the CSV.
    if (out.csvPath.empty())
        ro.progress = false;
    return true;
}

void
printShardSummary(const char *tag, const ShardRunStats &stats)
{
    if (stats.shards == 0)
        return;
    std::fprintf(stderr,
                 "[%s] %llu shard(s): %llu crash(es), %llu respawn(s), "
                 "%llu poisoned, %llu job(s) resumed from journals\n",
                 tag, static_cast<unsigned long long>(stats.shards),
                 static_cast<unsigned long long>(stats.crashes),
                 static_cast<unsigned long long>(stats.respawns),
                 static_cast<unsigned long long>(stats.poisoned),
                 static_cast<unsigned long long>(stats.resumedJobs));
}

void
printTreatments()
{
    for (Treatment t : allTreatments())
        std::printf("%-18s %s\n", treatmentName(t),
                    treatmentDescription(t));
}

void
printFaultPoints()
{
    for (const FaultPointInfo &info : FaultInjector::allPoints())
        std::printf("%-26s %s\n", info.name, info.summary);
}

bool
printWorkloads(const std::string &family)
{
    bool any = false;
    for (const auto &info : workloadRegistry()) {
        if (!family.empty() && info.family != family)
            continue;
        if (!any) {
            std::printf("%-16s %-8s %-6s %-10s %s\n", "name",
                        "family", "fs?", "overhead?", "atomics/asm?");
        }
        any = true;
        std::printf("%-16s %-8s %-6s %-10s %s\n", info.name.c_str(),
                    info.family.c_str(),
                    info.knownFalseSharing ? "yes" : "-",
                    info.inOverheadSet ? "yes" : "-",
                    info.usesAtomicsOrAsm ? "yes" : "-");
        for (const ParamSpec &p : info.schema.specs()) {
            std::printf("    --param %-16s %-7s default=%-8s %s\n",
                        p.name.c_str(), paramTypeName(p.type),
                        p.defaultText().c_str(), p.desc.c_str());
        }
    }
    if (any)
        return true;
    std::fprintf(stderr, "no workloads in family '%s' (known:",
                 family.c_str());
    for (const std::string &f : workloadFamilies())
        std::fprintf(stderr, " %s", f.c_str());
    std::fprintf(stderr, ")\n");
    return false;
}

} // namespace tmi::driver
