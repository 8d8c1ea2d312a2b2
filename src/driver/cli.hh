/**
 * @file
 * The command-line surface the driver front-ends share.
 *
 * tmi-sweep and `tmi-chaos campaign` take the same 11 orchestration
 * flags, parsed here once into a ShardOptions for driver::runJobs:
 *
 *  - run:      --workers N, --retries N (N+1 attempts), --timeout-ms N
 *  - output:   --csv PATH, --no-progress, --verbose
 *  - sharding: --journal-dir DIR, --shards N, --resume,
 *              --checkpoint-every K, --kill-budget N
 *
 * Numeric values are strict (common/parse.hh). The --list-* printers
 * are shared here too.
 */

#ifndef TMI_DRIVER_CLI_HH
#define TMI_DRIVER_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/supervisor.hh"

namespace tmi::driver
{

/** @name Strict numeric flag values
 *  False + @p err ("FLAG: expected an integer in [LO, HI], got
 *  'TEXT'") unless @p text is a number in range. */
/// @{
bool parseFlagValue(const std::string &flag, const std::string &text,
                    std::uint64_t &out, std::string &err,
                    std::uint64_t max = UINT64_MAX);
bool parseFlagValue(const std::string &flag, const std::string &text,
                    unsigned &out, std::string &err);
/** parseInt: -1 keeps the default (--watchdog, --monitor). */
bool parseFlagValue(const std::string &flag, const std::string &text,
                    int &out, std::string &err);
/// @}

/** The orchestration flags, parsed. */
struct OrchestrationFlags
{
    /** How and where the jobs run (hand it to runJobs/runCampaign). */
    ShardOptions shard;
    /** --csv; empty = the CSV goes to stdout. */
    std::string csvPath;
    /** --verbose: keep inform()/warn() lines. */
    bool verbose = false;
};

/**
 * Take the orchestration flags out of @p argv; every other argument
 * is appended to @p rest in order, for the front-end's own flags.
 * Defaults: 1 worker, progress on (off when the CSV goes to stdout,
 * which the \r progress line would interleave with), kill budget 2,
 * checkpoint every 16. False + @p err on a missing or bad value, or
 * on a sharding flag given without --journal-dir.
 */
bool parseOrchestrationFlags(int argc, char **argv,
                             OrchestrationFlags &out,
                             std::vector<std::string> &rest,
                             std::string &err);

/** The "[TAG] N shard(s): ..." stderr line for a sharded run; no-op
 *  for an in-process one (stats.shards == 0). */
void printShardSummary(const char *tag, const ShardRunStats &stats);

/** @name The --list-* printers (stdout) */
/// @{
void printTreatments();
void printFaultPoints();
/** Workload table with each workload's --param schema; @p family
 *  ("" = all) filters it. False, with the known families on stderr,
 *  when @p family names no workload. */
bool printWorkloads(const std::string &family);
/// @}

} // namespace tmi::driver

#endif // TMI_DRIVER_CLI_HH
