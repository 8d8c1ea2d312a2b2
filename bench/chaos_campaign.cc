/**
 * @file
 * The acceptance chaos campaign: generated fault schedules per cell,
 * judged by the differential end-state oracle, over two families:
 *
 *  - batch: the false-sharing workload set (histogramfs, lreg,
 *    stringmatch, lu-ncb) under the three repairing treatments
 *    (tmi-protect, sheriff-protect, laser), 64 schedules per cell;
 *  - server: the long-running stateful feed handlers (feed-spsc,
 *    feed-spmc) with typed workload params under tmi-protect and
 *    laser (sheriff-protect cannot validate the ring atomics),
 *    16 schedules per cell.
 *
 * The claims under test:
 *
 *  - every surviving run converges to the fault-free end state
 *    (digest match), whatever rung the ladder landed on;
 *  - the campaign is deterministic: the CSV from this binary is
 *    byte-identical for any TMI_BENCH_WORKERS value (re-run with 1
 *    and 4 workers and `cmp` the files);
 *  - failures, if any ever appear, come out as minimized replayable
 *    reproducer specs instead of a seed number and a shrug.
 *
 * Env knobs: TMI_BENCH_SCALE (default 2), TMI_BENCH_WORKERS,
 * TMI_CHAOS_SCHEDULES (default 64), TMI_CHAOS_SERVER_SCHEDULES
 * (default 16), TMI_CHAOS_SEED (default 1), TMI_CHAOS_SHARDS
 * (worker processes; only with --journal-dir).
 * Usage: chaos_campaign [--csv out.csv] [--repro-dir DIR]
 *                       [--journal-dir DIR] [--resume]
 *
 * The server campaign writes its CSV next to the batch one as
 * "<out.csv>.server" (or to stdout after the batch CSV when no
 * --csv was given); with --journal-dir its journals live in
 * "<DIR>-server" so the two manifests never collide.
 *
 * --journal-dir runs the campaigns on the crash-safe shard
 * supervisor: results are journaled as they land, a killed run
 * continues with --resume, and the CSV is byte-identical to the
 * in-process campaign's.
 */

#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "chaos/campaign.hh"

using namespace tmi;
using namespace tmi::bench;

namespace
{

/** Run one campaign (sharded when opts.journalDir is set) with its
 *  CSV in @p csvPath (stdout when empty); false when unclean. */
bool
runOne(const char *tag, const chaos::CampaignSpec &spec,
       const driver::ShardOptions &opts, const std::string &csvPath,
       const std::string &reproDir)
{
    std::ofstream csv_file;
    if (!csvPath.empty()) {
        csv_file.open(csvPath);
        if (!csv_file) {
            std::fprintf(stderr, "cannot write '%s'\n", csvPath.c_str());
            return false;
        }
    }
    std::ostream &os = csvPath.empty() ? std::cout : csv_file;

    chaos::CampaignOutcome outcome;
    driver::ShardRunStats stats;
    try {
        outcome = chaos::runCampaign(spec, opts, &os, &stats);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "chaos_campaign: %s: %s\n", tag, e.what());
        return false;
    }
    return chaos::reportCampaign(tag, spec, outcome, stats, reproDir);
}

} // namespace

int
main(int argc, char **argv)
{
    driver::ShardOptions opts;
    opts.runner.workers = benchWorkers();
    opts.shards = static_cast<unsigned>(envU64("TMI_CHAOS_SHARDS", 2));
    std::string csv_path, repro_dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--csv" && i + 1 < argc) {
            csv_path = argv[++i];
        } else if (arg == "--repro-dir" && i + 1 < argc) {
            repro_dir = argv[++i];
        } else if (arg == "--journal-dir" && i + 1 < argc) {
            opts.journalDir = argv[++i];
        } else if (arg == "--resume") {
            opts.resume = true;
        } else {
            std::fprintf(stderr,
                         "usage: chaos_campaign [--csv out.csv] "
                         "[--repro-dir DIR] [--journal-dir DIR] "
                         "[--resume]\n");
            return 2;
        }
    }
    setLogLevel(LogLevel::Quiet);

    chaos::CampaignSpec batch;
    batch.base.run = benchConfig("histogramfs", Treatment::TmiProtect,
                                 benchScale(2));
    // The FS set minus the atomics-reliant cells Sheriff/LASER
    // cannot validate anyway is still >= 4 workloads; use the
    // digest-bearing Phoenix/Splash subset for apples-to-apples
    // judging across all three treatments.
    batch.workloads = {"histogramfs", "lreg", "stringmatch",
                       "lu-ncb"};
    batch.treatments = {Treatment::TmiProtect,
                        Treatment::SheriffProtect, Treatment::Laser};
    batch.schedules = envU64("TMI_CHAOS_SCHEDULES", 64);
    batch.campaignSeed = envU64("TMI_CHAOS_SEED", 1);

    // The server family keeps per-request state alive across the
    // whole run, so fault recovery is judged against a stateful
    // end-state digest, not a one-shot reduction. Sheriff-protect is
    // out: it cannot validate the SPSC/MPMC ring atomics.
    chaos::CampaignSpec server;
    server.base.run = benchConfig("feed-spsc", Treatment::TmiProtect,
                                  benchScale(2));
    server.base.run.params = {{"requests", "256"},
                              {"stat_rounds", "4"},
                              {"burst", "4"}};
    server.workloads = {"feed-spsc", "feed-spmc"};
    server.treatments = {Treatment::TmiProtect, Treatment::Laser};
    server.schedules = envU64("TMI_CHAOS_SERVER_SCHEDULES", 16);
    server.campaignSeed = envU64("TMI_CHAOS_SEED", 1);

    driver::ShardOptions server_opts = opts;
    if (!opts.journalDir.empty())
        server_opts.journalDir += "-server";
    bool ok = runOne("chaos:batch", batch, opts, csv_path, repro_dir);
    ok = runOne("chaos:server", server, server_opts,
                csv_path.empty() ? "" : csv_path + ".server",
                repro_dir) &&
         ok;
    return ok ? 0 : 1;
}
