/**
 * @file
 * Cycle-identity golden: pins the simulated makespan, true HITM
 * count, mem-op count, PTSB commits and racy-merge bytes for a small
 * workload x treatment (x page size) matrix.
 *
 * The pinned values were recorded at the commit immediately before
 * the AccessPipeline hot-path refactor; the htm-elide, huron-static,
 * sheriff-detect, tmi-protect-no-ccc and feed-spsc cells at the
 * commit before the translation cache took serviced private frames;
 * the sheriff-protect spinlockpool, shptr-lock, 2 MB-page and
 * feed-spmc cells, and every cell's PTSB commit and conflict-byte
 * counts, at the commit before the PTSB diffed only written lines.
 * Any change to these numbers
 * means the refactor altered simulated behaviour -- the event stream
 * (cycles, HITM counts, stats) is the contract; host-time wins must
 * never move it.
 *
 * Regenerating (only legitimate after an *intentional* model change):
 *   TMI_GOLDEN_DUMP=1 ./build/tests/integration_cycle_identity_test |
 *     grep '^{' > tests/integration/cycle_identity_golden.inc
 */

#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace tmi
{
namespace
{

/** One cell of the matrix to run. */
struct MatrixCell
{
    const char *workload;
    const char *treatment;
    unsigned pageShift;
};

/** One cell's pinned outputs. */
struct GoldenCell
{
    const char *workload;
    const char *treatment;
    unsigned pageShift;
    std::uint64_t cycles;
    std::uint64_t hitmEvents;
    std::uint64_t memOps;
    std::uint64_t commits;
    std::uint64_t conflictBytes;
};

/** The matrix to run: every translation/hook flavour the access path
 *  has -- plain, manual fix, Tmi rungs (COW + CCC bypass, and COW
 *  without CCC), Sheriff (atomics buffered; detect-only too),
 *  PTSB-everywhere (heavy COW/commit churn), LASER (interception
 *  armed), lock elision (txn conflict tracking and rollback), static
 *  layout repair (segment redirect), the server feeds, the densest
 *  commit-per-operation cells, and 2 MB pages (the PTSB's 4 KB
 *  memcmp pre-filter). */
constexpr MatrixCell matrix[] = {
    {"histogramfs", "pthreads", smallPageShift},
    {"histogramfs", "manual", smallPageShift},
    {"histogramfs", "tmi-alloc", smallPageShift},
    {"histogramfs", "tmi-detect", smallPageShift},
    {"histogramfs", "tmi-protect", smallPageShift},
    {"histogramfs", "sheriff-protect", smallPageShift},
    {"histogramfs", "ptsb-everywhere", smallPageShift},
    {"histogramfs", "laser", smallPageShift},
    {"lreg", "pthreads", smallPageShift},
    {"lreg", "tmi-protect", smallPageShift},
    {"lreg", "laser", smallPageShift},
    {"spinlockpool", "pthreads", smallPageShift},
    {"spinlockpool", "tmi-protect", smallPageShift},
    {"streamcluster", "pthreads", smallPageShift},
    {"streamcluster", "tmi-protect", smallPageShift},
    {"streamcluster", "laser", smallPageShift},
    {"lu-ncb", "pthreads", smallPageShift},
    {"spinlockpool", "htm-elide", smallPageShift},
    {"histogramfs", "huron-static", smallPageShift},
    {"histogramfs", "sheriff-detect", smallPageShift},
    {"histogramfs", "tmi-protect-no-ccc", smallPageShift},
    {"feed-spsc", "tmi-protect", smallPageShift},
    {"spinlockpool", "sheriff-protect", smallPageShift},
    {"shptr-lock", "tmi-protect", smallPageShift},
    {"histogramfs", "tmi-protect", hugePageShift},
    {"feed-spmc", "tmi-protect", smallPageShift},
};

constexpr GoldenCell golden[] = {
#include "cycle_identity_golden.inc"
};

RunResult
runCell(const char *workload, const char *treatment, unsigned page_shift)
{
    const Treatment *t = tryParseTreatment(treatment);
    if (!t)
        ADD_FAILURE() << "unknown treatment " << treatment;
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.treatment = t ? *t : Treatment::Pthreads;
    cfg.threads = 4;
    cfg.scale = 1;
    cfg.pageShift = page_shift;
    cfg.analysisInterval = 500'000;
    cfg.budget = 60'000'000'000ULL;
    return runExperiment(cfg);
}

TEST(CycleIdentity, MatrixMatchesGolden)
{
    if (std::getenv("TMI_GOLDEN_DUMP")) {
        for (const MatrixCell &cell : matrix) {
            RunResult res =
                runCell(cell.workload, cell.treatment, cell.pageShift);
            std::printf("{\"%s\", \"%s\", %u, %lluULL, %lluULL, "
                        "%lluULL, %lluULL, %lluULL},\n",
                        cell.workload, cell.treatment, cell.pageShift,
                        static_cast<unsigned long long>(res.cycles),
                        static_cast<unsigned long long>(
                            res.hitmEvents),
                        static_cast<unsigned long long>(res.memOps),
                        static_cast<unsigned long long>(res.commits),
                        static_cast<unsigned long long>(
                            res.conflictBytes));
        }
        return;
    }

    ASSERT_EQ(std::size(golden), std::size(matrix))
        << "golden table out of sync with the matrix; regenerate "
           "cycle_identity_golden.inc (see file header)";
    for (const GoldenCell &cell : golden) {
        RunResult res =
            runCell(cell.workload, cell.treatment, cell.pageShift);
        SCOPED_TRACE(std::string(cell.workload) + " x " +
                     cell.treatment + " @ pageShift " +
                     std::to_string(cell.pageShift));
        EXPECT_TRUE(res.compatible);
        EXPECT_EQ(res.cycles, cell.cycles);
        EXPECT_EQ(res.hitmEvents, cell.hitmEvents);
        EXPECT_EQ(res.memOps, cell.memOps);
        EXPECT_EQ(res.commits, cell.commits);
        EXPECT_EQ(res.conflictBytes, cell.conflictBytes);
    }
}

} // namespace
} // namespace tmi
