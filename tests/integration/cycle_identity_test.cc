/**
 * @file
 * Cycle-identity golden: pins the simulated makespan, true HITM
 * count, and mem-op count for a small workload x treatment matrix.
 *
 * The pinned values were recorded at the commit immediately before
 * the AccessPipeline hot-path refactor; the htm-elide, huron-static,
 * sheriff-detect, tmi-protect-no-ccc and feed-spsc cells at the
 * commit before the translation cache took serviced private frames.
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

struct GoldenCell
{
    const char *workload;
    const char *treatment;
    std::uint64_t cycles;
    std::uint64_t hitmEvents;
    std::uint64_t memOps;
};

/** The matrix to run: every translation/hook flavour the access path
 *  has -- plain, manual fix, Tmi rungs (COW + CCC bypass, and COW
 *  without CCC), Sheriff (atomics buffered; detect-only too),
 *  PTSB-everywhere (heavy COW/commit churn), LASER (interception
 *  armed), lock elision (txn conflict tracking and rollback), static
 *  layout repair (segment redirect), and a server feed. */
constexpr GoldenCell matrix[] = {
    {"histogramfs", "pthreads", 0, 0, 0},
    {"histogramfs", "manual", 0, 0, 0},
    {"histogramfs", "tmi-alloc", 0, 0, 0},
    {"histogramfs", "tmi-detect", 0, 0, 0},
    {"histogramfs", "tmi-protect", 0, 0, 0},
    {"histogramfs", "sheriff-protect", 0, 0, 0},
    {"histogramfs", "ptsb-everywhere", 0, 0, 0},
    {"histogramfs", "laser", 0, 0, 0},
    {"lreg", "pthreads", 0, 0, 0},
    {"lreg", "tmi-protect", 0, 0, 0},
    {"lreg", "laser", 0, 0, 0},
    {"spinlockpool", "pthreads", 0, 0, 0},
    {"spinlockpool", "tmi-protect", 0, 0, 0},
    {"streamcluster", "pthreads", 0, 0, 0},
    {"streamcluster", "tmi-protect", 0, 0, 0},
    {"streamcluster", "laser", 0, 0, 0},
    {"lu-ncb", "pthreads", 0, 0, 0},
    {"spinlockpool", "htm-elide", 0, 0, 0},
    {"histogramfs", "huron-static", 0, 0, 0},
    {"histogramfs", "sheriff-detect", 0, 0, 0},
    {"histogramfs", "tmi-protect-no-ccc", 0, 0, 0},
    {"feed-spsc", "tmi-protect", 0, 0, 0},
};

constexpr GoldenCell golden[] = {
#include "cycle_identity_golden.inc"
};

RunResult
runCell(const char *workload, const char *treatment)
{
    const Treatment *t = tryParseTreatment(treatment);
    if (!t)
        ADD_FAILURE() << "unknown treatment " << treatment;
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.treatment = t ? *t : Treatment::Pthreads;
    cfg.threads = 4;
    cfg.scale = 1;
    cfg.analysisInterval = 500'000;
    cfg.budget = 60'000'000'000ULL;
    return runExperiment(cfg);
}

TEST(CycleIdentity, MatrixMatchesGolden)
{
    if (std::getenv("TMI_GOLDEN_DUMP")) {
        for (const GoldenCell &cell : matrix) {
            RunResult res = runCell(cell.workload, cell.treatment);
            std::printf("{\"%s\", \"%s\", %lluULL, %lluULL, "
                        "%lluULL},\n",
                        cell.workload, cell.treatment,
                        static_cast<unsigned long long>(res.cycles),
                        static_cast<unsigned long long>(
                            res.hitmEvents),
                        static_cast<unsigned long long>(res.memOps));
        }
        return;
    }

    ASSERT_EQ(std::size(golden), std::size(matrix))
        << "golden table out of sync with the matrix; regenerate "
           "cycle_identity_golden.inc (see file header)";
    for (const GoldenCell &cell : golden) {
        RunResult res = runCell(cell.workload, cell.treatment);
        SCOPED_TRACE(std::string(cell.workload) + " x " +
                     cell.treatment);
        EXPECT_TRUE(res.compatible);
        EXPECT_EQ(res.cycles, cell.cycles);
        EXPECT_EQ(res.hitmEvents, cell.hitmEvents);
        EXPECT_EQ(res.memOps, cell.memOps);
    }
}

} // namespace
} // namespace tmi
