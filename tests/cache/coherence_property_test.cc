/**
 * @file
 * Property tests: the MESI simulator must uphold its invariants
 * under arbitrary access interleavings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_sim.hh"
#include "common/rng.hh"

namespace tmi
{

namespace
{

AccessContext
randomCtx(Rng &rng, unsigned cores, unsigned lines)
{
    AccessContext c;
    c.core = static_cast<CoreId>(rng.below(cores));
    c.tid = c.core;
    c.paddr = rng.below(lines) * lineBytes + rng.below(8) * 8;
    c.vaddr = c.paddr;
    c.pc = 0x400000;
    c.width = 8;
    c.isWrite = rng.chance(0.4);
    return c;
}

} // namespace

/** Sweep over RNG seeds: SWMR and directory agreement always hold. */
class CoherenceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CoherenceProperty, SwmrHoldsUnderRandomTraffic)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    CacheConfig cfg;
    cfg.cores = 4;
    cfg.l1Sets = 8; // small caches force constant eviction
    cfg.l1Ways = 2;
    cfg.llcSets = 64;
    cfg.llcWays = 4;
    CacheSim cache(cfg);

    for (int i = 0; i < 20000; ++i) {
        cache.access(randomCtx(rng, cfg.cores, 64));
        if (i % 512 == 0)
            ASSERT_TRUE(cache.auditCoherence()) << "at access " << i;
    }
    EXPECT_TRUE(cache.auditCoherence());
}

TEST_P(CoherenceProperty, InvalidationsKeepInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
    CacheSim cache;
    for (int i = 0; i < 5000; ++i) {
        cache.access(randomCtx(rng, 4, 32));
        if (rng.chance(0.01))
            cache.invalidateLine(rng.below(32) * lineBytes);
        if (rng.chance(0.002)) {
            cache.invalidatePage(0, smallPageShift);
        }
        if (i % 256 == 0)
            ASSERT_TRUE(cache.auditCoherence());
    }
}

TEST_P(CoherenceProperty, LatenciesAlwaysSane)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    CacheConfig cfg;
    CacheSim cache(cfg);
    Cycles max_lat =
        std::max({cfg.hitmLatency, cfg.dramLatency,
                  cfg.cleanForwardLatency, cfg.upgradeLatency});
    for (int i = 0; i < 10000; ++i) {
        AccessResult res = cache.access(randomCtx(rng, 4, 128));
        EXPECT_GE(res.latency, cfg.l1HitLatency);
        EXPECT_LE(res.latency, max_lat);
        // HITM is only reported with the HITM latency.
        if (res.hitm)
            EXPECT_EQ(res.latency, cfg.hitmLatency);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(CoherenceAudit, CollidingLinesAtFullDirectoryLoad)
{
    // One L1 set per core: every line competes for the same ways.
    CacheConfig cfg;
    cfg.cores = 4;
    cfg.l1Sets = 1;
    cfg.l1Ways = 4;
    cfg.llcSets = 16;
    cfg.llcWays = 4;
    const unsigned l1_lines = cfg.cores * cfg.l1Sets * cfg.l1Ways;

    // Lines whose directory probes all start at slot 0 or 1, twice as
    // many as the L1s hold: every insert and erase walks one long
    // run, and each erase backward-shifts through it.
    CoherenceDirectory layout(l1_lines);
    std::vector<Addr> pool;
    for (Addr line = 0; pool.size() < 2 * l1_lines; ++line) {
        if (layout.home(line) <= 1)
            pool.push_back(line);
    }

    CacheSim cache(cfg);
    auto touch = [&](CoreId core, Addr line, bool write) {
        AccessContext ctx;
        ctx.core = core;
        ctx.tid = core;
        ctx.paddr = line * lineBytes;
        ctx.vaddr = ctx.paddr;
        ctx.pc = 0x400000;
        ctx.width = 8;
        ctx.isWrite = write;
        cache.access(ctx);
    };

    // Each core writes its own lines until every L1 way holds a
    // distinct Modified line: the directory is at its maximum load.
    for (CoreId c = 0; c < cfg.cores; ++c) {
        for (unsigned w = 0; w < cfg.l1Ways; ++w)
            touch(c, pool[c * cfg.l1Ways + w], true);
    }
    ASSERT_TRUE(cache.auditCoherence());

    // Evict and refill at that load: half the accesses write a line
    // of the core's own slice (keeping the L1s full of distinct
    // lines), the rest hit any line of the pool.
    Rng rng(29);
    const unsigned slice = static_cast<unsigned>(pool.size()) / cfg.cores;
    for (int i = 0; i < 20000; ++i) {
        auto core = static_cast<CoreId>(rng.below(cfg.cores));
        if (rng.chance(0.5)) {
            touch(core, pool[core * slice + rng.below(slice)], true);
        } else {
            touch(core, pool[rng.below(pool.size())], rng.chance(0.4));
        }
        ASSERT_TRUE(cache.auditCoherence()) << "at access " << i;
    }
}

TEST(CoherenceAudit, DetectsNothingOnFreshCache)
{
    CacheSim cache;
    EXPECT_TRUE(cache.auditCoherence());
}

TEST(CoherenceAudit, SingleOwnerAfterWriteStorm)
{
    // After many cores write the same line in turn, exactly the last
    // writer owns it.
    CacheSim cache;
    for (CoreId c = 0; c < 4; ++c) {
        AccessContext ctx;
        ctx.core = c;
        ctx.paddr = 0x40;
        ctx.vaddr = 0x40;
        ctx.pc = 0x400000;
        ctx.width = 8;
        ctx.isWrite = true;
        cache.access(ctx);
        ASSERT_TRUE(cache.auditCoherence());
    }
}

} // namespace tmi
