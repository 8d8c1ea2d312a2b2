/**
 * @file
 * Differential test of Ptsb::commit against a full-page byte diff.
 *
 * Seeded random stores reach private frames through every path that
 * mutates frame bytes -- typed store(), a bulk write() that spans two
 * frames, and framePtr() -- on 4 KB and 2 MB pages, including stores
 * of an equal value and two PTSBs merging racing writes to the same
 * bytes. Every commit's CommitResult, the shared frames' bytes and
 * the order of invalidated lines must equal what the reference here
 * computes by diffing every byte of every dirty page against a twin
 * the test keeps itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "ptsb/ptsb.hh"

namespace tmi
{

namespace
{

using Bytes = std::vector<std::uint8_t>;

class CommitDiff : public ::testing::TestWithParam<unsigned>
{
  protected:
    static constexpr Addr vbase = 0x40000000;
    static constexpr std::uint64_t pages = 3;

    CommitDiff()
        : mmu(GetParam()), region("shm", mmu.phys()),
          pageBytes(mmu.pageBytes()), sharedRef(pages * pageBytes, 0)
    {
        region.grow(pages);
        for (ProcessId &pid : pids) {
            pid = mmu.createAddressSpace();
            mmu.mapShared(pid, vbase, region, 0, pages);
        }
        for (int p = 0; p < 2; ++p) {
            ptsbs[p] = std::make_unique<Ptsb>(mmu, pids[p], PtsbCosts{},
                                              &cache);
            for (std::uint64_t i = 0; i < pages; ++i)
                ptsbs[p]->protectPage(vpage(i));
        }
        mmu.setCowCallback([this](ProcessId pid, VPage vp, PPage shared,
                                  PPage priv) -> CowOutcome {
            return ptsbs[pid == pids[0] ? 0 : 1]->onCowFault(vp, shared,
                                                             priv);
        });
        cache.setInvalidateCallback(
            [this](Addr paddr) { invalidated.push_back(paddr); });
    }

    VPage vpage(std::uint64_t page) const
    {
        return (vbase >> mmu.pageShift()) + page;
    }

    PPage
    privateFrame(int p, std::uint64_t page)
    {
        return mmu.space(pids[p]).find(vpage(page))->privateFrame;
    }

    /** Write-fault @p page for process @p p if it is clean; the
     *  reference twin is the private frame's contents right after
     *  the COW copy. @return the private frame. */
    PPage
    dirty(int p, std::uint64_t page)
    {
        TranslateResult tr = mmu.translate(
            pids[p], vbase + page * pageBytes, /*is_write=*/true);
        EXPECT_FALSE(tr.cowAborted);
        PPage frame = tr.paddr >> mmu.pageShift();
        if (!twins[p].count(page)) {
            Bytes &twin = twins[p][page];
            twin.resize(pageBytes);
            mmu.phys().read(frame << mmu.pageShift(), twin.data(),
                            pageBytes);
            EXPECT_TRUE(std::equal(twin.begin(), twin.end(),
                                   sharedRef.begin() +
                                       page * pageBytes));
            privRef[p][page] = twin;
        }
        return frame;
    }

    /** A page offset: usually inside a small window both processes
     *  hit (racing bytes), else anywhere in the page. */
    Addr
    pickOffset(Addr span)
    {
        Addr limit = pageBytes - span;
        if (rng.chance(0.5))
            return rng.below(std::min<Addr>(limit, 256)) + 1000;
        return rng.below(limit + 1);
    }

    /** One random mutation of a private page through @p p. */
    void
    mutate(int p)
    {
        PhysicalMemory &phys = mmu.phys();
        std::uint64_t page = rng.below(pages);
        switch (rng.below(4)) {
          case 0:
          case 1: { // typed store, sometimes of the value already there
            unsigned width = 1u << rng.below(4);
            Addr off = pickOffset(width);
            PPage frame = dirty(p, page);
            Addr paddr = (frame << mmu.pageShift()) + off;
            std::uint64_t value = rng.next();
            if (rng.chance(0.3))
                value = phys.load(paddr, width);
            phys.store(paddr, value, width);
            for (unsigned i = 0; i < width; ++i)
                privRef[p][page][off + i] = value >> (8 * i);
            break;
          }
          case 2: { // bulk write across the end of one page
            if (page + 1 == pages || twins[p].count(page) ||
                twins[p].count(page + 1)) {
                return;
            }
            PPage first = dirty(p, page);
            PPage second = dirty(p, page + 1);
            // Consecutive COW faults take consecutive frame numbers,
            // so one physical write spans both private frames.
            ASSERT_EQ(second, first + 1);
            Addr head = rng.range(1, 200), tail = rng.range(1, 200);
            Bytes buf(head + tail);
            for (std::size_t i = 0; i < buf.size(); ++i)
                buf[i] = rng.chance(0.3) ? 0 : rng.next();
            phys.write(((first + 1) << mmu.pageShift()) - head,
                       buf.data(), buf.size());
            std::copy(buf.begin(), buf.begin() + head,
                      privRef[p][page].end() - head);
            std::copy(buf.begin() + head, buf.end(),
                      privRef[p][page + 1].begin());
            break;
          }
          case 3: { // raw bytes through framePtr
            PPage frame = dirty(p, page);
            std::uint8_t *data = phys.framePtr(frame);
            for (int n = 0; n < 8; ++n) {
                Addr off = pickOffset(1);
                std::uint8_t v =
                    rng.chance(0.3) ? data[off] : rng.next();
                data[off] = v;
                privRef[p][page][off] = v;
            }
            break;
          }
        }
    }

    /** Commit @p p and check it against the full-page reference. */
    void
    commitAndCheck(int p)
    {
        const PtsbCosts costs;
        const bool huge = pageBytes > smallPageBytes;
        CommitResult want;
        want.cost = twins[p].empty() ? 0 : costs.commitBase;
        std::map<PPage, std::vector<Addr>> want_lines; // by frame
        for (auto &[page, twin] : twins[p]) {
            ++want.pagesDiffed;
            const Bytes &priv = privRef[p][page];
            Bytes got_priv(pageBytes);
            mmu.phys().read(privateFrame(p, page) << mmu.pageShift(),
                            got_priv.data(), pageBytes);
            ASSERT_EQ(got_priv, priv) << "private page " << page;
            PPage shared_frame = region.frameFor(page);
            std::uint8_t *shared = &sharedRef[page * pageBytes];
            for (Addr base = 0; base < pageBytes; base += smallPageBytes) {
                bool chunk_changed = false;
                for (Addr off = base; off < base + smallPageBytes; ++off) {
                    if (priv[off] == twin[off])
                        continue;
                    chunk_changed = true;
                    if (shared[off] != twin[off])
                        ++want.conflictBytes;
                    shared[off] = priv[off];
                    ++want.bytesChanged;
                    Addr line = ((shared_frame << mmu.pageShift()) + off) &
                                ~(lineBytes - 1);
                    auto &lines = want_lines[shared_frame];
                    if (lines.empty() || lines.back() != line) {
                        lines.push_back(line);
                        ++want.linesMerged;
                        want.cost += costs.mergePerLine;
                    }
                }
                if (huge)
                    want.cost += costs.memcmpPer4k;
                if (!huge || chunk_changed)
                    want.cost += costs.diffPer4k;
            }
        }

        invalidated.clear();
        CommitResult got = ptsbs[p]->commit();
        twins[p].clear();
        privRef[p].clear();

        EXPECT_EQ(got.cost, want.cost);
        EXPECT_EQ(got.pagesDiffed, want.pagesDiffed);
        EXPECT_EQ(got.bytesChanged, want.bytesChanged);
        EXPECT_EQ(got.linesMerged, want.linesMerged);
        EXPECT_EQ(got.conflictBytes, want.conflictBytes);
        totalConflicts += got.conflictBytes;

        // Invalidations come one page at a time (in the PTSB's own
        // page order), each page's lines ascending.
        std::vector<Addr> got_run;
        PPage run_frame = invalidPPage;
        std::map<PPage, std::vector<Addr>> got_lines;
        for (Addr line : invalidated) {
            PPage frame = line >> mmu.pageShift();
            if (frame != run_frame) {
                EXPECT_FALSE(got_lines.count(frame))
                    << "page " << frame << " invalidated in two runs";
                run_frame = frame;
            }
            got_lines[frame].push_back(line);
        }
        EXPECT_EQ(got_lines, want_lines);

        Bytes shared(pages * pageBytes);
        for (std::uint64_t page = 0; page < pages; ++page) {
            mmu.phys().read(region.frameFor(page) << mmu.pageShift(),
                            &shared[page * pageBytes], pageBytes);
        }
        EXPECT_TRUE(shared == sharedRef) << "shared memory diverged";
    }

    Mmu mmu;
    ShmRegion region;
    CacheSim cache;
    Addr pageBytes;
    std::array<ProcessId, 2> pids{};
    std::array<std::unique_ptr<Ptsb>, 2> ptsbs;
    Rng rng{0x7e57c0de};
    Bytes sharedRef;
    std::array<std::map<std::uint64_t, Bytes>, 2> twins, privRef;
    std::vector<Addr> invalidated;
    std::uint64_t totalConflicts = 0;
};

TEST_P(CommitDiff, MatchesFullPageDiff)
{
    const int rounds = mmu.pageBytes() > smallPageBytes ? 40 : 300;
    for (int round = 0; round < rounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        int ops = static_cast<int>(rng.range(0, 12));
        for (int i = 0; i < ops; ++i)
            mutate(static_cast<int>(rng.below(2)));
        if (HasFatalFailure())
            return;
        // Either order: the second commit races the first's merge.
        int first = static_cast<int>(rng.below(2));
        commitAndCheck(first);
        commitAndCheck(1 - first);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(totalConflicts, 0u) << "no racing merge was exercised";
}

INSTANTIATE_TEST_SUITE_P(PageSizes, CommitDiff,
                         ::testing::Values(smallPageShift,
                                           hugePageShift),
                         [](const auto &info) {
                             return info.param == smallPageShift
                                        ? std::string("Small4K")
                                        : std::string("Huge2M");
                         });

} // namespace

} // namespace tmi
