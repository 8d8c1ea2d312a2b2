#include "ptsb.hh"

#include <bit>
#include <cstring>

#include "fault/fault_injector.hh"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

namespace tmi
{

namespace
{
/// Written-line shadow check (DESIGN.md section 4d): sanitized builds
/// also compare every line commit() skips, and abort if a byte there
/// differs from the twin -- some path changed frame bytes without
/// marking them, and the merge would have dropped that store.
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
constexpr bool writtenLinesShadowCheck = true;
#else
constexpr bool writtenLinesShadowCheck = false;
#endif

void
checkWrittenLines(const std::uint8_t *priv, const std::uint64_t *written,
                  const std::uint8_t *snap, Addr page_bytes)
{
    static const std::uint8_t zeroLine[lineBytes] = {};
    for (Addr line = 0; line < page_bytes >> lineShift; ++line) {
        if (written && (written[line >> 6] >> (line & 63) & 1))
            continue;
        const std::uint8_t *now =
            priv ? priv + (line << lineShift) : zeroLine;
        TMI_ASSERT(std::memcmp(now, snap + (line << lineShift),
                               lineBytes) == 0,
                   "a private frame changed outside its written lines");
    }
}
} // namespace

Ptsb::Ptsb(Mmu &mmu, ProcessId pid, const PtsbCosts &costs,
           CacheSim *cache, FaultInjector *faults)
    : _mmu(mmu), _pid(pid), _costs(costs), _cache(cache),
      _faults(faults)
{
    // commit() walks the written-line mask one 4 KB chunk per word.
    TMI_ASSERT(_mmu.pageBytes() >= smallPageBytes);
}

Cycles
Ptsb::protectPage(VPage vpage)
{
    if (_protected.count(vpage))
        return 0;
    _mmu.protectPrivateCow(_pid, vpage);
    _protected.emplace(vpage, true);
    return _costs.protectPage;
}

void
Ptsb::unprotectPage(VPage vpage)
{
    auto it = _protected.find(vpage);
    if (it == _protected.end())
        return;
    TMI_ASSERT(_twins.find(vpage) == _twins.end(),
               "unprotect of a dirty PTSB page; commit first");
    _mmu.unprotect(_pid, vpage);
    _protected.erase(it);
}

void
Ptsb::forgetPage(VPage vpage)
{
    TMI_ASSERT(_twins.find(vpage) == _twins.end(),
               "forget of a dirty PTSB page");
    _protected.erase(vpage);
}

Cycles
Ptsb::dissolve()
{
    CommitResult res = commit();
    Cycles cost = res.cost;
    for (const auto &[vpage, armed] : _protected) {
        (void)armed;
        _mmu.unprotect(_pid, vpage);
        cost += _costs.unprotectPage;
    }
    _protected.clear();
    return cost;
}

bool
Ptsb::isProtected(VPage vpage) const
{
    return _protected.count(vpage) != 0;
}

CowOutcome
Ptsb::onCowFault(VPage vpage, PPage shared_frame, PPage private_frame)
{
    TMI_ASSERT(_protected.count(vpage), "COW fault on unprotected page");
    TMI_ASSERT(_twins.find(vpage) == _twins.end(),
               "double COW fault without commit");

    if (_faults &&
        _faults->shouldFail(faultpoint::ptsbTwinAllocFail)) {
        // Under memory pressure the twin snapshot cannot be taken;
        // report failure so the MMU abandons the divergence and the
        // page falls back to direct shared writes.
        ++_statTwinAllocFails;
        return {0, false};
    }

    Twin twin;
    twin.sharedFrame = shared_frame;
    twin.privateFrame = private_frame;

    // The twin is the shared page's contents at fault time -- the
    // same snapshot the private frame starts from, so diff(private,
    // twin) is exactly the bytes this process wrote since, and they
    // lie in the lines the private frame marks written.
    const Addr page_bytes = _mmu.pageBytes();
    if (_spareSnapshots.empty()) {
        twin.snapshot =
            std::make_unique_for_overwrite<std::uint8_t[]>(page_bytes);
    } else {
        twin.snapshot = std::move(_spareSnapshots.back());
        _spareSnapshots.pop_back();
    }
    const std::uint8_t *shared = _mmu.phys().framePtrIfTouched(shared_frame);
    if (shared)
        std::memcpy(twin.snapshot.get(), shared, page_bytes);
    else
        std::memset(twin.snapshot.get(), 0, page_bytes);

    _twins.emplace(vpage, std::move(twin));
    ++_statTwinsCreated;

    Cycles chunks = page_bytes / smallPageBytes;
    if (chunks == 0)
        chunks = 1;
    return {_costs.twinCopyPer4k * chunks, true};
}

bool
Ptsb::mergeLine(const std::uint8_t *priv, const std::uint8_t *snap,
                std::uint8_t *shared, Addr off, CommitResult &res)
{
    bool changed = false;
    for (Addr word = off; word < off + lineBytes; word += 8) {
        std::uint64_t now = 0, then = 0;
        std::memcpy(&now, priv + word, 8);
        std::memcpy(&then, snap + word, 8);
        // Little-endian host (PhysicalMemory asserts it): byte i of
        // the word is bits [8i, 8i + 8).
        for (std::uint64_t diff = now ^ then; diff != 0;) {
            unsigned byte = std::countr_zero(diff) >> 3;
            diff &= ~(std::uint64_t{0xff} << (byte * 8));
            // Merge must change only the bytes identified by the
            // diff; touching identical bytes would fabricate stores
            // the program never performed (section 2.2).
            Addr at = word + byte;
            if (shared[at] != snap[at])
                ++res.conflictBytes; // racy concurrent merge
            shared[at] = priv[at];
            ++res.bytesChanged;
            changed = true;
        }
    }
    return changed;
}

CommitResult
Ptsb::commit()
{
    CommitResult res;
    ++_statCommits;
    if (_twins.empty())
        return res; // clean PTSB: the commit is free
    res.cost = _costs.commitBase;

    PhysicalMemory &phys = _mmu.phys();
    const Addr page_bytes = phys.pageBytes();
    const bool huge = page_bytes > smallPageBytes;
    // One written-line mask word covers one 4 KB chunk (64 lines).
    const Addr chunks = page_bytes / smallPageBytes;

    for (auto &[vpage, twin] : _twins) {
        ++res.pagesDiffed;
        ++_statPagesDiffed;

        const std::uint8_t *priv =
            phys.framePtrIfTouched(twin.privateFrame);
        const std::uint64_t *written =
            phys.writtenLines(twin.privateFrame);
        std::uint8_t *shared = phys.framePtr(twin.sharedFrame);
        const std::uint8_t *snap = twin.snapshot.get();
        if constexpr (writtenLinesShadowCheck)
            checkWrittenLines(priv, written, snap, page_bytes);

        // Only written lines can differ from the twin, so only they
        // are diffed; the cost is still what a full scan charges.
        // Huge pages pay the 4 KB memcmp pre-filter on every chunk
        // and the byte diff only on chunks that changed (section
        // 4.4); a 4 KB page always pays its one byte diff.
        const Addr frame_line = (twin.sharedFrame * page_bytes) >>
                                lineShift;
        for (Addr chunk = 0; chunk < chunks; ++chunk) {
            bool chunk_changed = false;
            for (std::uint64_t lines = written ? written[chunk] : 0;
                 lines != 0; lines &= lines - 1) {
                Addr line = chunk * 64 + std::countr_zero(lines);
                if (!mergeLine(priv, snap, shared, line << lineShift,
                               res))
                    continue;
                chunk_changed = true;
                ++res.linesMerged;
                res.cost += _costs.mergePerLine;
                if (_cache)
                    _cache->invalidateLine((frame_line + line)
                                           << lineShift);
            }
            if (huge)
                res.cost += _costs.memcmpPer4k;
            if (!huge || chunk_changed)
                res.cost += _costs.diffPer4k;
        }

        // Step 5 of Figure 2: drop the mutable copy and twin so the
        // page is read-only again and re-twins on the next write.
        _mmu.dropPrivateFrame(_pid, vpage);
        if ((_spareSnapshots.size() + 1) * page_bytes <= spareBytes)
            _spareSnapshots.push_back(std::move(twin.snapshot));
    }

    _statBytesMerged += static_cast<double>(res.bytesChanged);
    _statConflictBytes += static_cast<double>(res.conflictBytes);
    _twins.clear();

    if (_faults &&
        _faults->shouldFail(faultpoint::ptsbOversizeCommit)) {
        // Pathological commit (evicted twins, cold caches): the same
        // merge costs dramatically more. The effectiveness monitor is
        // what must notice this and un-repair.
        res.cost *= _costs.oversizeFactor;
        ++_statOversizeCommits;
    }
    return res;
}

std::uint64_t
Ptsb::twinBytes() const
{
    return static_cast<std::uint64_t>(_twins.size()) * _mmu.pageBytes();
}

void
Ptsb::regStats(stats::StatGroup &group)
{
    group.addScalar("commits", &_statCommits, "PTSB commit operations");
    group.addScalar("pagesDiffed", &_statPagesDiffed,
                    "pages diffed across all commits");
    group.addScalar("bytesMerged", &_statBytesMerged,
                    "changed bytes merged into shared memory");
    group.addScalar("twinsCreated", &_statTwinsCreated,
                    "twin snapshots taken (COW faults)");
    group.addScalar("conflictBytes", &_statConflictBytes,
                    "racy-merge bytes (nonzero implies a data race)");
    group.addScalar("twinAllocFails", &_statTwinAllocFails,
                    "twin allocations that failed (injected)");
    group.addScalar("oversizeCommits", &_statOversizeCommits,
                    "commits with injected pathological cost");
}

std::uint64_t
sumCommits(const PtsbMap &ptsbs)
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : ptsbs)
        n += ptsb->commits();
    return n;
}

std::uint64_t
sumConflictBytes(const PtsbMap &ptsbs)
{
    std::uint64_t n = 0;
    for (const auto &[pid, ptsb] : ptsbs)
        n += ptsb->conflictBytes();
    return n;
}

Cycles
dissolveAll(PtsbMap &ptsbs)
{
    Cycles cost = 0;
    for (auto &[pid, ptsb] : ptsbs)
        cost += ptsb->dissolve();
    return cost;
}

} // namespace tmi
