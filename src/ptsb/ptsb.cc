#include "ptsb.hh"

#include <cstring>

#include "fault/fault_injector.hh"

namespace tmi
{

Ptsb::Ptsb(Mmu &mmu, ProcessId pid, const PtsbCosts &costs,
           CacheSim *cache, FaultInjector *faults)
    : _mmu(mmu), _pid(pid), _costs(costs), _cache(cache),
      _faults(faults)
{
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
    // twin) is exactly the bytes this process wrote since.
    const Addr page_bytes = _mmu.pageBytes();
    twin.snapshot.resize(page_bytes);
    const std::uint8_t *shared = _mmu.phys().framePtrIfTouched(shared_frame);
    if (shared)
        std::memcpy(twin.snapshot.data(), shared, page_bytes);
    else
        std::memset(twin.snapshot.data(), 0, page_bytes);

    _twins.emplace(vpage, std::move(twin));
    ++_statTwinsCreated;

    Cycles chunks = page_bytes / smallPageBytes;
    if (chunks == 0)
        chunks = 1;
    return {_costs.twinCopyPer4k * chunks, true};
}

CommitResult
Ptsb::commit()
{
    CommitResult res;
    ++_statCommits;
    if (_twins.empty())
        return res; // clean PTSB: the commit is free
    res.cost = _costs.commitBase;

    const Addr page_bytes = _mmu.pageBytes();
    const bool huge = page_bytes > smallPageBytes;
    const std::size_t chunk = smallPageBytes;

    for (auto &[vpage, twin] : _twins) {
        ++res.pagesDiffed;
        ++_statPagesDiffed;

        std::uint8_t *priv = _mmu.phys().framePtr(twin.privateFrame);
        std::uint8_t *shared = _mmu.phys().framePtr(twin.sharedFrame);
        const std::uint8_t *snap = twin.snapshot.data();

        Addr changed_line = ~Addr{0};
        for (std::size_t base = 0; base < page_bytes; base += chunk) {
            if (huge) {
                // Huge-page optimization: compare 4 KB regions with
                // memcmp before descending to bytes (section 4.4).
                res.cost += _costs.memcmpPer4k;
                if (std::memcmp(priv + base, snap + base, chunk) == 0)
                    continue;
            }
            res.cost += _costs.diffPer4k;
            for (std::size_t i = 0; i < chunk; ++i) {
                std::size_t off = base + i;
                if (priv[off] == snap[off])
                    continue;
                // Merge must change only the bytes identified by the
                // diff; touching identical bytes would fabricate
                // stores the program never performed (section 2.2).
                if (shared[off] != snap[off])
                    ++res.conflictBytes; // racy concurrent merge
                shared[off] = priv[off];
                ++res.bytesChanged;
                Addr line = (twin.sharedFrame * page_bytes + off) >>
                            lineShift;
                if (line != changed_line) {
                    changed_line = line;
                    ++res.linesMerged;
                    res.cost += _costs.mergePerLine;
                    if (_cache)
                        _cache->invalidateLine(line << lineShift);
                }
            }
        }

        // Step 5 of Figure 2: drop the mutable copy and twin so the
        // page is read-only again and re-twins on the next write.
        _mmu.dropPrivateFrame(_pid, vpage);
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
