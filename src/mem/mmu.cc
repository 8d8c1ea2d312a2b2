#include "mmu.hh"

#include "fault/fault_injector.hh"
#include "obs/trace.hh"

namespace tmi
{

Mmu::Mmu(unsigned page_shift) : _phys(page_shift) {}

ProcessId
Mmu::createAddressSpace()
{
    auto pid = static_cast<ProcessId>(_spaces.size());
    _spaces.push_back(std::make_unique<AddressSpace>(pid));
    return pid;
}

ProcessId
Mmu::cloneAddressSpace(ProcessId src)
{
    if (_faults && _faults->shouldFail(faultpoint::memCloneFail)) {
        ++_statCloneFails;
        warn("mmu: address-space clone of pid %u failed (injected)",
             src);
        return invalidProcessId;
    }
    ProcessId pid = createAddressSpace();
    AddressSpace &dst = *_spaces[pid];
    const AddressSpace &from = space(src);
    for (const auto &[vpage, entry] : from.table()) {
        PageEntry copy = entry;
        if (entry.kind == MapKind::PrivateCow &&
            entry.privateFrame != invalidPPage) {
            copy.privateFrame = _phys.allocCopy(entry.privateFrame);
        }
        dst.install(vpage, copy);
    }
    ++_statClones;
    bumpEpoch();
    return pid;
}

AddressSpace &
Mmu::space(ProcessId pid)
{
    TMI_ASSERT(pid < _spaces.size());
    return *_spaces[pid];
}

const AddressSpace &
Mmu::space(ProcessId pid) const
{
    TMI_ASSERT(pid < _spaces.size());
    return *_spaces[pid];
}

void
Mmu::mapShared(ProcessId pid, Addr vbase, ShmRegion &region,
               std::uint64_t file_page_start, std::uint64_t n_pages)
{
    TMI_ASSERT((vbase & (pageBytes() - 1)) == 0);
    TMI_ASSERT(file_page_start + n_pages <= region.pages());
    AddressSpace &as = space(pid);
    VPage base = vpageOf(vbase);
    for (std::uint64_t i = 0; i < n_pages; ++i) {
        PageEntry entry;
        entry.backing = &region;
        entry.filePage = file_page_start + i;
        entry.kind = MapKind::SharedRW;
        as.install(base + i, entry);
    }
    bumpEpoch();
}

void
Mmu::protectPrivateCow(ProcessId pid, VPage vpage)
{
    PageEntry *entry = space(pid).find(vpage);
    TMI_ASSERT(entry, "protect of unmapped page");
    if (entry->kind == MapKind::PrivateCow)
        return;
    entry->kind = MapKind::PrivateCow;
    entry->privateFrame = invalidPPage;
    ++_statProtects;
    bumpEpoch();
}

void
Mmu::unprotect(ProcessId pid, VPage vpage)
{
    PageEntry *entry = space(pid).find(vpage);
    TMI_ASSERT(entry, "unprotect of unmapped page");
    if (entry->kind != MapKind::PrivateCow)
        return;
    if (entry->privateFrame != invalidPPage) {
        _phys.freeFrame(entry->privateFrame);
        entry->privateFrame = invalidPPage;
    }
    entry->kind = MapKind::SharedRW;
    ++_statUnprotects;
    bumpEpoch();
}

bool
Mmu::isProtected(ProcessId pid, VPage vpage) const
{
    const PageEntry *entry = space(pid).find(vpage);
    return entry && entry->kind == MapKind::PrivateCow;
}

void
Mmu::dropPrivateFrame(ProcessId pid, VPage vpage)
{
    PageEntry *entry = space(pid).find(vpage);
    TMI_ASSERT(entry && entry->kind == MapKind::PrivateCow);
    if (entry->privateFrame != invalidPPage) {
        _phys.freeFrame(entry->privateFrame);
        entry->privateFrame = invalidPPage;
    }
    bumpEpoch();
}

PageEntry &
Mmu::entryForAccess(ProcessId pid, Addr vaddr)
{
    PageEntry *entry = space(pid).find(vpageOf(vaddr));
    if (!entry) {
        panic("simulated segfault: pid %u access to unmapped vaddr %#lx",
              pid, static_cast<unsigned long>(vaddr));
    }
    return *entry;
}

void
Mmu::abandonCow(ProcessId pid, VPage vpage, PageEntry &entry)
{
    // The process cannot take a private copy right now (no frame or
    // no twin). Reverting to SharedRW is always memory-safe: writes
    // land directly in shared memory, which is exactly the unrepaired
    // behaviour -- we merely lose the isolation benefit on this page.
    entry.kind = MapKind::SharedRW;
    entry.privateFrame = invalidPPage;
    ++_statCowAborts;
    bumpEpoch();
    if (_cowAbortCallback)
        _cowAbortCallback(pid, vpage);
}

TranslateResult
Mmu::translate(ProcessId pid, Addr vaddr, bool is_write)
{
    TranslateResult res;
    PageEntry &entry = entryForAccess(pid, vaddr);
    if (!entry.touched) {
        entry.touched = true;
        res.softFault = true;
        ++_statSoftFaults;
    }
    if (is_write && entry.kind == MapKind::PrivateCow &&
        entry.privateFrame == invalidPPage) {
        VPage vpage = vpageOf(vaddr);
        if (_faults &&
            _faults->shouldFail(faultpoint::memFrameExhausted)) {
            res.cowAborted = true;
            abandonCow(pid, vpage, entry);
        } else {
            PPage shared = entry.backing->frameFor(entry.filePage);
            entry.privateFrame = _phys.allocCopy(shared);
            res.cowFault = true;
            ++_statCowFaults;
            if (_cowCallback) {
                CowOutcome out = _cowCallback(pid, vpage, shared,
                                              entry.privateFrame);
                if (out.ok) {
                    res.extraCost = out.cost;
                } else {
                    // The handler (PTSB) could not twin the page:
                    // undo the divergence before any write lands in
                    // the private frame.
                    _phys.freeFrame(entry.privateFrame);
                    res.cowFault = false;
                    res.cowAborted = true;
                    abandonCow(pid, vpage, entry);
                }
            }
            if (res.cowFault && _trace) {
                _trace->recordHere(obs::EventKind::CowFault, vpage,
                                   pid);
            }
        }
    }
    Addr off = vaddr & (pageBytes() - 1);
    // A pure entry stays pure until a mapping mutation, and every
    // such mutation bumps the epoch. The call that services a COW
    // fault is itself left uncacheable: the cache only ever fills
    // from a private frame that already existed before this call.
    res.cacheable = !res.cowFault && entry.pure();
    res.paddr = (entry.activeFrame() << pageShift()) | off;
    return res;
}

bool
Mmu::translatePeek(ProcessId pid, Addr vaddr, Addr &paddr) const
{
    const PageEntry *entry = space(pid).find(vpageOf(vaddr));
    if (!entry)
        return false;
    Addr off = vaddr & (pageBytes() - 1);
    paddr = (entry->activeFrame() << pageShift()) | off;
    return true;
}

void
Mmu::read(ProcessId pid, Addr vaddr, void *buf, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        Addr off = vaddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        TranslateResult tr = translate(pid, vaddr, false);
        _phys.read(tr.paddr, out, chunk);
        out += chunk;
        vaddr += chunk;
        size -= chunk;
    }
}

void
Mmu::write(ProcessId pid, Addr vaddr, const void *buf, std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        Addr off = vaddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        TranslateResult tr = translate(pid, vaddr, true);
        _phys.write(tr.paddr, in, chunk);
        in += chunk;
        vaddr += chunk;
        size -= chunk;
    }
}

void
Mmu::readShared(ProcessId pid, Addr vaddr, void *buf, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        Addr off = vaddr & (pageBytes() - 1);
        std::size_t chunk =
            std::min<std::size_t>(size, pageBytes() - off);
        const PageEntry *entry = space(pid).find(vpageOf(vaddr));
        TMI_ASSERT(entry, "readShared of unmapped page");
        PPage frame = entry->backing->frameFor(entry->filePage);
        _phys.read((frame << pageShift()) | off, out, chunk);
        out += chunk;
        vaddr += chunk;
        size -= chunk;
    }
}

std::uint64_t
Mmu::softFaults() const
{
    return static_cast<std::uint64_t>(_statSoftFaults.value());
}

std::uint64_t
Mmu::cowFaults() const
{
    return static_cast<std::uint64_t>(_statCowFaults.value());
}

void
Mmu::regStats(stats::StatGroup &group)
{
    group.addScalar("softFaults", &_statSoftFaults,
                    "first-touch page faults");
    group.addScalar("cowFaults", &_statCowFaults,
                    "copy-on-write faults on protected pages");
    group.addScalar("cowAborts", &_statCowAborts,
                    "COW faults abandoned (no frame or twin)");
    group.addScalar("protects", &_statProtects,
                    "pages switched to PrivateCow");
    group.addScalar("unprotects", &_statUnprotects,
                    "pages reverted to SharedRW");
    group.addScalar("clones", &_statClones,
                    "address-space clones (T2P conversions)");
    group.addScalar("cloneFails", &_statCloneFails,
                    "address-space clones that failed (injected)");
    _phys.regStats(group);
}

} // namespace tmi
