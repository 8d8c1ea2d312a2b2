#include "cache_sim.hh"

#include <algorithm>
#include <bit>

namespace tmi
{

CoherenceDirectory::CoherenceDirectory(std::size_t max_live)
    : _maxLive(max_live)
{
    std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(2 * max_live, 2));
    _slots.assign(slots, Slot{});
    _mask = slots - 1;
    _shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

DirEntry &
CoherenceDirectory::findOrInsert(Addr line_addr)
{
    std::size_t i = home(line_addr);
    for (; _slots[i].line != emptyLine; i = (i + 1) & _mask) {
        if (_slots[i].line == line_addr)
            return _slots[i];
    }
    // At most max_live of the >= 2 x max_live slots are ever used,
    // so the probe above always finds an empty slot.
    TMI_ASSERT(_live < _maxLive, "coherence directory over capacity");
    ++_live;
    _slots[i] = Slot{};
    _slots[i].line = line_addr;
    return _slots[i];
}

void
CoherenceDirectory::erase(DirEntry &entry)
{
    std::size_t hole =
        static_cast<std::size_t>(static_cast<Slot *>(&entry) - &_slots[0]);
    TMI_ASSERT(hole < _slots.size() && _slots[hole].line != emptyLine);
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home lies cyclically in (hole, i] -- moving it
    // there would put it before its own home.
    for (std::size_t i = (hole + 1) & _mask; _slots[i].line != emptyLine;
         i = (i + 1) & _mask) {
        std::size_t from_home = (i - home(_slots[i].line)) & _mask;
        if (from_home >= ((i - hole) & _mask)) {
            _slots[hole] = _slots[i];
            hole = i;
        }
    }
    _slots[hole].line = emptyLine;
    --_live;
}

void
CacheSim::TagArray::init(unsigned s, unsigned w)
{
    TMI_ASSERT(std::has_single_bit(s),
               "cache set count must be a power of two");
    ways = w;
    setMask = s - 1;
    lines.assign(static_cast<std::size_t>(s) * w, Line{});
}

CacheSim::Line *
CacheSim::TagArray::find(Addr line_addr)
{
    Line *base = set(line_addr);
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].state != Mesi::Invalid && base[w].tag == line_addr)
            return &base[w];
    }
    return nullptr;
}

CacheSim::Line &
CacheSim::TagArray::victim(Addr line_addr)
{
    Line *base = set(line_addr);
    Line *lru = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].state == Mesi::Invalid)
            return base[w];
        if (base[w].lastUse < lru->lastUse)
            lru = &base[w];
    }
    return *lru;
}

CacheSim::CacheSim(const CacheConfig &config)
    : _config(config),
      _dir(std::size_t{config.cores} * config.l1Sets * config.l1Ways)
{
    TMI_ASSERT(config.cores >= 1 && config.cores <= 32);
    _l1.resize(config.cores);
    for (auto &l1 : _l1)
        l1.init(config.l1Sets, config.l1Ways);
    _llc.init(config.llcSets, config.llcWays);
}

void
CacheSim::dropFromCore(CoreId core, Addr line_addr)
{
    Line *line = _l1[core].find(line_addr);
    if (line) {
        if (line->state == Mesi::Modified ||
            line->state == Mesi::Owned) {
            ++_statWritebacks;
            // Dirty data returns to the LLC.
            llcLookupFill(line_addr);
        }
        line->state = Mesi::Invalid;
    }
    dirRemoveSharer(core, line_addr);
}

void
CacheSim::dirRemoveSharer(CoreId core, Addr line_addr)
{
    DirEntry *entry = _dir.find(line_addr);
    if (!entry)
        return;
    entry->sharers &= ~(std::uint32_t{1} << core);
    if (entry->owner == core)
        entry->ownerState = Mesi::Invalid;
    if (entry->sharers == 0)
        _dir.erase(*entry);
}

bool
CacheSim::llcLookupFill(Addr line_addr)
{
    // One scan finds a hit or the victim TagArray::victim would pick:
    // the first invalid way, else the first least recently used.
    Line *base = _llc.set(line_addr);
    Line *invalid = nullptr;
    Line *lru = base;
    for (unsigned w = 0; w < _llc.ways; ++w) {
        Line &l = base[w];
        if (l.state == Mesi::Invalid) {
            if (!invalid)
                invalid = &l;
        } else if (l.tag == line_addr) {
            l.lastUse = _useClock;
            return true;
        } else if (l.lastUse < lru->lastUse) {
            lru = &l;
        }
    }
    Line &v = invalid ? *invalid : *lru;
    // LLC evictions have no side effects: data always lives in the
    // simulated physical memory, and the LLC is non-inclusive.
    v.tag = line_addr;
    v.state = Mesi::Shared;
    v.lastUse = _useClock;
    return false;
}

void
CacheSim::fillLine(CoreId core, Addr line_addr, Mesi state)
{
    Line &v = _l1[core].victim(line_addr);
    if (v.state != Mesi::Invalid) {
        // Evict the victim: update the directory, write back if dirty.
        Addr victim_addr = v.tag;
        if (v.state == Mesi::Modified || v.state == Mesi::Owned) {
            ++_statWritebacks;
            llcLookupFill(victim_addr);
        }
        dirRemoveSharer(core, victim_addr);
    }
    v.tag = line_addr;
    v.state = state;
    v.lastUse = _useClock;

    DirEntry &entry = _dir.findOrInsert(line_addr);
    entry.sharers |= std::uint32_t{1} << core;
    if (state == Mesi::Modified || state == Mesi::Exclusive) {
        entry.owner = core;
        entry.ownerState = state;
    }
}

AccessResult
CacheSim::access(const AccessContext &ctx)
{
    TMI_ASSERT(ctx.core < _config.cores);
    TMI_ASSERT(lineOffset(ctx.paddr) + ctx.width <= lineBytes,
               "access spans a cache line");

    AccessResult res;
    ++_statAccesses;
    ++_useClock;

    Addr line_addr = lineNumber(ctx.paddr);
    TagArray &l1 = _l1[ctx.core];
    Line *line = l1.find(line_addr);

    if (line) {
        line->lastUse = _useClock;
        if (!ctx.isWrite || line->state == Mesi::Modified) {
            res.l1Hit = true;
            res.latency = _config.l1HitLatency;
            ++_statL1Hits;
            return res;
        }
        if (line->state == Mesi::Exclusive) {
            // Silent E->M upgrade.
            line->state = Mesi::Modified;
            DirEntry &entry = _dir.findOrInsert(line_addr);
            entry.owner = ctx.core;
            entry.ownerState = Mesi::Modified;
            res.l1Hit = true;
            res.latency = _config.l1HitLatency;
            ++_statL1Hits;
            return res;
        }
        // S/O->M upgrade: invalidate every other sharer. A remote
        // Owned copy is dirty and must be written back first.
        ++_statUpgrades;
        if (DirEntry *dir = _dir.find(line_addr)) {
            std::uint32_t others =
                dir->sharers & ~(std::uint32_t{1} << ctx.core);
            for (CoreId c = 0; c < _config.cores; ++c) {
                if (others & (std::uint32_t{1} << c)) {
                    ++_statInvalidations;
                    Line *remote = _l1[c].find(line_addr);
                    if (remote) {
                        if (remote->state == Mesi::Owned) {
                            ++_statWritebacks;
                            llcLookupFill(line_addr);
                        }
                        remote->state = Mesi::Invalid;
                    }
                }
            }
            dir->sharers = std::uint32_t{1} << ctx.core;
            dir->owner = ctx.core;
            dir->ownerState = Mesi::Modified;
        }
        line->state = Mesi::Modified;
        res.l1Hit = true;
        res.latency = _config.upgradeLatency;
        return res;
    }

    // L1 miss: snoop the other private caches via the directory.
    // Erase moves directory slots, so @c dir is only used before the
    // first dropFromCore/fillLine below.
    DirEntry *dir = _dir.find(line_addr);
    bool remote_modified = false;
    bool remote_owned = false;
    bool remote_clean = false;
    CoreId owner = 0;

    if (dir && dir->sharers != 0) {
        std::uint32_t others =
            dir->sharers & ~(std::uint32_t{1} << ctx.core);
        if (others != 0) {
            bool owner_remote =
                dir->owner != ctx.core &&
                (others & (std::uint32_t{1} << dir->owner));
            if (dir->ownerState == Mesi::Modified &&
                owner_remote) {
                remote_modified = true;
                owner = dir->owner;
            } else if (dir->ownerState == Mesi::Owned &&
                       owner_remote) {
                remote_owned = true;
                owner = dir->owner;
            } else {
                remote_clean = true;
            }
        }
    }

    if (remote_modified) {
        // HITM: dirty hit in a remote private cache.
        ++_statHitm;
        if (ctx.isWrite)
            ++_statHitmStores;
        res.hitm = true;
        res.latency = _config.hitmLatency;
        if (_hitmCb)
            res.latency += _hitmCb(ctx);

        if (ctx.isWrite) {
            // RFO: the owner is invalidated, we take Modified.
            ++_statWritebacks;
            llcLookupFill(line_addr);
            dropFromCore(owner, line_addr);
            ++_statInvalidations;
            fillLine(ctx.core, line_addr, Mesi::Modified);
        } else if (_config.protocol == Protocol::Moesi) {
            // MOESI read: the owner keeps the dirty data in Owned
            // state; no writeback happens at all.
            Line *remote = _l1[owner].find(line_addr);
            if (remote)
                remote->state = Mesi::Owned;
            dir->ownerState = Mesi::Owned;
            fillLine(ctx.core, line_addr, Mesi::Shared);
        } else {
            // MESI read: writeback, the owner downgrades to Shared.
            ++_statWritebacks;
            llcLookupFill(line_addr);
            Line *remote = _l1[owner].find(line_addr);
            if (remote)
                remote->state = Mesi::Shared;
            dir->ownerState = Mesi::Invalid;
            fillLine(ctx.core, line_addr, Mesi::Shared);
        }
        return res;
    }

    if (remote_owned) {
        // MOESI dirty forward: served from the Owned copy. The line
        // is not Modified, so Intel's HITM event does NOT fire --
        // dirty sharing is cheaper and *quieter* under MOESI.
        ++_statOwnedForwards;
        res.latency = _config.ownedForwardLatency;
        if (ctx.isWrite) {
            std::uint32_t others =
                dir->sharers & ~(std::uint32_t{1} << ctx.core);
            for (CoreId c = 0; c < _config.cores; ++c) {
                if (others & (std::uint32_t{1} << c)) {
                    ++_statInvalidations;
                    dropFromCore(c, line_addr);
                }
            }
            fillLine(ctx.core, line_addr, Mesi::Modified);
        } else {
            fillLine(ctx.core, line_addr, Mesi::Shared);
        }
        return res;
    }

    if (remote_clean) {
        res.latency = _config.cleanForwardLatency;
        if (ctx.isWrite) {
            // Invalidate all remote clean copies, take Modified.
            std::uint32_t others =
                dir->sharers & ~(std::uint32_t{1} << ctx.core);
            for (CoreId c = 0; c < _config.cores; ++c) {
                if (others & (std::uint32_t{1} << c)) {
                    ++_statInvalidations;
                    Line *remote = _l1[c].find(line_addr);
                    if (remote)
                        remote->state = Mesi::Invalid;
                }
            }
            dir->sharers &= std::uint32_t{1} << ctx.core;
            fillLine(ctx.core, line_addr, Mesi::Modified);
        } else {
            // Downgrade a remote Exclusive copy if there is one.
            if (dir->ownerState == Mesi::Exclusive) {
                Line *remote =
                    _l1[dir->owner].find(line_addr);
                if (remote && remote->state == Mesi::Exclusive)
                    remote->state = Mesi::Shared;
                dir->ownerState = Mesi::Invalid;
            }
            fillLine(ctx.core, line_addr, Mesi::Shared);
        }
        return res;
    }

    // No private copy anywhere: LLC, then memory.
    bool llc_hit = llcLookupFill(line_addr);
    if (llc_hit) {
        res.latency = _config.llcHitLatency;
        ++_statLlcHits;
    } else {
        res.latency = _config.dramLatency;
        ++_statDramFills;
    }
    fillLine(ctx.core, line_addr,
             ctx.isWrite ? Mesi::Modified : Mesi::Exclusive);
    return res;
}

void
CacheSim::invalidateLine(Addr paddr)
{
    if (_invalidateCb)
        _invalidateCb(paddr);
    Addr line_addr = lineNumber(paddr);
    for (CoreId c = 0; c < _config.cores; ++c)
        dropFromCore(c, line_addr);
}

void
CacheSim::invalidatePage(PPage frame, unsigned page_shift)
{
    Addr base = frame << page_shift;
    Addr lines = (Addr{1} << page_shift) >> lineShift;
    for (Addr i = 0; i < lines; ++i)
        invalidateLine(base + (i << lineShift));
}

bool
CacheSim::auditCoherence() const
{
    // Gather every valid private-cache copy per line address.
    std::unordered_map<Addr, std::vector<std::pair<CoreId, Mesi>>>
        copies;
    for (CoreId c = 0; c < _config.cores; ++c) {
        for (const Line &line : _l1[c].lines) {
            if (line.state != Mesi::Invalid)
                copies[line.tag].push_back({c, line.state});
        }
    }

    // No entry may outlive its last cached copy: that bounds the
    // directory's load.
    if (_dir.size() != copies.size())
        return false;
    for (const auto &[line_addr, holders] : copies) {
        unsigned exclusive_holders = 0;
        unsigned owned_holders = 0;
        for (const auto &[core, state] : holders) {
            (void)core;
            if (state == Mesi::Modified || state == Mesi::Exclusive)
                ++exclusive_holders;
            if (state == Mesi::Owned)
                ++owned_holders;
        }
        // SWMR: an M/E copy must be the only copy of the line; at
        // most one Owned copy, and never alongside an M/E copy.
        if (exclusive_holders > 1 || owned_holders > 1)
            return false;
        if (exclusive_holders == 1 && holders.size() > 1)
            return false;
        if (owned_holders == 1 && exclusive_holders > 0)
            return false;
        if (owned_holders == 1 && _config.protocol == Protocol::Mesi)
            return false;

        // The directory must cover every cached copy.
        const DirEntry *dir = _dir.find(line_addr);
        if (!dir)
            return false;
        for (const auto &[core, state] : holders) {
            if (!(dir->sharers & (std::uint32_t{1} << core)))
                return false;
            if ((state == Mesi::Modified ||
                 state == Mesi::Exclusive ||
                 state == Mesi::Owned) &&
                (dir->owner != core || dir->ownerState != state)) {
                return false;
            }
        }
    }
    return true;
}

void
CacheSim::regStats(stats::StatGroup &group)
{
    group.addScalar("accesses", &_statAccesses, "data accesses");
    group.addScalar("l1Hits", &_statL1Hits, "private-cache hits");
    group.addScalar("llcHits", &_statLlcHits, "shared-cache hits");
    group.addScalar("dramFills", &_statDramFills, "fills from memory");
    group.addScalar("hitmEvents", &_statHitm,
                    "remote-Modified (HITM) coherence events");
    group.addScalar("hitmStoreEvents", &_statHitmStores,
                    "HITM events triggered by stores");
    group.addScalar("ownedForwards", &_statOwnedForwards,
                    "dirty forwards from Owned lines (MOESI)");
    group.addScalar("upgrades", &_statUpgrades, "S->M upgrades");
    group.addScalar("invalidations", &_statInvalidations,
                    "remote lines invalidated");
    group.addScalar("writebacks", &_statWritebacks,
                    "dirty lines written back");
}

} // namespace tmi
