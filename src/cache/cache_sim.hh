/**
 * @file
 * MESI cache-coherence simulator with HITM event generation.
 *
 * The simulated machine has one private L1 per core, a shared LLC,
 * and a snooping interconnect enforcing the single-writer multiple-
 * reader invariant. A HITM ("HIT Modified") event fires when a core's
 * request hits a remote private cache holding the line in Modified
 * state -- exactly the coherence condition Intel's PEBS
 * MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM event reports, which Tmi's
 * detector consumes (paper section 2.1).
 *
 * Caches are keyed by *physical* address. Tmi's repair remaps a
 * contended virtual page to per-process private frames, so repaired
 * accesses stop colliding in the coherence protocol for the same
 * reason they do on real hardware.
 */

#ifndef TMI_CACHE_CACHE_SIM_HH
#define TMI_CACHE_CACHE_SIM_HH

#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmi
{

/** Coherence protocol flavour. */
enum class Protocol : std::uint8_t
{
    Mesi,  //!< Intel-style: a read of a remote-M line writes back
    Moesi, //!< AMD-style: the writer keeps dirty data in Owned state
};

/** MESI/MOESI line states. */
enum class Mesi : std::uint8_t
{
    Invalid,
    Shared,
    Owned,     //!< dirty but shared (MOESI only)
    Exclusive,
    Modified,
};

/** Geometry and latency parameters of the memory hierarchy. */
struct CacheConfig
{
    Protocol protocol = Protocol::Mesi;
    unsigned cores = 4;            //!< private-cache count
    unsigned l1Sets = 64;          //!< 64 sets x 8 ways x 64 B = 32 KB
    unsigned l1Ways = 8;
    unsigned llcSets = 8192;       //!< 8192 x 16 x 64 B = 8 MB
    unsigned llcWays = 16;

    Cycles l1HitLatency = 4;       //!< private-cache hit
    Cycles llcHitLatency = 38;     //!< shared-cache hit
    Cycles hitmLatency = 180;      //!< dirty cache-to-cache transfer
    Cycles ownedForwardLatency = 95; //!< O-state dirty forward (MOESI)
    Cycles cleanForwardLatency = 70; //!< clean remote hit (E/S)
    Cycles dramLatency = 230;      //!< LLC miss to memory
    Cycles upgradeLatency = 55;    //!< S->M invalidation round

    bool operator==(const CacheConfig &) const = default;
};

/** Everything the memory system needs to know about one access. */
struct AccessContext
{
    CoreId core = 0;       //!< issuing core
    ThreadId tid = 0;      //!< issuing simulated thread
    Addr paddr = 0;        //!< physical address
    Addr vaddr = 0;        //!< virtual address (for PEBS records)
    Addr pc = 0;           //!< program counter of the instruction
    unsigned width = 0;    //!< access size in bytes
    bool isWrite = false;
};

/** Result of one access through the hierarchy. */
struct AccessResult
{
    Cycles latency = 0;
    bool l1Hit = false;
    bool hitm = false;      //!< remote-Modified hit occurred
};

/**
 * Raised on every HITM coherence event (before PEBS sampling).
 *
 * @param ctx the access that triggered the event.
 * @return extra cycles to charge the access (e.g. the PEBS assist
 *         cost when the observer emits a record).
 */
using HitmCallback = std::function<Cycles(const AccessContext &ctx)>;

/** Raised on every invalidateLine() call with its address. The order
 *  of those calls is simulated state: each dirty line dropped is
 *  written back into the LLC, moving its replacement order. */
using InvalidateCallback = std::function<void(Addr paddr)>;

/** Directory entry summarizing private-cache residency of a line. */
struct DirEntry
{
    std::uint32_t sharers = 0;  //!< bitmask of cores with the line
    CoreId owner = 0;           //!< valid if ownerState is M, E or O
    Mesi ownerState = Mesi::Invalid;
};

/**
 * The coherence directory: line address -> DirEntry in a flat
 * open-addressed table (Fibonacci hash, linear probing, backward-
 * shift erase). An entry lives only while some private cache holds
 * its line, so the table is sized once for @p max_live entries at
 * load factor 1/2 and never rehashes; an insert past @p max_live is
 * a coherence bug and panics. Erase moves slots: no DirEntry pointer
 * or reference may be held across an erase.
 */
class CoherenceDirectory
{
  public:
    explicit CoherenceDirectory(std::size_t max_live);

    /** The entry for @p line_addr, or null. */
    DirEntry *
    find(Addr line_addr)
    {
        for (std::size_t i = home(line_addr);; i = (i + 1) & _mask) {
            if (_slots[i].line == line_addr)
                return &_slots[i];
            if (_slots[i].line == emptyLine)
                return nullptr;
        }
    }

    const DirEntry *
    find(Addr line_addr) const
    {
        return const_cast<CoherenceDirectory *>(this)->find(line_addr);
    }

    /** The entry for @p line_addr, default-constructed if absent. */
    DirEntry &findOrInsert(Addr line_addr);

    /** Remove @p entry (obtained from find/findOrInsert). */
    void erase(DirEntry &entry);

    /** Live entries. */
    std::size_t size() const { return _live; }

    /** Slots in the table (a power of two, at least 2 x max_live). */
    std::size_t capacity() const { return _slots.size(); }

    /** The slot a probe for @p line_addr starts at. */
    std::size_t
    home(Addr line_addr) const
    {
        return static_cast<std::size_t>(
            (line_addr * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

  private:
    /** Never a line number: it would need a 70-bit address. */
    static constexpr Addr emptyLine = ~Addr{0};

    struct Slot : DirEntry
    {
        Addr line = emptyLine;
    };

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    unsigned _shift = 0;
    std::size_t _live = 0;
    std::size_t _maxLive = 0;
};

/** The simulated cache hierarchy. */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config = {});

    const CacheConfig &config() const { return _config; }

    /** Install the HITM observer (the PEBS model). */
    void setHitmCallback(HitmCallback cb) { _hitmCb = std::move(cb); }

    /** Install an invalidateLine() observer (diagnostics, tests). */
    void
    setInvalidateCallback(InvalidateCallback cb)
    {
        _invalidateCb = std::move(cb);
    }

    /**
     * Simulate one data access; updates coherence state and returns
     * the latency to charge. The access must not span a cache line.
     */
    AccessResult access(const AccessContext &ctx);

    /**
     * Invalidate a line from every private cache (used when a page
     * mapping changes so stale translations cannot linger).
     */
    void invalidateLine(Addr paddr);

    /** Invalidate every line in a physical page from all caches. */
    void invalidatePage(PPage frame, unsigned page_shift);

    /** Total true HITM events (before sampling). */
    std::uint64_t hitmEvents() const
    {
        return static_cast<std::uint64_t>(_statHitm.value());
    }

    /** Dirty forwards served from Owned lines (MOESI only): remote
     *  dirty hits that do NOT raise the Intel HITM event. */
    std::uint64_t ownedForwards() const
    {
        return static_cast<std::uint64_t>(_statOwnedForwards.value());
    }

    /** Dirty lines written back to the LLC. */
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(_statWritebacks.value());
    }

    /** Total accesses simulated. */
    std::uint64_t accesses() const
    {
        return static_cast<std::uint64_t>(_statAccesses.value());
    }

    /**
     * Audit the single-writer multiple-reader invariant: no line may
     * be valid in any private cache while another private cache
     * holds it Modified or Exclusive, and the directory must agree
     * with the private tag arrays. Intended for property tests.
     *
     * @retval true if every invariant holds.
     */
    bool auditCoherence() const;

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Line
    {
        Addr tag = 0;           //!< line address (paddr >> lineShift)
        Mesi state = Mesi::Invalid;
        std::uint64_t lastUse = 0;
    };

    /** One set-associative tag array (a power-of-two set count). */
    struct TagArray
    {
        unsigned ways = 0;
        Addr setMask = 0;
        std::vector<Line> lines;

        void init(unsigned s, unsigned w);
        /** The first way of @p line_addr's set. */
        Line *
        set(Addr line_addr)
        {
            return &lines[static_cast<std::size_t>(line_addr & setMask) *
                          ways];
        }
        Line *find(Addr line_addr);
        /** Victim way for a fill (invalid first, else LRU). */
        Line &victim(Addr line_addr);
    };

    void dropFromCore(CoreId core, Addr line_addr);
    /** Clear @p core's sharer bit (and ownership) of @p line_addr,
     *  erasing the directory entry once no core holds the line. */
    void dirRemoveSharer(CoreId core, Addr line_addr);
    void fillLine(CoreId core, Addr line_addr, Mesi state);
    bool llcLookupFill(Addr line_addr);

    CacheConfig _config;
    std::vector<TagArray> _l1;
    TagArray _llc;
    CoherenceDirectory _dir;
    HitmCallback _hitmCb;
    InvalidateCallback _invalidateCb;
    std::uint64_t _useClock = 0;

    stats::Scalar _statAccesses;
    stats::Scalar _statL1Hits;
    stats::Scalar _statLlcHits;
    stats::Scalar _statDramFills;
    stats::Scalar _statHitm;
    stats::Scalar _statHitmStores;
    stats::Scalar _statOwnedForwards;
    stats::Scalar _statUpgrades;
    stats::Scalar _statInvalidations;
    stats::Scalar _statWritebacks;
};

} // namespace tmi

#endif // TMI_CACHE_CACHE_SIM_HH
