/**
 * @file
 * The simulated MMU: translation, protection, faults, and COW.
 *
 * The Mmu owns the physical memory and all address spaces. It is the
 * single point through which every simulated memory access flows, and
 * it is where Tmi's repair mechanism hooks in: protecting a page as
 * PrivateCow makes the next write to it fault, copy the frame, and
 * diverge that process's view of the page from shared memory until
 * the PTSB commits it back.
 */

#ifndef TMI_MEM_MMU_HH
#define TMI_MEM_MMU_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/epoch.hh"
#include "mem/address_space.hh"

namespace tmi
{

class FaultInjector;

namespace obs
{
class TraceRecorder;
} // namespace obs

/** Outcome metadata for one translation. */
struct TranslateResult
{
    Addr paddr = 0;          //!< resulting physical address
    bool softFault = false;  //!< first access to the page by this process
    bool cowFault = false;   //!< write hit a PrivateCow page
    bool cowAborted = false; //!< COW failed; page reverted to SharedRW
    Cycles extraCost = 0;    //!< cost reported by the COW callback
    /** True when every later translate() of the page is pure (no
     *  faults, no stats, no RNG, no cost) until the next epoch bump,
     *  so the AccessPipeline may cache the frame: the page ended this
     *  call touched and SharedRW, or PrivateCow with a private frame
     *  serviced before this call (PageEntry::pure). The call that
     *  services a COW fault is never cacheable. */
    bool cacheable = false;
};

/** What the COW-fault callback did. */
struct CowOutcome
{
    /** Cycles to charge the faulting access (twin-copy cost). */
    Cycles cost = 0;
    /** False: the handler could not take the page (e.g. the twin
     *  allocation failed); the MMU must abandon the divergence. */
    bool ok = true;
};

/**
 * Called when a write faults on a PrivateCow page, after the private
 * frame has been created. The PTSB uses this to snapshot the twin.
 * The callback must not yield to the scheduler.
 */
using CowCallback = std::function<CowOutcome(ProcessId pid, VPage vpage,
                                             PPage shared_frame,
                                             PPage private_frame)>;

/**
 * Called when a COW fault could not be serviced (frame exhaustion or
 * a failed twin allocation) and the page reverted to SharedRW in that
 * process. Lets the runtime drop its own protection bookkeeping.
 */
using CowAbortCallback = std::function<void(ProcessId pid, VPage vpage)>;

/** Simulated memory-management unit. */
class Mmu
{
  public:
    explicit Mmu(unsigned page_shift);

    PhysicalMemory &phys() { return _phys; }
    const PhysicalMemory &phys() const { return _phys; }

    unsigned pageShift() const { return _phys.pageShift(); }
    Addr pageBytes() const { return _phys.pageBytes(); }

    /** Virtual page number of @p vaddr under the configured size. */
    VPage vpageOf(Addr vaddr) const { return vaddr >> pageShift(); }

    /** Create a fresh empty address space; returns its pid. */
    ProcessId createAddressSpace();

    /**
     * Clone @p src's page table into a new address space (fork).
     *
     * Shared mappings alias the same frames; PrivateCow pages with a
     * live private frame get their own copy (fork copies them).
     *
     * @return the new pid, or invalidProcessId if the clone failed
     *         (the mem.clone_fail fault point; real fork can fail).
     */
    ProcessId cloneAddressSpace(ProcessId src);

    /** Access a space by pid. */
    AddressSpace &space(ProcessId pid);
    const AddressSpace &space(ProcessId pid) const;

    /** Number of address spaces created so far. */
    std::size_t spaceCount() const { return _spaces.size(); }

    /**
     * Map @p n_pages of @p region at virtual address @p vbase in
     * process @p pid as a shared read-write mapping.
     */
    void mapShared(ProcessId pid, Addr vbase, ShmRegion &region,
                   std::uint64_t file_page_start, std::uint64_t n_pages);

    /**
     * Switch @p vpage in @p pid to PrivateCow (repair protection).
     *
     * Subsequent writes by that process fault and copy the frame.
     * No-op if already protected.
     */
    void protectPrivateCow(ProcessId pid, VPage vpage);

    /**
     * Revert @p vpage in @p pid to SharedRW, dropping any private
     * frame. The caller (PTSB) must have merged wanted changes first.
     */
    void unprotect(ProcessId pid, VPage vpage);

    /** True if @p vpage is currently PrivateCow in @p pid. */
    bool isProtected(ProcessId pid, VPage vpage) const;

    /**
     * Drop a PrivateCow page's private frame without unprotecting,
     * so the next write re-faults and re-twins (PTSB commit step 5).
     */
    void dropPrivateFrame(ProcessId pid, VPage vpage);

    /** Install the COW-fault callback (at most one; PTSB). */
    void setCowCallback(CowCallback cb) { _cowCallback = std::move(cb); }

    /** Install the COW-abort callback (at most one; runtime). */
    void
    setCowAbortCallback(CowAbortCallback cb)
    {
        _cowAbortCallback = std::move(cb);
    }

    /** Wire the fault injector (null disables injection). */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /**
     * Wire the access-path invalidation epoch (null disables). Every
     * mapping mutation that can change a cached translation --
     * protect/unprotect, COW abort, private-frame drop, clone,
     * mapShared -- bumps it so cached translations die before they
     * can go stale. A serviced COW fault needs no bump: nothing is
     * ever cached for a PrivateCow page whose private frame does not
     * exist yet.
     */
    void setEpoch(InvalidationEpoch *epoch) { _epoch = epoch; }

    /** Wire the trace recorder: serviced COW faults emit CowFault
     *  events (null disables). */
    void setTrace(obs::TraceRecorder *trace) { _trace = trace; }

    /** COW faults abandoned because no frame/twin was available. */
    std::uint64_t cowAborts() const
    {
        return static_cast<std::uint64_t>(_statCowAborts.value());
    }

    /**
     * Translate @p vaddr for an access by @p pid.
     *
     * Handles first-touch accounting and COW faults. Panics on an
     * unmapped page (a simulated segfault is always a harness bug).
     */
    TranslateResult translate(ProcessId pid, Addr vaddr, bool is_write);

    /**
     * Translate without side effects (no faults, no accounting).
     *
     * Returns false if unmapped. Used by diagnostic readers.
     */
    bool translatePeek(ProcessId pid, Addr vaddr, Addr &paddr) const;

    /** Data-path read: translate page-by-page and copy bytes out. */
    void read(ProcessId pid, Addr vaddr, void *buf, std::size_t size);

    /** Data-path write: translate page-by-page and copy bytes in. */
    void write(ProcessId pid, Addr vaddr, const void *buf,
               std::size_t size);

    /**
     * Read through the always-shared mapping, ignoring PrivateCow
     * divergence (the paper's first mmap of the shm file).
     */
    void readShared(ProcessId pid, Addr vaddr, void *buf,
                    std::size_t size);

    /** Total soft (first-touch) page faults taken. */
    std::uint64_t softFaults() const;

    /** Total COW faults taken. */
    std::uint64_t cowFaults() const;

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    PageEntry &entryForAccess(ProcessId pid, Addr vaddr);
    /** Revert @p entry to SharedRW after an unserviceable COW fault. */
    void abandonCow(ProcessId pid, VPage vpage, PageEntry &entry);

    void
    bumpEpoch()
    {
        if (_epoch)
            _epoch->bump();
    }

    PhysicalMemory _phys;
    std::vector<std::unique_ptr<AddressSpace>> _spaces;
    CowCallback _cowCallback;
    CowAbortCallback _cowAbortCallback;
    FaultInjector *_faults = nullptr;
    obs::TraceRecorder *_trace = nullptr;
    InvalidationEpoch *_epoch = nullptr;

    stats::Scalar _statSoftFaults;
    stats::Scalar _statCowFaults;
    stats::Scalar _statCowAborts;
    stats::Scalar _statProtects;
    stats::Scalar _statUnprotects;
    stats::Scalar _statClones;
    stats::Scalar _statCloneFails;
};

} // namespace tmi

#endif // TMI_MEM_MMU_HH
