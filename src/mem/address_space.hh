/**
 * @file
 * Per-process virtual address space: the simulated page table.
 *
 * Threads of one process share an AddressSpace. When Tmi converts a
 * thread to a process (T2P), the thread receives a clone of the page
 * table; shared mappings keep pointing at the same physical frames,
 * so memory stays coherent until a page is deliberately made
 * process-private for repair.
 */

#ifndef TMI_MEM_ADDRESS_SPACE_HH
#define TMI_MEM_ADDRESS_SPACE_HH

#include <unordered_map>

#include "mem/shm.hh"

namespace tmi
{

/** How a virtual page is currently mapped. */
enum class MapKind : std::uint8_t
{
    SharedRW,   //!< shared mapping, reads and writes hit the file frame
    PrivateCow, //!< read-only; first write copies the frame (repair)
};

/** One page-table entry. */
struct PageEntry
{
    /** Backing shm region (all application memory is file-backed). */
    ShmRegion *backing = nullptr;
    /** Page index within the backing region. */
    std::uint64_t filePage = 0;
    /** Private frame after a COW fault; invalidPPage until then. */
    PPage privateFrame = invalidPPage;
    /** Current mapping mode. */
    MapKind kind = MapKind::SharedRW;
    /** First access by this process already accounted (soft fault). */
    bool touched = false;

    /** Frame an access should use given the current mapping. */
    PPage
    activeFrame() const
    {
        if (kind == MapKind::PrivateCow && privateFrame != invalidPPage)
            return privateFrame;
        return backing->frameFor(filePage);
    }

    /** True when translating through this entry has no side effect
     *  -- no soft fault, no COW fault, no stats, no cost -- for reads
     *  and writes alike: touched, and either SharedRW or PrivateCow
     *  with its private frame already serviced. */
    bool
    pure() const
    {
        return touched && (kind == MapKind::SharedRW ||
                           privateFrame != invalidPPage);
    }
};

/** A simulated process page table. */
class AddressSpace
{
  public:
    explicit AddressSpace(ProcessId pid) : _pid(pid) {}

    ProcessId pid() const { return _pid; }

    /** Look up the entry for @p vpage; null if unmapped. */
    PageEntry *
    find(VPage vpage)
    {
        auto it = _table.find(vpage);
        return it == _table.end() ? nullptr : &it->second;
    }

    const PageEntry *
    find(VPage vpage) const
    {
        auto it = _table.find(vpage);
        return it == _table.end() ? nullptr : &it->second;
    }

    /** Install or replace the entry for @p vpage. */
    void
    install(VPage vpage, const PageEntry &entry)
    {
        _table[vpage] = entry;
    }

    /** Remove the entry for @p vpage. */
    void erase(VPage vpage) { _table.erase(vpage); }

    /** Number of mapped pages. */
    std::size_t mappedPages() const { return _table.size(); }

    /** Iterate all entries (for clone and teardown). */
    const std::unordered_map<VPage, PageEntry> &table() const
    {
        return _table;
    }

    std::unordered_map<VPage, PageEntry> &table() { return _table; }

  private:
    ProcessId _pid;
    std::unordered_map<VPage, PageEntry> _table;
};

} // namespace tmi

#endif // TMI_MEM_ADDRESS_SPACE_HH
