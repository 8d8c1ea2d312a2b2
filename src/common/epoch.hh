/**
 * @file
 * The global invalidation epoch governing the access-path caches.
 *
 * Every event that can change how a virtual address translates or
 * how the runtime hooks treat an access -- page protection and
 * unprotection, COW aborts, private-frame drops, address-space
 * clones, T2P rebinds, PTSB commits, ladder rung changes, LASER
 * store-buffer arm/disarm -- bumps this counter. Servicing a COW
 * fault does not: a PrivateCow page is cacheable only once its
 * private frame exists, so nothing for it was cached before the
 * fault.
 * The AccessPipeline tags everything it caches with the epoch value
 * and revalidates lazily on mismatch, so a bump is O(1) no matter
 * how much is cached.
 *
 * The rule for new code (DESIGN.md section 4d): if a mutation can
 * change the result of Mmu::translate or of any RuntimeHooks query
 * the pipeline snapshots, it must bump the epoch. Bumping too often
 * only costs cache misses; bumping too rarely serves stale
 * translations, which is a correctness bug.
 */

#ifndef TMI_COMMON_EPOCH_HH
#define TMI_COMMON_EPOCH_HH

#include <cstdint>

namespace tmi
{

/** Monotonic generation counter for access-path cache validity. */
class InvalidationEpoch
{
  public:
    /** Invalidate every cache entry tagged with an older value. */
    void bump() { ++_value; }

    std::uint64_t value() const { return _value; }

  private:
    /** Starts at 1 so zero-initialized tags are stale from birth. */
    std::uint64_t _value = 1;
};

} // namespace tmi

#endif // TMI_COMMON_EPOCH_HH
