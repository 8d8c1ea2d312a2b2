/**
 * @file
 * Ladder-transition invariant probes.
 *
 * Every self-healing transition (dissolve, un-repair, ladder drop or
 * recovery) promises to leave the machine in a state another
 * component could have produced legitimately: no PTSB may keep
 * uncommitted twins after a dissolve (they would be lost writes), no
 * address space may keep private isolation after an un-repair (an
 * orphaned frame diverges silently forever), and the access-path
 * caches must be invalidated across any transition that changes hook
 * behaviour. The chaos oracle treats a probe violation as a failure
 * even when the workload's results happen to come out right -- the
 * PR 3 dissolve-ordering bug produced exactly such a latent state
 * before it corrupted anything.
 *
 * Probes run only at transitions (rare by construction), so they can
 * afford full page-table scans; they charge no simulated cycles.
 */

#ifndef TMI_RUNTIME_INVARIANTS_HH
#define TMI_RUNTIME_INVARIANTS_HH

#include <cstdint>

#include "common/stats.hh"
#include "ptsb/ptsb.hh"

namespace tmi
{

class Machine;

/** Transition-time invariant checker; owned by each runtime's
 *  ladder (htm-elide owns its own). */
class InvariantProbe
{
  public:
    explicit InvariantProbe(Machine &machine) : _m(machine) {}

    /**
     * After dissolving @p ptsbs: every buffer must hold zero
     * uncommitted twins and protect zero pages. A dirty page here is
     * a write the application already performed but nobody will ever
     * commit.
     */
    void afterDissolve(const char *who, const PtsbMap &ptsbs);

    /**
     * After an un-repair: no address space may still map a page
     * PrivateCow or hold a live private frame. Such a page keeps
     * diverging from shared memory with no PTSB left to merge it.
     */
    void afterUnrepair(const char *who);

    /**
     * After a transactional commit: the region must not have observed
     * a conflicting remote store (an observing txn aborts instead; a
     * commit that saw one published state another thread raced on).
     * The htm runtime probes this on every commit -- it is the safety
     * half of a backend whose chaos verdicts are otherwise about
     * liveness.
     */
    void afterTxnCommit(const char *who, bool conflict_observed);

    /** Epoch value to capture before a ladder transition... */
    std::uint64_t epochBefore() const;

    /** ...and the check that the transition bumped it: stale access
     *  caches would keep serving the pre-transition hook answers. */
    void checkEpochBumped(const char *who, std::uint64_t before);

    /** Probe failures so far (0 = every transition kept its word). */
    std::uint64_t violations() const
    {
        return static_cast<std::uint64_t>(_statViolations.value());
    }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    void violation(const char *who, const char *what);

    Machine &_m;
    stats::Scalar _statViolations;
};

} // namespace tmi

#endif // TMI_RUNTIME_INVARIANTS_HH
