#include "invariants.hh"

#include "common/logging.hh"
#include "core/machine.hh"

namespace tmi
{

void
InvariantProbe::violation(const char *who, const char *what)
{
    ++_statViolations;
    warn("invariant: %s violated by %s", what, who);
}

void
InvariantProbe::afterDissolve(const char *who, const PtsbMap &ptsbs)
{
    for (const auto &[pid, ptsb] : ptsbs) {
        if (ptsb->dirtyPages() != 0)
            violation(who, "dissolved PTSB holds uncommitted twins");
        if (ptsb->protectedPages() != 0)
            violation(who, "dissolved PTSB still protects pages");
    }
}

void
InvariantProbe::afterUnrepair(const char *who)
{
    Mmu &mmu = _m.mmu();
    for (ProcessId pid = 0;
         pid < static_cast<ProcessId>(mmu.spaceCount()); ++pid) {
        for (const auto &[vpage, entry] : mmu.space(pid).table()) {
            (void)vpage;
            if (entry.kind == MapKind::PrivateCow ||
                entry.privateFrame != invalidPPage) {
                violation(who,
                          "un-repair orphaned a private mapping");
                return; // one report per un-repair is enough
            }
        }
    }
}

void
InvariantProbe::afterTxnCommit(const char *who, bool conflict_observed)
{
    if (conflict_observed) {
        violation(who, "txn committed after observing a conflicting "
                       "remote store");
    }
}

std::uint64_t
InvariantProbe::epochBefore() const
{
    return _m.accessEpoch().value();
}

void
InvariantProbe::checkEpochBumped(const char *who,
                                 std::uint64_t before)
{
    if (_m.accessEpoch().value() <= before)
        violation(who, "ladder transition left the access epoch "
                       "unbumped");
}

void
InvariantProbe::regStats(stats::StatGroup &group)
{
    group.addScalar("invariantViolations", &_statViolations,
                    "ladder-transition invariant probe failures");
}

} // namespace tmi
