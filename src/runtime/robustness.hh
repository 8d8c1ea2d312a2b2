/**
 * @file
 * Self-healing policy knobs shared by every supervising runtime.
 *
 * The driver hands Config::tmi.robust to every runtime. Tmi, Sheriff
 * and LASER read it through one degradation ladder
 * (runtime/ladder.hh), so robustness sweeps compare apples to apples;
 * only the rung actions are each runtime's own. htm-elide reads the
 * watchdog and RecoverUp knobs on its per-lock-site storm ladder.
 */

#ifndef TMI_RUNTIME_ROBUSTNESS_HH
#define TMI_RUNTIME_ROBUSTNESS_HH

#include "common/types.hh"

namespace tmi
{

/** Self-healing policy knobs (see each runtime's monitor passes). */
struct RobustnessConfig
{
    /** @name Transactional thread-to-process conversion */
    /// @{
    /** Attempts before giving up on repair entirely (>= 1). */
    unsigned t2pMaxAttempts = 4;
    /** Wait after an aborted attempt; doubles per retry. */
    Cycles t2pRetryBackoff = 50'000;
    /** Stall charged to each rolled-back thread (un-fork + resume). */
    Cycles t2pAbortCost = 20'000;
    /// @}

    /** @name Post-repair effectiveness monitor */
    /// @{
    bool monitorEnabled = true;
    /** Analysis windows to let caches settle before judging. */
    unsigned monitorWarmupWindows = 2;
    /** Regressed when overhead > benefit * regressFactor... */
    double regressFactor = 4.0;
    /** ...for this many consecutive windows. */
    unsigned regressWindows = 3;
    /** Overhead below this fraction of a window is never a
     *  regression (ignores noise when both sides are tiny). */
    double minOverheadFraction = 0.02;
    /** Estimated cycles saved per avoided HITM (~remote-dirty
     *  transfer latency). */
    Cycles hitmCostEstimate = 70;
    /** Windows to wait after an un-repair before repairing again. */
    unsigned repairCooldownWindows = 10;
    /** Un-repairs before conceding this workload (drop a rung). */
    unsigned maxUnrepairs = 2;
    /// @}

    /** @name Ladder recovery (RecoverUp) */
    /// @{
    /** Consecutive clean monitor windows on a degraded rung before
     *  climbing one rung back toward the configured mode, resetting
     *  the failure budgets. 0 disables recovery (drops are
     *  permanent, the pre-RecoverUp behaviour). A window is clean
     *  when nothing fired: no rung drop, un-repair, watchdog flush,
     *  regressed-effectiveness window, or lossy perf window. */
    unsigned recoverUpWindows = 0;
    /// @}

    /** @name PTSB livelock watchdog (cholesky, Figure 12) */
    /// @{
    bool watchdogEnabled = true;
    /** A PTSB holding dirty twins with no commits for this long is
     *  force-committed. Must be far above any honest inter-sync
     *  distance; the default only trips genuinely stuck runs. */
    Cycles watchdogTimeout = 2'000'000'000;
    /** Watchdog fires before un-repairing and dropping a rung. */
    unsigned watchdogMaxFlushes = 3;
    /// @}

    /** @name Perf-sampling health */
    /// @{
    /** A window whose lost-record fraction exceeds this is bad... */
    double lostRecordsFraction = 0.5;
    /** ...and this many consecutive bad windows drop a rung. */
    unsigned lostRecordsWindows = 5;
    /** Windows with fewer records than this are not judged. */
    std::uint64_t lostRecordsMinSamples = 16;
    /// @}

    bool operator==(const RobustnessConfig &) const = default;
};

} // namespace tmi

#endif // TMI_RUNTIME_ROBUSTNESS_HH
