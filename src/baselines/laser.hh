/**
 * @file
 * A LASER-like baseline runtime (Luo et al., HPCA 2016).
 *
 * LASER detects contention exactly the way Tmi does -- PEBS HITM
 * sampling -- but repairs it with a *software store buffer* applied
 * to contended regions through dynamic binary instrumentation,
 * preserving full TSO semantics. The consequences the paper
 * documents, reproduced here by the cost model:
 *
 *  - repaired accesses avoid coherence traffic but pay an
 *    instrumentation tax on every load and store of a repaired page,
 *    so LASER captures only ~24% of the manual-fix speedup;
 *  - TSO requires draining the buffer at every synchronization or
 *    non-relaxed atomic operation, so LASER declines to repair
 *    workloads with frequent synchronization (the Boost
 *    microbenchmarks).
 *
 * For apples-to-apples robustness sweeps, LASER carries the same
 * RobustnessConfig and shared ladder (runtime/ladder.hh) as Tmi and
 * Sheriff: when armed, an effectiveness monitor un-repairs pages
 * whose instrumentation tax dwarfs the avoided-HITM benefit (the
 * paper's histogram slowdown becomes a recoverable event instead of
 * a permanent tax), a perf-health pass stops repairing off
 * persistently lossy sampling, and RecoverUp climbs back from
 * detect-only after clean windows. The monitor defaults *off*: stock
 * LASER keeps its documented behaviour unless a sweep arms it via
 * ExperimentConfig::monitor. A PTSB watchdog does not apply --
 * LASER's store buffer drains at every sync by construction, so it
 * cannot livelock the way an uncommitted PTSB can.
 */

#ifndef TMI_BASELINES_LASER_HH
#define TMI_BASELINES_LASER_HH

#include <unordered_set>

#include "core/machine.hh"
#include "detect/detector.hh"
#include "runtime/ladder.hh"

namespace tmi
{

/** LASER configuration. */
struct LaserConfig
{
    DetectorConfig detector;
    Cycles analysisInterval = 2'000'000;
    /** DBI cost per instrumented load on a repaired page. */
    Cycles bufferedLoadCost = 10;
    /** DBI cost per instrumented store on a repaired page. */
    Cycles bufferedStoreCost = 26;
    /** TSO drain at each sync/atomic once repair is active. */
    Cycles drainCost = 900;
    /**
     * Repair gate: if the application performs more than this many
     * sync+atomic operations per simulated second, the store buffer
     * would thrash and LASER leaves the program unrepaired.
     */
    double maxSyncRatePerSec = 1e6;

    /** Self-healing parity knobs (see file comment for defaults;
     *  watchdogEnabled is ignored -- no PTSB to watch). */
    RobustnessConfig robust{.monitorEnabled = false,
                            .watchdogEnabled = false};
};

/** HITM detection + software-store-buffer repair runtime. */
class LaserRuntime : public RuntimeHooks
{
  public:
    LaserRuntime(Machine &machine, const LaserConfig &config = {});

    /** Install hooks and launch the detection thread. */
    void attach();

    bool interceptAccess(ThreadId tid, Addr va, bool is_write,
                         Cycles &cost) override;
    bool interceptArmed() override { return !_repairedPages.empty(); }
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onAtomicOp(ThreadId tid, MemOrder order,
                    bool is_rmw) override;

    /** True once at least one page is being repaired. */
    bool repairActive() const { return !_repairedPages.empty(); }

    /** True if the sync-rate gate suppressed repair. */
    bool repairDeclined() const { return _declined; }

    Detector &detector() { return _detector; }

    /** The shared ladder (detect-and-repair -> detect-only): state
     *  and counters, in parity with TmiRuntime. */
    const Ladder &ladder() const { return _ladder; }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    void detectionLoop(ThreadApi &api);
    std::uint64_t syncOpsSoFar() const;

    /** The ladder's health checks for one analysis window, each
     *  followed by LASER's rung action when it trips. */
    void checkHealth(Cycles window);

    /** Remove the instrumentation from every repaired page. */
    void unrepair(const char *reason);

    Machine &_m;
    LaserConfig _cfg;
    Ladder _ladder;
    Detector _detector;
    std::unordered_set<VPage> _repairedPages;
    bool _declined = false;
    std::uint64_t _rmwAtomics = 0;
    /** DBI taxes + drains this window (effectiveness). */
    Cycles _windowOverhead = 0;

    stats::Scalar _statBufferedAccesses;
    stats::Scalar _statDrains;
};

} // namespace tmi

#endif // TMI_BASELINES_LASER_HH
