/**
 * @file
 * The Tmi runtime (paper section 3).
 *
 * Tmi is compatible-by-default: applications run essentially
 * untouched while a detection thread consumes PEBS HITM records.
 * Only when meaningful false sharing is detected does Tmi stop the
 * application, convert each thread into a process (giving it a
 * private page table), and enable the page twinning store buffer on
 * exactly the pages that exhibit false sharing. Code-centric
 * consistency keeps the PTSB out of atomic and assembly regions so
 * their memory-model guarantees survive.
 *
 * Modes:
 *  - AllocOnly: only the process-shared allocator redirection
 *    (the paper's tmi-alloc bars in Figure 7);
 *  - DetectOnly: adds perf monitoring, the detection thread, and
 *    process-shared sync redirection (tmi-detect);
 *  - DetectAndRepair: full system (tmi-protect).
 *
 * The configured mode is also the top of a *degradation ladder*: the
 * runtime drops one rung at a time (DetectAndRepair -> DetectOnly ->
 * AllocOnly) when its own machinery misbehaves -- T2P conversion
 * failing repeatedly, a repair that costs more than it saves, a
 * PTSB-induced livelock, or persistently unreliable perf sampling.
 * Every rung keeps the application correct; each drop only sheds an
 * optimization. The ladder mechanics and health checks are shared
 * with Sheriff and LASER (runtime/ladder.hh); the rung actions are
 * Tmi's own.
 */

#ifndef TMI_RUNTIME_TMI_RUNTIME_HH
#define TMI_RUNTIME_TMI_RUNTIME_HH

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "consistency/ccc.hh"
#include "core/machine.hh"
#include "detect/detector.hh"
#include "ptsb/ptsb.hh"
#include "runtime/ladder.hh"

namespace tmi
{

/** Operating mode of the runtime (also a ladder rung, see above). */
enum class TmiMode
{
    AllocOnly,
    DetectOnly,
    DetectAndRepair,
};

/** Tmi runtime configuration. */
struct TmiConfig
{
    TmiMode mode = TmiMode::DetectAndRepair;
    /** Code-centric consistency on/off (off reproduces Fig. 11/12). */
    bool cccEnabled = true;
    /** Ablation: protect the whole heap instead of targeted pages. */
    bool ptsbEverywhere = false;

    DetectorConfig detector;
    PtsbCosts ptsbCosts;
    RobustnessConfig robust;

    /**
     * Simulated cycles between detector analyses. The paper analyzes
     * once per second on minute-long runs; our runs are ~10-100 ms
     * of simulated time, so the cadence is scaled to match
     * (documented in EXPERIMENTS.md).
     */
    Cycles analysisInterval = 2'000'000;

    /** ptrace stop + trampoline + fork, charged per converted thread
     *  (Table 3 reports the total under 200 us). */
    Cycles t2pCostPerThread = 110'000;

    /** Modeled per-thread perf ring size for Figure 8 accounting
     *  (the paper attributes ~90 MB to perf buffers + detector
     *  structures on small apps). */
    std::uint64_t modeledRingBytesPerThread = 16ULL << 20;

    bool operator==(const TmiConfig &) const = default;
};

/** Collect TmiConfig constraint violations under @p prefix. */
void validateConfig(const TmiConfig &config,
                    std::vector<ConfigError> &errors,
                    const std::string &prefix = "TmiConfig");

/** The Tmi runtime: implements every Machine hook. */
class TmiRuntime : public RuntimeHooks
{
  public:
    TmiRuntime(Machine &machine, const TmiConfig &config = {});

    /**
     * Install hooks, wire the COW callbacks, and (except in AllocOnly
     * mode) launch the per-application detection thread. Call before
     * spawning any application thread. Rejects nonsensical configs
     * with fatal().
     */
    void attach();

    /** @name RuntimeHooks */
    /// @{
    void onThreadCreate(ThreadId tid) override;
    void onThreadExit(ThreadId tid) override;
    bool bypassPrivate(ThreadId tid) override;
    bool atomicsBypassPrivate() override;
    void onAtomicOp(ThreadId tid, MemOrder order,
                    bool is_rmw) override;
    void onRegionEnter(ThreadId tid, RegionKind kind) override;
    void onRegionExit(ThreadId tid) override;
    Addr onSyncObjectInit(ThreadId tid, Addr va) override;
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onHeapGrow(VPage first, std::uint64_t n) override;
    /// @}

    /** @name Experiment queries */
    /// @{
    /** True while converted threads have pages under the PTSB (an
     *  un-repair turns this back off). */
    bool repairActive() const
    {
        return _converted && !_protectedPages.empty();
    }

    /** Simulated time at which repair engaged (Table 3 Unrepaired). */
    Cycles repairStartCycles() const { return _repairStart; }

    /** Total thread-to-process conversion time (Table 3 T2P). */
    Cycles t2pCycles() const { return _t2pTotal; }

    /** Total PTSB commits across all converted threads. */
    std::uint64_t totalCommits() const { return sumCommits(_ptsbs); }

    /** Racy-merge bytes observed across all PTSBs (should be zero
     *  for data-race-free programs, Lemma 3.1). */
    std::uint64_t totalConflictBytes() const
    {
        return sumConflictBytes(_ptsbs);
    }

    /** Pages currently under targeted protection. */
    std::size_t protectedPageCount() const
    {
        return _protectedPages.size();
    }

    /**
     * Tmi's memory overhead beyond the application's own
     * allocations: perf rings, detector metadata, twins, and the
     * internal process-shared region (Figure 8).
     */
    std::uint64_t overheadBytes() const;

    Detector &detector() { return _detector; }
    CodeCentricConsistency &ccc() { return _ccc; }
    /// @}

    /** @name Robustness queries */
    /// @{
    /** Current degradation-ladder rung (== cfg.mode until a drop). */
    TmiMode rung() const { return static_cast<TmiMode>(_ladder.rung()); }

    /** Ladder state and counters: T2P aborts, un-repairs, watchdog
     *  fires, COW fallbacks, drops, recoveries, probe violations. */
    const Ladder &ladder() const { return _ladder; }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    void detectionLoop(ThreadApi &api);

    /**
     * Transactionally convert every running thread. On any per-thread
     * failure (clone fault, thread refusing to stop) the whole batch
     * is rolled back: already-converted threads rejoin their original
     * process and their PTSBs are destroyed, leaving the address-space
     * state exactly as before the attempt.
     *
     * @return true when every thread converted.
     */
    bool tryConvertAllThreads();

    /**
     * Drive tryConvertAllThreads with exponential backoff up to
     * robust.t2pMaxAttempts; exhausting the budget degrades to
     * DetectOnly.
     */
    bool engageRepair();

    /** @return the new pid, or invalidProcessId when the clone
     *  failed (caller decides how to degrade). */
    ProcessId convertThread(ThreadId tid);

    void protectPageEverywhere(VPage vpage);
    void commitThread(ThreadId tid);

    /**
     * Roll repair back: commit and unprotect everything, everywhere.
     * Threads stay processes (their page tables are now all-shared,
     * which is behaviourally identical to unconverted threads), so
     * repair can re-engage later by re-protecting pages.
     *
     * @return cycle cost of the dissolution, to charge the caller.
     */
    Cycles unrepair(const char *reason);

    /** One-way ladder transition (no-op if already at or below
     *  @p mode). */
    void degradeTo(TmiMode mode, const char *reason)
    {
        _ladder.drop(static_cast<int>(mode), reason);
    }

    /** The ladder's health checks for one analysis window, each
     *  followed by Tmi's rung action when it trips. */
    void checkHealth(Cycles window);

    Machine &_m;
    TmiConfig _cfg;
    Ladder _ladder;
    /** The machine's recorder, or null when tracing is off. */
    obs::TraceRecorder *_trace;
    CodeCentricConsistency _ccc;
    Detector _detector;

    PtsbMap _ptsbs;
    std::unordered_set<VPage> _protectedPages;
    bool _converted = false;
    Cycles _repairStart = 0;
    Cycles _t2pTotal = 0;

    /** Commit + twin-copy cycles this window (effectiveness). */
    Cycles _windowOverhead = 0;

    stats::Scalar _statConversions;
    stats::Scalar _statPageProtections;
    stats::Scalar _statSyncRedirects;
    stats::Scalar _statFlushCommits;
};

} // namespace tmi

#endif // TMI_RUNTIME_TMI_RUNTIME_HH
