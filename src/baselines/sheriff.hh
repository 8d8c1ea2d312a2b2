/**
 * @file
 * A Sheriff-like baseline runtime (Liu & Berger, OOPSLA 2011; paper
 * sections 2.2 and 4).
 *
 * Sheriff wraps every thread in a process from the moment it is
 * created and page-protects all of memory, running a PTSB
 * everywhere, always. That gives excellent false sharing repair --
 * close to manual fixes -- but two structural problems the paper
 * documents:
 *
 *  1. overhead without contention: every written page is twinned,
 *     diffed, and merged at every synchronization operation (27%
 *     average overhead in the paper);
 *  2. no code-centric consistency: atomics and inline assembly are
 *     buffered like plain stores, so programs that rely on them
 *     (canneal, leveldb, shptr-relaxed) produce wrong results or
 *     hang. In this reproduction those failures are emergent: the
 *     experiment driver observes validation failures and timeouts.
 *
 * sheriff-detect additionally pays a per-page analysis cost at each
 * commit (it inspects diffs to report sharing), making it heavier
 * than sheriff-protect.
 *
 * For apples-to-apples robustness sweeps against Tmi, Sheriff carries
 * the same RobustnessConfig and the shared ladder (runtime/ladder.hh)
 * with its own rungs: full-isolation -> partial-isolation (a clone
 * failure exhausted its retry budget, so some threads run plain) ->
 * dissolved (the watchdog or effectiveness monitor gave up on
 * isolation entirely). Both drops are final -- a thread is isolated
 * only at birth -- so RecoverUp does not apply and Config::validate()
 * rejects it. The clone retry loop is always armed; the watchdog and
 * monitor default *off* because stock Sheriff has no such machinery
 * -- its documented failure modes must stay emergent unless a sweep
 * arms them via ExperimentConfig::watchdog / ::monitor.
 */

#ifndef TMI_BASELINES_SHERIFF_HH
#define TMI_BASELINES_SHERIFF_HH

#include "core/machine.hh"
#include "ptsb/ptsb.hh"
#include "runtime/ladder.hh"

namespace tmi
{

/** Sheriff's degradation ladder (top to bottom). */
enum class SheriffRung
{
    Dissolved,        //!< isolation abandoned; plain execution
    PartialIsolation, //!< some threads could not be isolated
    FullIsolation,    //!< every thread in its own process
};

/** Sheriff configuration. */
struct SheriffConfig
{
    /** Detection flavor: extra per-page diff analysis at commits. */
    bool detectMode = false;
    PtsbCosts ptsbCosts;
    Cycles detectAnalysisPerPage = 2500;
    Cycles t2pCostPerThread = 110'000;

    /** Self-healing parity knobs (see file comment for defaults). */
    RobustnessConfig robust{.monitorEnabled = false,
                            .watchdogEnabled = false};
    /** Watchdog/monitor daemon cadence in simulated cycles. */
    Cycles monitorInterval = 2'000'000;

    /**
     * TEST-ONLY: reintroduce the dissolve-ordering bug this runtime
     * originally shipped with (the dissolution cost was paid --
     * yielding -- before the rung flipped, so a thread spawned inside
     * that window was converted and its PTSB never committed again:
     * lost writes). Exists so the chaos oracle's regression test can
     * prove it catches the bug; never set it outside tests.
     */
    bool buggyDissolveOrder = false;
};

/** Threads-as-processes, PTSB-everywhere runtime. */
class SheriffRuntime : public RuntimeHooks
{
  public:
    SheriffRuntime(Machine &machine, const SheriffConfig &config = {});

    /** Install hooks, the COW callbacks, and (when the watchdog or
     *  monitor is armed) the supervision daemon. */
    void attach();

    void onThreadCreate(ThreadId tid) override;
    void onThreadExit(ThreadId tid) override { commitThread(tid); }
    bool atomicsBypassPrivate() override { return false; }
    Addr onSyncObjectInit(ThreadId tid, Addr va) override;
    void onSyncAcquire(ThreadId tid) override;
    void onSyncRelease(ThreadId tid) override;
    void onHeapGrow(VPage first, std::uint64_t n) override;

    /** Total PTSB commits across all threads. */
    std::uint64_t totalCommits() const { return sumCommits(_ptsbs); }

    /** Racy-merge bytes across all PTSBs: Sheriff has no code-centric
     *  consistency, so atomics-based programs rack these up. */
    std::uint64_t totalConflictBytes() const
    {
        return sumConflictBytes(_ptsbs);
    }

    /** @name Robustness queries (parity with TmiRuntime) */
    /// @{
    SheriffRung rung() const
    {
        return static_cast<SheriffRung>(_ladder.rung());
    }

    /** Times isolation was torn down after engaging (0 or 1: a
     *  dissolution is final for Sheriff). */
    std::uint64_t unrepairs() const
    {
        return static_cast<std::uint64_t>(_statUnrepairs.value());
    }

    /** The shared ladder: state and counters (parity with Tmi). */
    const Ladder &ladder() const { return _ladder; }
    /// @}

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    void commitThread(ThreadId tid);
    void supervisionLoop(ThreadApi &api);

    /** Tear every PTSB down and fall to the Dissolved rung. */
    void dissolve(const char *reason);

    /** Shared dissolve bookkeeping + invariant probes. */
    void finishDissolve(const char *reason);

    /** One-way ladder transition with logging. */
    void degradeTo(SheriffRung rung, const char *reason)
    {
        _ladder.drop(static_cast<int>(rung), reason);
    }

    Machine &_m;
    SheriffConfig _cfg;
    Ladder _ladder;
    /** The machine's recorder, or null when tracing is off. */
    obs::TraceRecorder *_trace;
    PtsbMap _ptsbs;

    // Effectiveness-monitor state: per-window isolation overhead
    // (commit + COW costs) against a merged-lines benefit proxy.
    Cycles _windowOverhead = 0;
    std::uint64_t _windowLinesMerged = 0;

    stats::Scalar _statConversions;
    stats::Scalar _statCommits;
    stats::Scalar _statUnrepairs;
};

} // namespace tmi

#endif // TMI_BASELINES_SHERIFF_HH
