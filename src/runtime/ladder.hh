/**
 * @file
 * The degradation ladder shared by the Tmi, Sheriff and LASER
 * runtimes.
 *
 * Rungs are numbered from 0 (the floor) up to the configured top;
 * each runtime names them and decides what they mean. The ladder owns
 * moving between rungs -- drop() and RecoverUp (endWindow()) -- and
 * the window measurements that decide when to move: the perf-health
 * loss streak, the effectiveness regress streak, the pre-repair
 * HITM-rate baseline, the un-repair budget and cooldown, the PTSB
 * stall watchdog, and COW-fallback accounting. Each runtime keeps its
 * rung actions (un-repair, dissolve, clearing instrumented pages) and
 * the gating of when each check runs. htm-elide keeps its own lazy
 * per-lock-site storm ladder.
 */

#ifndef TMI_RUNTIME_LADDER_HH
#define TMI_RUNTIME_LADDER_HH

#include <span>

#include "common/stats.hh"
#include "obs/trace.hh"
#include "ptsb/ptsb.hh"
#include "runtime/invariants.hh"
#include "runtime/robustness.hh"

namespace tmi
{

class Machine;

/** A runtime's degradation ladder and its health measurements. */
class Ladder
{
  public:
    /**
     * @param rc    the owning runtime's knobs (must outlive the ladder)
     * @param who   log prefix ("tmi", "sheriff", "laser"), static
     * @param names rung names, indexed by rung (0 = floor), static
     * @param top   the configured (starting) rung
     */
    Ladder(Machine &machine, const RobustnessConfig &rc,
           const char *who, std::span<const char *const> names,
           int top);

    /** The COW callbacks hold this object's address. */
    Ladder(const Ladder &) = delete;
    Ladder &operator=(const Ladder &) = delete;

    int rung() const { return _rung; }
    const char *rungName() const { return _names[_rung]; }

    /** The transition probe: the ladder checks its own epoch bumps;
     *  the runtime probes its dissolves and un-repairs. */
    InvariantProbe &invariants() { return _invariants; }

    /** Move down to @p to (no-op unless below the current rung):
     *  warn, LadderDrop event, stat, and an access-epoch bump. */
    void drop(int to, const char *reason);

    /** Close an analysis window. RecoverUp: after
     *  robust.recoverUpWindows consecutive clean windows below the
     *  top, climb one rung and reset the failure budgets. */
    void endWindow();

    /** Perf health: true when robust.lostRecordsWindows judged
     *  windows in a row lost too many records. */
    bool perfUnreliable();

    /** Effectiveness: after the warmup, true once
     *  robust.regressWindows windows in a row had @p overhead dwarf
     *  @p benefit (cycles the repair saved). */
    bool regressed(Cycles window, Cycles overhead, double benefit);

    /** regressed() for a repair that pays off in avoided HITMs (Tmi,
     *  LASER): an un-repaired window instead feeds the pre-repair
     *  HITM-rate baseline and the cooldown; a repaired one is judged
     *  against that baseline while the monitor is on. */
    bool hitmRegressed(Cycles window, Cycles overhead, bool repaired);

    /** Force-commit every PTSB holding dirty twins that has not
     *  committed for robust.watchdogTimeout, charging the flush. True
     *  once robust.watchdogMaxFlushes fires accrued. */
    bool watchdog(PtsbMap &ptsbs, Cycles window);

    /** Count (and trace) a T2P/clone attempt rolled back because
     *  thread @p culprit could not be converted. */
    void t2pAborted(ThreadId culprit, const char *why);

    /** Route the MMU's COW faults to @p ptsbs, adding their cost to
     *  @p overhead; a COW the MMU abandons is a counted fallback. */
    void routeCowFaults(PtsbMap &ptsbs, Cycles &overhead);

    /** Book an un-repair the runtime just carried out; drop to
     *  @p floor once robust.maxUnrepairs is spent. */
    void unrepaired(const char *reason, int floor);

    /** Within robust.repairCooldownWindows of an un-repair. */
    bool coolingDown() const
    {
        return _unrepairs > 0 &&
               _sinceUnrepair < _rc.repairCooldownWindows;
    }

    /** @name Reporting */
    /// @{
    /** Un-repairs and watchdog fires against the current budgets. */
    unsigned unrepairs() const { return _unrepairs; }
    unsigned watchdogFires() const { return _watchdogFires; }
    std::uint64_t t2pAborts() const { return count(_stats.t2pAborts); }
    std::uint64_t drops() const { return count(_stats.drops); }
    std::uint64_t recovers() const { return count(_stats.recovers); }
    std::uint64_t cowFallbacks() const
    {
        return count(_stats.cowFallbacks);
    }
    std::uint64_t invariantViolations() const
    {
        return _invariants.violations();
    }
    /// @}

    /** Counters the owning runtime registers under its own names. */
    struct Stats
    {
        stats::Scalar drops;
        stats::Scalar recovers;
        stats::Scalar unrepairs;
        stats::Scalar watchdogFlushes;
        stats::Scalar cowFallbacks;
        stats::Scalar t2pAborts;
    };
    const Stats &stats() const { return _stats; }

  private:
    static std::uint64_t
    count(const stats::Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    void trace(obs::EventKind kind, std::uint64_t a0,
               std::uint64_t a1 = 0, const char *detail = nullptr);

    struct PtsbWatch
    {
        std::uint64_t lastCommits = 0;
        Cycles stall = 0;
    };

    Machine &_m;
    InvariantProbe _invariants;
    const RobustnessConfig &_rc;
    const char *_who;
    std::span<const char *const> _names;
    int _top;
    int _rung;

    bool _dirty = false; //!< a health event hit this window
    unsigned _cleanWindows = 0;

    std::uint64_t _lastLost = 0;
    std::uint64_t _lastEmitted = 0;
    unsigned _lossStreak = 0;

    std::uint64_t _lastHitm = 0;
    double _preRepairHitmRate = 0; //!< EMA while un-repaired
    unsigned _windowsJudged = 0;   //!< since the last un-repair
    unsigned _regressStreak = 0;

    unsigned _unrepairs = 0;
    unsigned _sinceUnrepair = 0;

    std::unordered_map<ProcessId, PtsbWatch> _watch;
    unsigned _watchdogFires = 0;

    Stats _stats;
};

} // namespace tmi

#endif // TMI_RUNTIME_LADDER_HH
