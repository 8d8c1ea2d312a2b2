#include "ladder.hh"

#include <utility>

#include "common/logging.hh"
#include "core/machine.hh"

namespace tmi
{

Ladder::Ladder(Machine &machine, const RobustnessConfig &rc,
               const char *who, std::span<const char *const> names,
               int top)
    : _m(machine), _invariants(machine), _rc(rc), _who(who),
      _names(names), _top(top), _rung(top)
{
}

void
Ladder::trace(obs::EventKind kind, std::uint64_t a0, std::uint64_t a1,
              const char *detail)
{
    if (obs::TraceRecorder *rec = _m.trace())
        rec->recordHere(kind, a0, a1, detail);
}

void
Ladder::drop(int to, const char *reason)
{
    if (to >= _rung)
        return;
    std::uint64_t epoch_before = _invariants.epochBefore();
    warn("%s: degrading %s -> %s (%s)", _who, _names[_rung],
         _names[to], reason);
    trace(obs::EventKind::LadderDrop, _rung, to, reason);
    _rung = to;
    ++_stats.drops;
    _dirty = true;
    _cleanWindows = 0;
    // Rung changes alter hook behaviour: kill the access-path caches.
    _m.accessEpoch().bump();
    _invariants.checkEpochBumped(_who, epoch_before);
}

void
Ladder::endWindow()
{
    bool dirty = std::exchange(_dirty, false);
    if (_rc.recoverUpWindows == 0 || _rung >= _top)
        return; // recovery off, or nothing to recover
    if (dirty) {
        _cleanWindows = 0;
        return;
    }
    if (++_cleanWindows < _rc.recoverUpWindows)
        return;
    _cleanWindows = 0;
    std::uint64_t epoch_before = _invariants.epochBefore();
    int from = _rung++;
    // A recovered rung starts with fresh failure budgets; otherwise
    // the first post-recovery hiccup would instantly re-drop.
    _unrepairs = 0;
    _watchdogFires = 0;
    _regressStreak = 0;
    _lossStreak = 0;
    ++_stats.recovers;
    warn("%s: recovering %s -> %s after %u clean windows",
         _who, _names[from], _names[_rung],
         _rc.recoverUpWindows);
    trace(obs::EventKind::LadderRecover, from, _rung,
          "clean-window streak");
    // Re-armed hooks change access behaviour: kill the caches.
    _m.accessEpoch().bump();
    _invariants.checkEpochBumped(_who, epoch_before);
}

bool
Ladder::perfUnreliable()
{
    std::uint64_t lost = _m.perf().recordsLost();
    std::uint64_t emitted = _m.perf().recordsEmitted();
    std::uint64_t d_lost = lost - std::exchange(_lastLost, lost);
    std::uint64_t d_kept = emitted - std::exchange(_lastEmitted, emitted);
    if (d_lost + d_kept < _rc.lostRecordsMinSamples)
        return false; // too few samples to judge this window
    double frac = static_cast<double>(d_lost) /
                  static_cast<double>(d_lost + d_kept);
    if (frac > _rc.lostRecordsFraction) {
        ++_lossStreak;
        _dirty = true;
    } else {
        _lossStreak = 0;
    }
    if (_lossStreak < _rc.lostRecordsWindows)
        return false;
    _lossStreak = 0;
    return true;
}

bool
Ladder::regressed(Cycles window, Cycles overhead, double benefit)
{
    if (window == 0 || ++_windowsJudged <= _rc.monitorWarmupWindows)
        return false; // let caches settle before judging
    bool bad =
        static_cast<double>(overhead) >
            static_cast<double>(window) * _rc.minOverheadFraction &&
        static_cast<double>(overhead) > benefit * _rc.regressFactor;
    _regressStreak = bad ? _regressStreak + 1 : 0;
    if (bad)
        _dirty = true;
    return _regressStreak >= _rc.regressWindows;
}

bool
Ladder::hitmRegressed(Cycles window, Cycles overhead, bool repaired)
{
    std::uint64_t hitm = _m.cache().hitmEvents();
    double window_hitm =
        static_cast<double>(hitm - std::exchange(_lastHitm, hitm));
    if (window == 0)
        return false;
    if (!repaired) {
        // Learn the baseline HITM rate so a later repair has
        // something to be compared against.
        double rate = window_hitm / static_cast<double>(window);
        _preRepairHitmRate = _preRepairHitmRate == 0.0
                                 ? rate
                                 : 0.75 * _preRepairHitmRate +
                                       0.25 * rate;
        ++_sinceUnrepair;
        return false;
    }
    if (!_rc.monitorEnabled)
        return false;
    double avoided =
        _preRepairHitmRate * static_cast<double>(window) - window_hitm;
    double benefit =
        avoided > 0
            ? avoided * static_cast<double>(_rc.hitmCostEstimate)
            : 0.0;
    return regressed(window, overhead, benefit);
}

bool
Ladder::watchdog(PtsbMap &ptsbs, Cycles window)
{
    Cycles flush_cost = 0;
    bool fired = false;
    for (auto &[pid, ptsb] : ptsbs) {
        PtsbWatch &w = _watch[pid];
        std::uint64_t commits = ptsb->commits();
        if (ptsb->dirtyPages() == 0 || commits != w.lastCommits) {
            w.lastCommits = commits;
            w.stall = 0;
            continue;
        }
        w.stall += window;
        if (w.stall < _rc.watchdogTimeout)
            continue;
        // This process has buffered writes nobody else can see and
        // has not committed for the whole stall: the Figure 12
        // cholesky livelock. Committing on its behalf is always
        // safe -- it is the flush the thread would eventually issue.
        flush_cost += ptsb->commit().cost;
        w.stall = 0;
        w.lastCommits = ptsb->commits();
        fired = true;
        trace(obs::EventKind::WatchdogFlush, pid);
    }
    if (!fired)
        return false;
    ++_watchdogFires;
    ++_stats.watchdogFlushes;
    _dirty = true;
    warn("%s: watchdog force-committed stalled PTSB(s), fire %u of %u",
         _who, _watchdogFires, _rc.watchdogMaxFlushes);
    _m.sched().advance(flush_cost);
    return _watchdogFires >= _rc.watchdogMaxFlushes;
}

void
Ladder::t2pAborted(ThreadId culprit, const char *why)
{
    ++_stats.t2pAborts;
    trace(obs::EventKind::T2pRollback, culprit, 0, why);
}

void
Ladder::routeCowFaults(PtsbMap &ptsbs, Cycles &overhead)
{
    _m.mmu().setCowCallback(
        [&ptsbs, &overhead](ProcessId pid, VPage vpage,
                            PPage shared_frame,
                            PPage private_frame) -> CowOutcome {
            auto it = ptsbs.find(pid);
            if (it == ptsbs.end())
                return {};
            CowOutcome out = it->second->onCowFault(
                vpage, shared_frame, private_frame);
            if (out.ok)
                overhead += out.cost;
            return out;
        });
    _m.mmu().setCowAbortCallback(
        [this, &ptsbs](ProcessId pid, VPage vpage) {
            // The MMU reverted the page to SharedRW (no frame or no
            // twin). Writes go straight to shared memory -- exactly
            // the unrepaired behaviour -- so only isolation is lost.
            auto it = ptsbs.find(pid);
            if (it != ptsbs.end())
                it->second->forgetPage(vpage);
            ++_stats.cowFallbacks;
            trace(obs::EventKind::CowFallback, vpage, pid);
        });
}

void
Ladder::unrepaired(const char *reason, int floor)
{
    _watch.clear();
    _regressStreak = 0;
    _windowsJudged = 0;
    _sinceUnrepair = 0;
    _watchdogFires = 0;
    ++_unrepairs;
    ++_stats.unrepairs;
    _dirty = true;
    trace(obs::EventKind::Unrepair, _unrepairs, 0, reason);
    warn("%s: un-repaired (%s); rollback %u of %u", _who,
         reason, _unrepairs, _rc.maxUnrepairs);
    if (_unrepairs >= _rc.maxUnrepairs)
        drop(floor, "repair rollback budget exhausted");
}

} // namespace tmi
