#include "sheriff.hh"

#include <utility>

namespace tmi
{

namespace
{

/** Rung names, indexed by SheriffRung. */
constexpr const char *rungNames[] = {"dissolved", "partial-isolation",
                                     "full-isolation"};

} // namespace

SheriffRuntime::SheriffRuntime(Machine &machine,
                               const SheriffConfig &config)
    : _m(machine), _cfg(config),
      _ladder(machine, _cfg.robust, "sheriff", rungNames,
              static_cast<int>(SheriffRung::FullIsolation)),
      _trace(machine.trace())
{
}

void
SheriffRuntime::attach()
{
    _m.setHooks(this);
    _ladder.routeCowFaults(_ptsbs, _windowOverhead);
    if (_cfg.robust.watchdogEnabled || _cfg.robust.monitorEnabled) {
        _m.spawnSystemThread(
            "sheriff-watchdog",
            [this](ThreadApi &api) { supervisionLoop(api); },
            /*daemon=*/true);
    }
}

void
SheriffRuntime::onThreadCreate(ThreadId tid)
{
    if (rung() == SheriffRung::Dissolved)
        return; // isolation abandoned: new threads run plain
    // Every thread runs as a process from birth, with all of the
    // heap protected. A clone failure is retried with backoff, the
    // same transactional-T2P policy Tmi applies (here the transaction
    // is a single thread, so the rollback is just the retry wait).
    const RobustnessConfig &rc = _cfg.robust;
    ProcessId pid = invalidProcessId;
    Cycles backoff = rc.t2pRetryBackoff;
    for (unsigned attempt = 1; attempt <= rc.t2pMaxAttempts;
         ++attempt) {
        pid = _m.mmu().cloneAddressSpace(_m.processOf(tid));
        if (pid != invalidProcessId)
            break;
        _ladder.t2pAborted(tid, "sheriff clone failed");
        if (attempt == rc.t2pMaxAttempts)
            break;
        warn("sheriff: clone attempt %u/%u for thread %u failed; "
             "backing off %lu cycles",
             attempt, rc.t2pMaxAttempts,
             static_cast<unsigned>(tid),
             static_cast<unsigned long>(backoff));
        _m.sched().penalize(tid, rc.t2pAbortCost + backoff);
        backoff *= 2;
    }
    if (pid == invalidProcessId) {
        degradeTo(SheriffRung::PartialIsolation,
                  "address-space clone failed on every attempt; "
                  "thread stays plain");
        return;
    }
    _m.setThreadProcess(tid, pid);
    auto ptsb = std::make_unique<Ptsb>(_m.mmu(), pid, _cfg.ptsbCosts,
                                       &_m.cache(), &_m.faults());
    VPage heap_first = Machine::heapBase >> _m.config().pageShift;
    std::uint64_t heap_pages = _m.heapRegion().pages();
    Cycles cost = 0;
    for (std::uint64_t i = 0; i < heap_pages; ++i)
        cost += ptsb->protectPage(heap_first + i);
    _ptsbs.emplace(pid, std::move(ptsb));
    _m.sched().penalize(tid, _cfg.t2pCostPerThread + cost);
    ++_statConversions;
}

Addr
SheriffRuntime::onSyncObjectInit(ThreadId tid, Addr va)
{
    (void)tid;
    (void)va;
    // Processes cannot share plain pthread objects; Sheriff also
    // places them in process-shared memory.
    return _m.internalAlloc(lineBytes);
}

void
SheriffRuntime::onSyncAcquire(ThreadId tid)
{
    commitThread(tid);
}

void
SheriffRuntime::onSyncRelease(ThreadId tid)
{
    commitThread(tid);
}

void
SheriffRuntime::onHeapGrow(VPage first, std::uint64_t n)
{
    if (rung() == SheriffRung::Dissolved)
        return;
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        for (std::uint64_t i = 0; i < n; ++i)
            cost += ptsb->protectPage(first + i);
    }
    if (cost && _m.sched().current())
        _m.sched().advance(cost);
}

void
SheriffRuntime::commitThread(ThreadId tid)
{
    if (rung() == SheriffRung::Dissolved)
        return;
    auto it = _ptsbs.find(_m.processOf(tid));
    if (it == _ptsbs.end())
        return;
    CommitResult res = it->second->commit();
    ++_statCommits;
    Cycles cost = res.cost;
    if (_cfg.detectMode)
        cost += _cfg.detectAnalysisPerPage * res.pagesDiffed;
    _windowOverhead += cost;
    _windowLinesMerged += res.linesMerged;
    _m.sched().advance(cost);
}

void
SheriffRuntime::supervisionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    while (true) {
        m.sched().sleepUntil(last + _cfg.monitorInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;
        last = now;
        if (rung() == SheriffRung::Dissolved)
            continue; // final: nothing left to supervise
        if (_cfg.robust.watchdogEnabled &&
            _ladder.watchdog(_ptsbs, window)) {
            dissolve("repeated PTSB-induced livelock");
        }
        if (!_cfg.robust.monitorEnabled ||
            rung() == SheriffRung::Dissolved) {
            continue;
        }
        // Sheriff isolates from birth, so there is no pre-repair HITM
        // baseline to learn (unlike Tmi). Each merged line stands in
        // for a coherence transfer isolation avoided: every one was a
        // write that would otherwise have invalidated the line under
        // a sharer.
        Cycles overhead = std::exchange(_windowOverhead, 0);
        double benefit =
            static_cast<double>(std::exchange(_windowLinesMerged, 0)) *
            static_cast<double>(_cfg.robust.hitmCostEstimate);
        if (_ladder.regressed(window, overhead, benefit))
            dissolve("isolation overhead dwarfs its benefit");
    }
}

void
SheriffRuntime::dissolve(const char *reason)
{
    if (_cfg.buggyDissolveOrder) {
        // TEST-ONLY: the pre-fix ordering. Paying the dissolution
        // cost first yields this fiber while the rung still reads
        // FullIsolation; a thread spawned in that window is converted
        // and its PTSB never commits again (lost writes). Kept behind
        // the flag so the chaos oracle's regression test can prove it
        // catches exactly this bug.
        Cycles cost = dissolveAll(_ptsbs);
        if (_m.sched().current())
            _m.sched().advance(cost);
        degradeTo(SheriffRung::Dissolved, reason);
        finishDissolve(reason);
        return;
    }
    // Drop the rung BEFORE paying the dissolution cost: advance()
    // yields this fiber, and a thread created during that window
    // must see Dissolved and stay plain -- converting it would leave
    // a PTSB nobody ever commits again (lost writes).
    degradeTo(SheriffRung::Dissolved, reason);
    Cycles cost = dissolveAll(_ptsbs);
    finishDissolve(reason);
    if (_m.sched().current())
        _m.sched().advance(cost);
}

void
SheriffRuntime::finishDissolve(const char *reason)
{
    _m.flushTlbs();
    _ladder.invariants().afterDissolve("sheriff dissolve", _ptsbs);
    _ladder.invariants().afterUnrepair("sheriff dissolve");
    ++_statUnrepairs;
    if (_trace)
        _trace->recordHere(obs::EventKind::Unrepair, 1, 0, reason);
    warn("sheriff: isolation dissolved (%s)", reason);
}

void
SheriffRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("conversions", &_statConversions,
                    "threads wrapped in processes");
    group.addScalar("commitCalls", &_statCommits,
                    "PTSB commit invocations");
    group.addScalar("t2pAborts", &_ladder.stats().t2pAborts,
                    "aborted address-space clone attempts");
    group.addScalar("unrepairs", &_statUnrepairs,
                    "isolation dissolutions");
    group.addScalar("watchdogFlushes", &_ladder.stats().watchdogFlushes,
                    "watchdog force-commit events");
    group.addScalar("ladderDrops", &_ladder.stats().drops,
                    "degradation-ladder transitions");
    group.addScalar("cowFallbacks", &_ladder.stats().cowFallbacks,
                    "COW faults degraded to shared writes");
    _ladder.invariants().regStats(group);
}

} // namespace tmi
