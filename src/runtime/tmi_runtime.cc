#include "tmi_runtime.hh"

#include <utility>

namespace tmi
{

namespace
{

/** Rung names, indexed by TmiMode. */
constexpr const char *modeNames[] = {"alloc-only", "detect-only",
                                     "detect-and-repair"};

} // namespace

TmiRuntime::TmiRuntime(Machine &machine, const TmiConfig &config)
    : _m(machine), _cfg(config),
      _ladder(machine, _cfg.robust, "tmi", modeNames,
              static_cast<int>(config.mode)),
      _trace(machine.trace()), _ccc(config.cccEnabled),
      _detector(machine.instructions(), machine.addressMap(),
                machine.detectorConfig(config.detector))
{
}

void
validateConfig(const TmiConfig &config,
               std::vector<ConfigError> &errors,
               const std::string &prefix)
{
    if (config.analysisInterval == 0) {
        errors.push_back(
            {prefix + ".analysisInterval",
             "must be nonzero: the detection thread would re-run "
             "analysis every cycle without ever letting the "
             "application advance"});
    }
    if (config.robust.t2pMaxAttempts == 0) {
        errors.push_back(
            {prefix + ".robust.t2pMaxAttempts",
             "must be >= 1: zero attempts means repair can never "
             "engage, which is DetectOnly mode spelled confusingly"});
    }
    if (config.robust.watchdogEnabled &&
        config.robust.watchdogTimeout < config.analysisInterval) {
        errors.push_back(
            {prefix + ".robust.watchdogTimeout",
             "is below the analysis interval: every window with a "
             "dirty twin would be flushed, destroying the PTSB's "
             "benefit"});
    }
    validateConfig(config.detector, errors, prefix + ".detector");
}

void
TmiRuntime::attach()
{
    std::vector<ConfigError> errors;
    validateConfig(_cfg, errors);
    fatalIfConfigErrors(errors);
    _m.setHooks(this);
    _ladder.routeCowFaults(_ptsbs, _windowOverhead);
    if (_cfg.mode != TmiMode::AllocOnly) {
        _m.spawnSystemThread(
            "tmi-detector",
            [this](ThreadApi &api) { detectionLoop(api); },
            /*daemon=*/true);
    }
}

void
TmiRuntime::onThreadCreate(ThreadId tid)
{
    _ccc.threadStart(tid);
    if (_converted) {
        // Repair is already active: a newly created pthread is born
        // converted, with every targeted page protected.
        ProcessId pid = convertThread(tid);
        if (pid == invalidProcessId) {
            // Clone failed: the thread stays in its parent's process
            // and shares its parent's PTSB view. Less isolation, same
            // semantics (a per-process buffer, as in Sheriff).
            warn("tmi: could not isolate new thread %u; it remains "
                 "in its parent's process",
                 static_cast<unsigned>(tid));
            return;
        }
        Ptsb &ptsb = *_ptsbs.at(pid);
        for (VPage vpage : _protectedPages)
            ptsb.protectPage(vpage);
    }
}

void
TmiRuntime::onThreadExit(ThreadId tid)
{
    // Thread exit has release semantics (a joiner must observe all
    // of the thread's writes): publish any buffered pages.
    commitThread(tid);
}

bool
TmiRuntime::bypassPrivate(ThreadId tid)
{
    return _ccc.mustBypassPrivate(tid);
}

bool
TmiRuntime::atomicsBypassPrivate()
{
    // Running atomics directly on shared pages is how Tmi preserves
    // their atomicity (section 3.4.1 case 2). Disabling CCC removes
    // that protection, reproducing the Sheriff failure mode.
    return _cfg.cccEnabled;
}

void
TmiRuntime::onAtomicOp(ThreadId tid, MemOrder order, bool is_rmw)
{
    // Code-centric consistency keys the flush on the memory order
    // alone: relaxed operations only require atomicity, which
    // running on shared pages already provides (section 3.4.1).
    (void)is_rmw;
    if (_ccc.atomicOpNeedsFlush(order))
        commitThread(tid);
}

void
TmiRuntime::onRegionEnter(ThreadId tid, RegionKind kind)
{
    if (_ccc.regionEnter(tid, kind))
        commitThread(tid);
}

void
TmiRuntime::onRegionExit(ThreadId tid)
{
    _ccc.regionExit(tid);
}

Addr
TmiRuntime::onSyncObjectInit(ThreadId tid, Addr va)
{
    (void)tid;
    if (_cfg.mode == TmiMode::AllocOnly)
        return va;
    // Sync objects must be process-shared in case repair engages, so
    // every one is replaced by a pointer to a cache-line-sized object
    // in Tmi's internal region (section 3.2). This indirection is
    // also what fixes spinlockpool's false sharing automatically.
    ++_statSyncRedirects;
    return _m.internalAlloc(lineBytes);
}

void
TmiRuntime::onSyncAcquire(ThreadId tid)
{
    commitThread(tid);
}

void
TmiRuntime::onSyncRelease(ThreadId tid)
{
    commitThread(tid);
}

void
TmiRuntime::onHeapGrow(VPage first, std::uint64_t n)
{
    if (!repairActive() || !_cfg.ptsbEverywhere)
        return;
    for (std::uint64_t i = 0; i < n; ++i)
        protectPageEverywhere(first + i);
}

void
TmiRuntime::commitThread(ThreadId tid)
{
    if (!_converted)
        return;
    auto it = _ptsbs.find(_m.processOf(tid));
    if (it == _ptsbs.end())
        return;
    CommitResult res = it->second->commit();
    ++_statFlushCommits;
    _windowOverhead += res.cost;
    if (_trace && res.pagesDiffed > 0) {
        _trace->recordHere(obs::EventKind::PtsbCommit,
                           res.bytesChanged, res.cost);
    }
    _m.sched().advance(res.cost);
}

ProcessId
TmiRuntime::convertThread(ThreadId tid)
{
    ProcessId pid = _m.mmu().cloneAddressSpace(_m.processOf(tid));
    if (pid == invalidProcessId)
        return invalidProcessId;
    _m.setThreadProcess(tid, pid);
    _ptsbs.emplace(pid, std::make_unique<Ptsb>(_m.mmu(), pid,
                                               _cfg.ptsbCosts,
                                               &_m.cache(),
                                               &_m.faults()));
    // The converted thread was stopped under ptrace, ran the
    // trampoline, and forked; charge it that stall.
    _m.sched().penalize(tid, _cfg.t2pCostPerThread);
    _t2pTotal += _cfg.t2pCostPerThread;
    ++_statConversions;
    return pid;
}

bool
TmiRuntime::tryConvertAllThreads()
{
    struct Conversion
    {
        ThreadId tid;
        ProcessId oldPid;
        ProcessId newPid;
    };
    std::vector<Conversion> done;
    FaultInjector &faults = _m.faults();

    auto rollback = [&](const char *why, ThreadId culprit) {
        warn("tmi: T2P transaction aborted at thread %u (%s); "
             "rolling back %zu converted thread(s)",
             static_cast<unsigned>(culprit), why, done.size());
        for (auto it = done.rbegin(); it != done.rend(); ++it) {
            _m.setThreadProcess(it->tid, it->oldPid);
            _ptsbs.erase(it->newPid);
            // Un-fork + resume stall for the victim of the rollback.
            _m.sched().penalize(it->tid, _cfg.robust.t2pAbortCost);
        }
        _ladder.t2pAborted(culprit, why);
    };

    for (ThreadId tid : _m.appThreads()) {
        if (_m.sched().thread(tid).state() ==
            SimThread::State::Finished) {
            continue;
        }
        if (faults.enabled() &&
            faults.shouldFail(faultpoint::schedStopTimeout)) {
            // The thread never reached its ptrace stop point (stuck
            // in an uninterruptible syscall, say): without a stopped
            // thread there is nothing safe to fork.
            rollback("refused to stop", tid);
            return false;
        }
        ProcessId old_pid = _m.processOf(tid);
        ProcessId new_pid = convertThread(tid);
        if (new_pid == invalidProcessId) {
            rollback("address-space clone failed", tid);
            return false;
        }
        done.push_back({tid, old_pid, new_pid});
    }
    _converted = true;
    _m.flushTlbs();
    if (_trace) {
        _trace->recordHere(obs::EventKind::T2pCommit, done.size(),
                           done.size() * _cfg.t2pCostPerThread);
    }
    return true;
}

bool
TmiRuntime::engageRepair()
{
    const RobustnessConfig &rc = _cfg.robust;
    Cycles backoff = rc.t2pRetryBackoff;
    for (unsigned attempt = 1; attempt <= rc.t2pMaxAttempts;
         ++attempt) {
        if (_trace)
            _trace->recordHere(obs::EventKind::T2pBegin, attempt);
        if (tryConvertAllThreads())
            return true;
        if (attempt == rc.t2pMaxAttempts)
            break;
        warn("tmi: T2P attempt %u/%u failed; backing off %lu cycles",
             attempt, rc.t2pMaxAttempts,
             static_cast<unsigned long>(backoff));
        _m.sched().sleepUntil(_m.sched().now() + backoff);
        backoff *= 2;
    }
    degradeTo(TmiMode::DetectOnly,
              "T2P conversion failed on every attempt");
    return false;
}

void
TmiRuntime::protectPageEverywhere(VPage vpage)
{
    if (!_protectedPages.insert(vpage).second)
        return;
    ++_statPageProtections;
    if (_trace)
        _trace->recordHere(obs::EventKind::PageProtect, vpage);
    Cycles cost = 0;
    for (auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        cost += ptsb->protectPage(vpage);
    }
    _m.flushTlbs();
    _m.sched().advance(cost);
}

Cycles
TmiRuntime::unrepair(const char *reason)
{
    Cycles cost = dissolveAll(_ptsbs);
    _protectedPages.clear();
    _m.flushTlbs();
    _ladder.invariants().afterDissolve("tmi un-repair", _ptsbs);
    _ladder.invariants().afterUnrepair("tmi un-repair");
    _ladder.unrepaired(reason, static_cast<int>(TmiMode::DetectOnly));
    return cost;
}

void
TmiRuntime::checkHealth(Cycles window)
{
    if (_ladder.perfUnreliable()) {
        // Repair decisions based on samples this lossy would be
        // noise; keep observing, stop acting.
        if (rung() == TmiMode::DetectAndRepair) {
            if (repairActive())
                _m.sched().advance(unrepair("perf sampling unreliable"));
            degradeTo(TmiMode::DetectOnly,
                      "perf rings persistently overflowing");
        } else if (rung() == TmiMode::DetectOnly) {
            degradeTo(TmiMode::AllocOnly,
                      "perf still unreliable; stopping the sampler");
        }
    }

    Cycles overhead = std::exchange(_windowOverhead, 0);
    if (_ladder.hitmRegressed(window, overhead, repairActive())) {
        _m.sched().advance(
            unrepair("repair overhead dwarfs its HITM benefit"));
    }

    if (_cfg.robust.watchdogEnabled && repairActive() &&
        _ladder.watchdog(_ptsbs, window)) {
        _m.sched().advance(
            unrepair("repeated PTSB-induced livelock"));
        degradeTo(TmiMode::DetectOnly,
                  "watchdog flush budget exhausted");
    }
    _ladder.endWindow();
}

void
TmiRuntime::detectionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    std::vector<PebsRecord> records;
    while (true) {
        m.sched().sleepUntil(last + _cfg.analysisInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;
        last = now;

        if (rung() == TmiMode::AllocOnly) {
            // Ladder floor: sampling proved useless, so records are
            // discarded undecoded. Only the allocator and sync
            // redirection (which need no thread) keep working.
            records.clear();
            m.perf().drainAll(records);
            // Floor windows are trivially clean (nothing can fire);
            // RecoverUp is the only way off the floor.
            _ladder.endWindow();
            continue;
        }

        records.clear();
        m.perf().drainAll(records);
        Cycles cost = 0;
        for (const auto &rec : records)
            cost += _detector.consume(rec);

        AnalysisResult res = _detector.analyze(window);
        cost += res.cost;
        m.sched().advance(cost);
        if (_trace) {
            _trace->recordHere(obs::EventKind::AnalysisWindow,
                               records.size(),
                               res.pagesToRepair.size());
        }

        checkHealth(window);

        if (rung() != TmiMode::DetectAndRepair)
            continue;
        if (res.pagesToRepair.empty())
            continue;
        if (_ladder.coolingDown())
            continue; // hysteresis: no repair/un-repair flapping

        if (_trace) {
            _trace->recordHere(obs::EventKind::RepairEngage,
                               res.pagesToRepair.size());
        }
        if (!_converted) {
            Cycles t0 = m.sched().now();
            if (!engageRepair())
                continue;
            _repairStart = t0;
        }
        for (VPage vpage : res.pagesToRepair)
            protectPageEverywhere(vpage);
        if (_cfg.ptsbEverywhere) {
            VPage heap_first =
                Machine::heapBase >> m.config().pageShift;
            std::uint64_t heap_pages = m.heapRegion().pages();
            for (std::uint64_t i = 0; i < heap_pages; ++i)
                protectPageEverywhere(heap_first + i);
        }
    }
}

std::uint64_t
TmiRuntime::overheadBytes() const
{
    std::uint64_t twin_bytes = 0;
    for (const auto &[pid, ptsb] : _ptsbs) {
        (void)pid;
        twin_bytes += ptsb->twinBytes();
    }
    std::uint64_t ring_bytes = 0;
    if (_cfg.mode != TmiMode::AllocOnly) {
        ring_bytes = _cfg.modeledRingBytesPerThread *
                     _m.appThreads().size();
    }
    return ring_bytes + _detector.metadataBytes() + twin_bytes +
           _m.internalBytes();
}

void
TmiRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("t2pConversions", &_statConversions,
                    "threads converted to processes");
    group.addScalar("pagesProtected", &_statPageProtections,
                    "distinct pages placed under the PTSB");
    group.addScalar("syncRedirects", &_statSyncRedirects,
                    "sync objects moved to process-shared memory");
    group.addScalar("flushCommits", &_statFlushCommits,
                    "PTSB commits triggered by hooks");
    group.addScalar("t2pAborts", &_ladder.stats().t2pAborts,
                    "T2P transactions aborted and rolled back");
    group.addScalar("unrepairs", &_ladder.stats().unrepairs,
                    "repairs rolled back (PTSB dissolved)");
    group.addScalar("watchdogFlushes", &_ladder.stats().watchdogFlushes,
                    "watchdog force-commits of stalled PTSBs");
    group.addScalar("ladderDrops", &_ladder.stats().drops,
                    "degradation-ladder transitions");
    group.addScalar("ladderRecovers", &_ladder.stats().recovers,
                    "rungs climbed back by the RecoverUp policy");
    group.addScalar("cowFallbacks", &_ladder.stats().cowFallbacks,
                    "COW faults degraded to shared writes");
    _ladder.invariants().regStats(group);
    _detector.regStats(group);
    _ccc.regStats(group);
}

} // namespace tmi
