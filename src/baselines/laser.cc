#include "laser.hh"

#include <utility>

namespace tmi
{

namespace
{

/** Rung names, indexed by rung. */
constexpr const char *rungNames[] = {"detect-only", "detect-and-repair"};
constexpr int detectOnly = 0;
constexpr int detectAndRepair = 1;

} // namespace

LaserRuntime::LaserRuntime(Machine &machine, const LaserConfig &config)
    : _m(machine), _cfg(config),
      _ladder(machine, _cfg.robust, "laser", rungNames,
              detectAndRepair),
      _detector(machine.instructions(), machine.addressMap(),
                machine.detectorConfig(config.detector))
{
}

void
LaserRuntime::attach()
{
    _m.setHooks(this);
    _m.spawnSystemThread(
        "laser-detector",
        [this](ThreadApi &api) { detectionLoop(api); },
        /*daemon=*/true);
}

std::uint64_t
LaserRuntime::syncOpsSoFar() const
{
    // Only full-fence operations force a TSO drain: lock operations
    // and atomic read-modify-writes. Plain atomic loads/stores ride
    // in the store buffer like ordinary accesses.
    return _m.sync().acquires() + _rmwAtomics;
}

bool
LaserRuntime::interceptAccess(ThreadId tid, Addr va, bool is_write,
                              Cycles &cost)
{
    (void)tid;
    if (_repairedPages.empty())
        return false;
    VPage vpage = va >> _m.config().pageShift;
    if (!_repairedPages.count(vpage))
        return false;
    ++_statBufferedAccesses;
    cost = is_write ? _cfg.bufferedStoreCost : _cfg.bufferedLoadCost;
    _windowOverhead += cost;
    return true;
}

void
LaserRuntime::onSyncAcquire(ThreadId tid)
{
    (void)tid;
    if (!_repairedPages.empty()) {
        ++_statDrains;
        _windowOverhead += _cfg.drainCost;
        _m.sched().advance(_cfg.drainCost);
    }
}

void
LaserRuntime::onSyncRelease(ThreadId tid)
{
    onSyncAcquire(tid);
}

void
LaserRuntime::onAtomicOp(ThreadId tid, MemOrder order, bool is_rmw)
{
    (void)tid;
    // TSO gives no relaxed escape hatch: every locked RMW is a full
    // fence and drains the software store buffer, regardless of the
    // C++ memory order.
    (void)order;
    if (!is_rmw)
        return;
    ++_rmwAtomics;
    if (!_repairedPages.empty()) {
        ++_statDrains;
        _windowOverhead += _cfg.drainCost;
        _m.sched().advance(_cfg.drainCost);
    }
}

void
LaserRuntime::detectionLoop(ThreadApi &api)
{
    Machine &m = api.machine();
    Cycles last = m.sched().now();
    std::uint64_t last_syncs = 0;
    std::vector<PebsRecord> records;
    while (true) {
        m.sched().sleepUntil(last + _cfg.analysisInterval);
        Cycles now = m.sched().now();
        Cycles window = now - last;

        records.clear();
        m.perf().drainAll(records);
        Cycles cost = 0;
        for (const auto &rec : records)
            cost += _detector.consume(rec);
        AnalysisResult res = _detector.analyze(window);
        cost += res.cost;
        m.sched().advance(cost);

        // Repair gate: frequent synchronization makes a TSO store
        // buffer unprofitable, so LASER leaves such programs alone.
        std::uint64_t syncs = syncOpsSoFar();
        double window_sec = static_cast<double>(window) /
                            m.config().cyclesPerSecond;
        double sync_rate =
            static_cast<double>(syncs - last_syncs) / window_sec;
        last = now;
        last_syncs = syncs;

        if (_cfg.robust.monitorEnabled)
            checkHealth(window);

        if (res.pagesToRepair.empty())
            continue;
        if (_ladder.rung() != detectAndRepair)
            continue;
        if (_ladder.coolingDown())
            continue; // let caches settle before re-instrumenting
        if (sync_rate > _cfg.maxSyncRatePerSec) {
            _declined = true;
            continue;
        }
        for (VPage vpage : res.pagesToRepair)
            _repairedPages.insert(vpage);
        // The store buffer just armed: un-snapshot interceptArmed.
        _m.accessEpoch().bump();
    }
}

void
LaserRuntime::checkHealth(Cycles window)
{
    if (_ladder.perfUnreliable()) {
        // Repair decisions based on samples this lossy would be noise.
        if (repairActive())
            unrepair("perf sampling unreliable");
        _ladder.drop(detectOnly, "perf rings persistently overflowing");
    }
    Cycles overhead = std::exchange(_windowOverhead, 0);
    if (_ladder.hitmRegressed(window, overhead, repairActive()))
        unrepair("DBI tax dwarfs the avoided-HITM benefit");
    _ladder.endWindow();
}

void
LaserRuntime::unrepair(const char *reason)
{
    // Removing DBI instrumentation is a code-patching operation, not
    // a memory operation: no pages move, no twins exist, so unlike
    // Tmi's PTSB dissolution it carries no simulated commit cost.
    _repairedPages.clear();
    _m.accessEpoch().bump();
    _ladder.unrepaired(reason, detectOnly);
}

void
LaserRuntime::regStats(stats::StatGroup &group)
{
    group.addScalar("bufferedAccesses", &_statBufferedAccesses,
                    "accesses serviced by the software store buffer");
    group.addScalar("drains", &_statDrains,
                    "TSO store-buffer drains at sync/atomic ops");
    group.addScalar("unrepairs", &_ladder.stats().unrepairs,
                    "instrumentation rollbacks");
    group.addScalar("ladderDrops", &_ladder.stats().drops,
                    "degradation-ladder transitions");
    _detector.regStats(group);
}

} // namespace tmi
