#include "scheduler.hh"

#include <cstring>

// Checkpoint capture/apply copy raw fiber stacks. Under ASan those
// slices straddle stack redzones -- the poison lives in shadow
// memory, not in the bytes themselves -- so the intercepted memcpy
// would flag the copy, and a restored stack would run against stale
// shadow describing the aborted execution's frames. Unpoison around
// the copies (TMI_ASAN_UNPOISON, sched/fiber.hh); resumed frames
// re-poison themselves on entry.

namespace tmi
{

namespace
{
/// Scheduler whose thread is currently executing. thread_local so the
/// sweep driver can run independent machines on concurrent host
/// threads: each worker owns its machine's fibers end to end, and a
/// fiber only ever resumes on the host thread that created it.
thread_local SimScheduler *activeScheduler = nullptr;
} // namespace

SimThread::SimThread(ThreadId tid, std::string name, Func fn,
                     bool daemon, std::size_t stack_bytes)
    : _tid(tid), _name(std::move(name)), _fn(std::move(fn)),
      _daemon(daemon),
      _stack(fiberStackAlloc(stack_bytes)),
      _stackBytes(stack_bytes)
{
}

SimScheduler::SimScheduler(Cycles quantum) : _quantum(quantum)
{
    TMI_ASSERT(quantum > 0);
}

ThreadId
SimScheduler::spawn(std::string name, SimThread::Func fn, bool daemon)
{
    auto tid = static_cast<ThreadId>(_threads.size());
    auto thread = std::make_unique<SimThread>(
        tid, std::move(name), std::move(fn), daemon,
        std::size_t{256} * 1024);
    if (_current)
        thread->_clock = _current->_clock;

    fiberInit(thread->_ctx, thread->_stack.get(), thread->_stackBytes,
              &SimScheduler::trampoline, thread.get());

    if (!daemon)
        ++_liveNonDaemon;
    _threads.push_back(std::move(thread));
    ++_statSpawns;
    // A freshly spawned thread is runnable at the creator's clock:
    // cap the creator's remaining slice like wake() does.
    if (_current) {
        Cycles ready_at = _threads.back()->_clock;
        if (_current->_deadline > ready_at + _quantum)
            _current->_deadline = ready_at + _quantum;
    }
    return tid;
}

void
SimScheduler::trampoline(void *arg)
{
    auto *thread = static_cast<SimThread *>(arg);
    thread->_fn();
    activeScheduler->finishCurrent();
    panic("resumed a finished SimThread");
}

SimThread &
SimScheduler::thread(ThreadId tid)
{
    TMI_ASSERT(tid < _threads.size());
    return *_threads[tid];
}

std::size_t
SimScheduler::liveNonDaemonThreads() const
{
    std::size_t n = 0;
    for (const auto &t : _threads) {
        if (!t->_daemon && t->_state != SimThread::State::Finished)
            ++n;
    }
    return n;
}

SimThread *
SimScheduler::pickNext(Cycles &runner_up) const
{
    SimThread *best = nullptr;
    runner_up = ~Cycles{0};
    for (const auto &t : _threads) {
        if (t->_state != SimThread::State::Ready)
            continue;
        if (!best || t->_clock < best->_clock) {
            if (best)
                runner_up = std::min(runner_up, best->_clock);
            best = t.get();
        } else {
            runner_up = std::min(runner_up, t->_clock);
        }
    }
    return best;
}

SimThread *
SimScheduler::schedule()
{
    if (_liveNonDaemon == 0) {
        _outcome = RunOutcome::Completed;
        return nullptr;
    }
    if (_abort && _abort->load(std::memory_order_relaxed)) {
        _outcome = RunOutcome::Timeout;
        return nullptr;
    }
    Cycles runner_up = 0;
    SimThread *next = pickNext(runner_up);
    if (!next) {
        _outcome = RunOutcome::Deadlock;
        return nullptr;
    }
    if (next->_clock > _maxCycles) {
        _outcome = RunOutcome::Timeout;
        return nullptr;
    }
    Cycles base = (runner_up == ~Cycles{0}) ? next->_clock : runner_up;
    next->_deadline = base + _quantum;
    next->_state = SimThread::State::Running;
    _current = next;
    ++_statSwitches;
    return next;
}

void
SimScheduler::switchFrom(SimThread *self)
{
    SimThread *next = schedule();
    if (next == self)
        return; // picked again: keep running
    fiberSwitch(self->_ctx, next ? next->_ctx : _schedCtx);
}

RunOutcome
SimScheduler::run(Cycles max_cycles)
{
    TMI_ASSERT(!_running, "SimScheduler::run is not reentrant");
    _running = true;
    activeScheduler = this;
    _maxCycles = max_cycles;

    // Threads hand the CPU straight to each other (switchFrom); this
    // fiber regains control only when the run is over or a thread
    // asks for a fiber service: it switched out asking us to copy its
    // (now suspended) stack, then be resumed immediately -- no
    // scheduling decision, no time charge.
    if (SimThread *first = schedule()) {
        fiberSwitch(_schedCtx, first->_ctx);
        while (_service != FiberService::None) {
            FiberService svc = _service;
            _service = FiberService::None;
            if (svc == FiberService::Checkpoint)
                captureCheckpoint(*_current, *_serviceCk);
            else
                applyCheckpoint(*_current, *_serviceCk);
            _serviceCk = nullptr;
            fiberSwitch(_schedCtx, _current->_ctx);
        }
    }
    _current = nullptr;

    _running = false;
    activeScheduler = nullptr;
    return _outcome;
}

void
SimScheduler::advance(Cycles cycles)
{
    TMI_ASSERT(_current, "advance outside a simulated thread");
    _current->_clock += cycles;
    // Daemons (e.g. the detection thread) never extend the makespan:
    // elapsed time is defined by application threads.
    if (!_current->_daemon && _current->_clock > _maxClock)
        _maxClock = _current->_clock;
    if (_current->_clock >= _current->_deadline)
        yield();
}

void
SimScheduler::yield()
{
    TMI_ASSERT(_current);
    SimThread *self = _current;
    self->_state = SimThread::State::Ready;
    switchFrom(self);
}

void
SimScheduler::block()
{
    TMI_ASSERT(_current);
    SimThread *self = _current;
    if (self->_wakePending) {
        self->_wakePending = false;
        if (self->_clock < self->_wakeClock)
            self->_clock = self->_wakeClock;
        return;
    }
    self->_state = SimThread::State::Blocked;
    switchFrom(self);
}

void
SimScheduler::wake(ThreadId tid, Cycles at_least)
{
    SimThread &t = thread(tid);
    if (t._state != SimThread::State::Blocked) {
        // Target has not blocked yet (it is Ready or Running between
        // enqueueing itself and calling block()). Record the wake so
        // block() becomes a no-op.
        TMI_ASSERT(t._state != SimThread::State::Finished,
                   "wake of finished thread");
        t._wakePending = true;
        if (t._wakeClock < at_least)
            t._wakeClock = at_least;
        return;
    }
    t._state = SimThread::State::Ready;
    if (t._clock < at_least)
        t._clock = at_least;
    // The woken thread may now be the earliest runnable one. Shorten
    // the current runner's slice so it does not race arbitrarily far
    // ahead of a thread that was blocked when the slice began.
    if (_current && _current->_deadline > t._clock + _quantum)
        _current->_deadline = t._clock + _quantum;
}

void
SimScheduler::sleepUntil(Cycles t)
{
    TMI_ASSERT(_current);
    if (_current->_clock < t)
        _current->_clock = t;
    if (!_current->_daemon && _current->_clock > _maxClock)
        _maxClock = _current->_clock;
    yield();
}

void
SimScheduler::penalize(ThreadId tid, Cycles cycles)
{
    SimThread &t = thread(tid);
    if (t._state == SimThread::State::Finished)
        return;
    t._clock += cycles;
    if (!t._daemon && t._clock > _maxClock)
        _maxClock = t._clock;
}

void
SimScheduler::checkpointCurrent(FiberCheckpoint &ck)
{
    TMI_ASSERT(_current, "checkpoint outside a simulated thread");
    SimThread *self = _current;
    _service = FiberService::Checkpoint;
    _serviceCk = &ck;
    // The run loop captures while this frame is suspended, then
    // switches straight back here. A later restore of @p ck resumes
    // at exactly this point too -- callers disambiguate via
    // ck.resumes (see FiberCheckpoint).
    fiberSwitch(self->_ctx, _schedCtx);
}

void
SimScheduler::restoreCurrent(FiberCheckpoint &ck)
{
    TMI_ASSERT(_current, "restore outside a simulated thread");
    TMI_ASSERT(ck.valid(), "restore from an empty checkpoint");
    _service = FiberService::Restore;
    _serviceCk = &ck;
    // This frame is abandoned: the run loop rewinds the stack and
    // resumes the checkpoint's capture point instead.
    fiberSwitch(_current->_ctx, _schedCtx);
    panic("resumed past a fiber restore");
}

void
SimScheduler::hijackThread(ThreadId tid, FiberCheckpoint &ck)
{
    SimThread &t = thread(tid);
    TMI_ASSERT(&t != _current, "self-hijack; use restoreCurrent");
    TMI_ASSERT(t._state == SimThread::State::Ready ||
                   t._state == SimThread::State::Blocked,
               "hijack of a thread that is not suspended");
    TMI_ASSERT(ck.valid(), "hijack from an empty checkpoint");
    // The victim is suspended: its register frame lives inside the
    // saved slice, so overwriting stack + context is a complete
    // rewind. It resumes at its capture point when next scheduled.
    applyCheckpoint(t, ck);
}

void
SimScheduler::captureCheckpoint(SimThread &t, FiberCheckpoint &ck)
{
    std::uint8_t *base = t._stack.get();
#if TMI_FAST_FIBERS
    // Live slice: [saved sp, stack top). Everything below sp is dead.
    auto *sp = static_cast<std::uint8_t *>(t._ctx.sp);
    TMI_ASSERT(sp >= base && sp <= base + t._stackBytes,
               "fiber sp outside its stack");
    std::size_t offset = static_cast<std::size_t>(sp - base);
#else
    // ucontext gives no portable stack pointer: save the whole stack.
    std::size_t offset = 0;
#endif
    std::size_t bytes = t._stackBytes - offset;
    if (!ck.data || bytes > ck.bytes)
        ck.data = std::make_unique<std::uint8_t[]>(bytes);
    TMI_ASAN_UNPOISON(base + offset, bytes);
    std::memcpy(ck.data.get(), base + offset, bytes);
    ck.bytes = bytes;
    ck.offset = offset;
    ck.ctx = t._ctx;
    ++_statCheckpoints;
}

void
SimScheduler::applyCheckpoint(SimThread &t, FiberCheckpoint &ck)
{
    TMI_ASSERT(ck.offset + ck.bytes == t._stackBytes,
               "checkpoint does not fit this thread's stack");
    // The whole stack, not just the restored slice: frames the
    // aborted execution formed below the capture point left stale
    // poison in the dead zone too.
    TMI_ASAN_UNPOISON(t._stack.get(), t._stackBytes);
    std::memcpy(t._stack.get() + ck.offset, ck.data.get(), ck.bytes);
    t._ctx = ck.ctx;
    ++ck.resumes;
    ++_statRestores;
}

void
SimScheduler::finishCurrent()
{
    SimThread *self = _current;
    self->_state = SimThread::State::Finished;
    if (!self->_daemon) {
        TMI_ASSERT(_liveNonDaemon > 0);
        --_liveNonDaemon;
    }
    // The stack stays allocated until the scheduler is destroyed: we
    // are still executing on it until the swap below completes.
    switchFrom(self);
}

void
SimScheduler::regStats(stats::StatGroup &group)
{
    group.addScalar("contextSwitches", &_statSwitches,
                    "fiber switches performed");
    group.addScalar("threadsSpawned", &_statSpawns,
                    "simulated threads created");
    group.addScalar("checkpoints", &_statCheckpoints,
                    "fiber continuations captured");
    group.addScalar("restores", &_statRestores,
                    "fiber rollbacks applied");
}

} // namespace tmi
