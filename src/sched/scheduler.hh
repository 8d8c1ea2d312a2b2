/**
 * @file
 * Deterministic green-thread scheduler for the simulated machine.
 *
 * Simulated application threads are ucontext fibers with per-thread
 * cycle clocks. The scheduler always resumes the runnable thread with
 * the smallest clock and lets it run until it blocks or exceeds its
 * quantum, approximating a globally time-ordered interleaving while
 * keeping context-switch costs amortized over many accesses. A thread
 * that gives up the CPU makes that decision itself and switches
 * straight to the next thread; the scheduler's own fiber runs only to
 * start and end a run and to perform fiber checkpoint services.
 *
 * All scheduling decisions are deterministic: ties break by thread id
 * and every source of randomness in workloads is seeded, so a given
 * experiment configuration always produces the same execution.
 */

#ifndef TMI_SCHED_SCHEDULER_HH
#define TMI_SCHED_SCHEDULER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sched/fiber.hh"

namespace tmi
{

/** Why SimScheduler::run returned. */
enum class RunOutcome
{
    Completed, //!< all non-daemon threads finished
    Timeout,   //!< simulated time exceeded the budget (hang/livelock)
    Deadlock,  //!< every live thread is blocked
};

/**
 * A captured fiber continuation: the register frame plus the live
 * slice of the thread's stack at capture time. Restoring one rewinds
 * the thread to the capture point with every local intact -- the
 * rollback primitive behind transactional aborts (baselines/htm).
 *
 * Arrival detection: a caller that latches `resumes` in a LOCAL
 * variable before capturing can tell a rollback from a plain return,
 * because the local is part of the snapshot (and therefore rewound)
 * while the heap-resident counter is not:
 *
 *   std::uint64_t before = ck.resumes;   // saved in the snapshot
 *   sched.checkpointCurrent(ck);
 *   bool rolled_back = ck.resumes != before;
 */
struct FiberCheckpoint
{
    FiberContext ctx;                     //!< suspended register frame
    std::unique_ptr<std::uint8_t[]> data; //!< saved stack slice
    std::size_t bytes = 0;                //!< slice length
    std::size_t offset = 0;               //!< slice start from stack base
    /** Restores performed from this checkpoint (see above). */
    std::uint64_t resumes = 0;

    bool valid() const { return bytes != 0; }

    void
    reset()
    {
        data.reset();
        bytes = 0;
        offset = 0;
    }
};

/** One simulated thread (a ucontext fiber with a cycle clock). */
class SimThread
{
  public:
    using Func = std::function<void()>;

    enum class State : std::uint8_t
    {
        Ready,
        Running,
        Blocked,
        Finished,
    };

    SimThread(ThreadId tid, std::string name, Func fn, bool daemon,
              std::size_t stack_bytes);

    ThreadId tid() const { return _tid; }
    const std::string &name() const { return _name; }
    bool daemon() const { return _daemon; }
    State state() const { return _state; }
    Cycles clock() const { return _clock; }

  private:
    friend class SimScheduler;

    ThreadId _tid;
    std::string _name;
    Func _fn;
    bool _daemon;
    State _state = State::Ready;
    Cycles _clock = 0;
    Cycles _deadline = 0;
    /// A wake() arrived while we were still running (e.g. a condvar
    /// signal between releasing the mutex and blocking); consume it
    /// in block() instead of sleeping.
    bool _wakePending = false;
    Cycles _wakeClock = 0;
    FiberStack _stack;
    std::size_t _stackBytes;
    FiberContext _ctx;
};

/** Min-clock-first cooperative scheduler over SimThreads. */
class SimScheduler
{
  public:
    /** @param quantum cycles a thread may run past the runner-up. */
    explicit SimScheduler(Cycles quantum = 200);

    /**
     * Create a simulated thread.
     *
     * May be called before run() or from inside a running thread
     * (pthread_create). The new thread's clock starts at the
     * creator's clock (or 0 from outside).
     *
     * @param daemon daemon threads do not keep the simulation alive;
     *               they are abandoned when all others finish.
     */
    ThreadId spawn(std::string name, SimThread::Func fn,
                   bool daemon = false);

    /**
     * Run until completion, deadlock, or @p max_cycles of simulated
     * time. Must be called from outside any simulated thread.
     */
    RunOutcome run(Cycles max_cycles = ~Cycles{0});

    /** The currently executing simulated thread; null outside run. */
    SimThread *current() { return _current; }

    /** Clock of the current thread (call only from inside a thread). */
    Cycles
    now() const
    {
        TMI_ASSERT(_current);
        return _current->_clock;
    }

    /** Largest clock any thread has reached (global time bound). */
    Cycles maxClock() const { return _maxClock; }

    /**
     * Install a host-side cancellation token. When @p flag becomes
     * true (set by another host thread, e.g. the sweep driver's
     * timeout watchdog), run() stops at the next fiber switch and
     * returns RunOutcome::Timeout. Pass nullptr to clear.
     */
    void setAbortFlag(const std::atomic<bool> *flag) { _abort = flag; }

    /**
     * Charge @p cycles to the current thread and yield if its
     * quantum expired. This is the only way simulated time advances.
     */
    void advance(Cycles cycles);

    /** Give up the CPU, staying runnable; returns at once if this
     *  thread is still the one to run. */
    void yield();

    /** Block the current thread until another thread wakes it. */
    void block();

    /**
     * Make @p tid runnable again, no earlier than simulated time
     * @p at_least (the waker's clock, so causality is preserved).
     */
    void wake(ThreadId tid, Cycles at_least);

    /** Sleep the current thread until simulated time @p t. */
    void sleepUntil(Cycles t);

    /**
     * Add @p cycles to @p tid's clock without running it -- used to
     * charge stopped threads for work done *to* them (e.g. the
     * ptrace stop during thread-to-process conversion).
     */
    void penalize(ThreadId tid, Cycles cycles);

    /** @name Fiber checkpoint / rollback (transactional aborts)
     *  The scheduler performs the stack copies itself, on the host
     *  stack, while the fiber is suspended -- a thread can therefore
     *  snapshot or rewind its *own* stack safely. None of these
     *  advance simulated time; callers charge costs explicitly. */
    /// @{
    /**
     * Capture the current thread's continuation into @p ck and
     * return. Call only from inside a simulated thread.
     */
    void checkpointCurrent(FiberCheckpoint &ck);

    /**
     * Rewind the current thread to @p ck. Control resumes at the
     * checkpointCurrent() capture point (with `ck.resumes` bumped),
     * never at this call site.
     */
    [[noreturn]] void restoreCurrent(FiberCheckpoint &ck);

    /**
     * Rewind suspended thread @p tid to @p ck (a remote abort). The
     * victim must not be the current thread (use restoreCurrent) or
     * Finished; when next scheduled it resumes at its capture point.
     */
    void hijackThread(ThreadId tid, FiberCheckpoint &ck);
    /// @}

    /** Thread accessor (valid for any spawned tid). */
    SimThread &thread(ThreadId tid);

    /** Number of threads ever spawned. */
    std::size_t threadCount() const { return _threads.size(); }

    /** Count of live (not finished) non-daemon threads. */
    std::size_t liveNonDaemonThreads() const;

    /** Total context switches performed (diagnostic). */
    std::uint64_t contextSwitches() const
    {
        return static_cast<std::uint64_t>(_statSwitches.value());
    }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    /** What a suspended thread asked the run loop to do before being
     *  resumed (fiber services run on the host stack, where copying
     *  the requester's own stack is safe). */
    enum class FiberService : std::uint8_t
    {
        None,
        Checkpoint, //!< capture into _serviceCk, switch straight back
        Restore,    //!< rewind to _serviceCk, resume at its capture
    };

    static void trampoline(void *arg);
    void finishCurrent();
    SimThread *pickNext(Cycles &runner_up) const;
    /**
     * The scheduling decision: the next thread, made current with a
     * fresh slice; or null, with _outcome set, when the run is over.
     */
    SimThread *schedule();
    /** Suspend @p self (already marked Ready, Blocked or Finished)
     *  and run the next thread, or end the run. */
    void switchFrom(SimThread *self);
    void captureCheckpoint(SimThread &t, FiberCheckpoint &ck);
    void applyCheckpoint(SimThread &t, FiberCheckpoint &ck);

    Cycles _quantum;
    std::vector<std::unique_ptr<SimThread>> _threads;
    SimThread *_current = nullptr;
    FiberContext _schedCtx;
    bool _running = false;
    /** Cached liveNonDaemonThreads(): the run loop consults it every
     *  switch, and the O(threads) scan showed up in host profiles. */
    std::size_t _liveNonDaemon = 0;
    Cycles _maxClock = 0;
    Cycles _maxCycles = ~Cycles{0}; //!< run()'s budget
    RunOutcome _outcome = RunOutcome::Completed;
    const std::atomic<bool> *_abort = nullptr;
    FiberService _service = FiberService::None;
    FiberCheckpoint *_serviceCk = nullptr;

    stats::Scalar _statSwitches;
    stats::Scalar _statSpawns;
    stats::Scalar _statCheckpoints;
    stats::Scalar _statRestores;
};

} // namespace tmi

#endif // TMI_SCHED_SCHEDULER_HH
