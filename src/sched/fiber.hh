/**
 * @file
 * Minimal stackful-fiber context switching.
 *
 * glibc's swapcontext performs a rt_sigprocmask syscall on every
 * switch to save the signal mask. The simulator switches fibers every
 * few simulated accesses (the scheduler quantum is tens of cycles),
 * so that syscall dominated host time. Simulated threads never touch
 * signal masks, so on x86-64 ELF targets we switch with a handful of
 * instructions instead: save the callee-saved registers and the FP
 * control state, swap stack pointers, restore, return. Other targets
 * fall back to ucontext.
 *
 * The choice of mechanism cannot affect simulated results: it changes
 * how a switch is performed, never when one happens.
 */

#ifndef TMI_SCHED_FIBER_HH
#define TMI_SCHED_FIBER_HH

#include <cstddef>
#include <cstdint>
#include <memory>

// Fiber stacks carry ASan stack poison in shadow memory that no
// function epilogue ever clears (a fiber's frames are abandoned, not
// returned from). Code that reuses or copies stack bytes wipes it.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define TMI_ASAN_UNPOISON(ptr, bytes)                                  \
    __asan_unpoison_memory_region((ptr), (bytes))
#else
#define TMI_ASAN_UNPOISON(ptr, bytes) ((void)0)
#endif

#if defined(__x86_64__) && defined(__ELF__) && !defined(TMI_FORCE_UCONTEXT)
#define TMI_FAST_FIBERS 1
#else
#define TMI_FAST_FIBERS 0
#include <ucontext.h>
#endif

namespace tmi
{

/** One suspended fiber: everything needed to resume it. */
struct FiberContext
{
#if TMI_FAST_FIBERS
    /** Stack pointer below the saved register frame. */
    void *sp = nullptr;
#else
    ucontext_t ctx{};
#endif
};

/** Fiber entry point. Must never return. */
using FiberEntry = void (*)(void *arg);

/**
 * Prepare @p ctx so the first switch into it runs entry(arg) on the
 * given stack.
 */
void fiberInit(FiberContext &ctx, void *stack_base,
               std::size_t stack_bytes, FiberEntry entry, void *arg);

/** Suspend the current fiber into @p from and resume @p to. */
void fiberSwitch(FiberContext &from, FiberContext &to);

/** Releases a stack from fiberStackAlloc. */
struct FiberStackFree
{
    std::size_t bytes;
    void operator()(std::uint8_t *stack) const;
};

/** A fiber stack, owned. */
using FiberStack = std::unique_ptr<std::uint8_t[], FiberStackFree>;

/**
 * Allocate a @p bytes fiber stack in its own anonymous mapping rather
 * than the malloc heap: its pages become resident only as the fiber
 * touches them, and freeing returns them to the OS. Stacks this size
 * in the heap leave holes that later runs' allocations land around,
 * so a long-running process's peak RSS hinged on allocation order.
 * Under ASan the range is unpoisoned on allocation and release: a
 * new mapping can reuse the address range of a dead fiber's stack.
 */
FiberStack fiberStackAlloc(std::size_t bytes);

} // namespace tmi

#endif // TMI_SCHED_FIBER_HH
