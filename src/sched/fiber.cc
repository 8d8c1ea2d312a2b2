#include "fiber.hh"

#include <sys/mman.h>

#include <cstdint>

#include "common/logging.hh"

namespace tmi
{

#if TMI_FAST_FIBERS

// The saved frame, from the stack pointer upward:
//
//   [mxcsr:4][x87cw:2][pad:2]  <- ctx.sp points here
//   [r15][r14][r13][r12][rbx][rbp]
//   [return address]
//
// tmi_fiber_switch pushes this frame on the suspending fiber's stack
// and pops it from the resuming fiber's. System V x86-64 makes
// exactly rbx, rbp, r12-r15, mxcsr and the x87 control word
// callee-saved; everything else is dead across the call by contract.
asm(R"(
    .text
    .align 16
    .globl tmi_fiber_switch
    .type tmi_fiber_switch, @function
tmi_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    leaq -8(%rsp), %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq (%rsi), %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    leaq 8(%rsp), %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size tmi_fiber_switch, . - tmi_fiber_switch

    .align 16
    .globl tmi_fiber_boot
    .type tmi_fiber_boot, @function
tmi_fiber_boot:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size tmi_fiber_boot, . - tmi_fiber_boot
)");

extern "C" void tmi_fiber_switch(FiberContext *from, FiberContext *to);
extern "C" void tmi_fiber_boot();

void
fiberInit(FiberContext &ctx, void *stack_base, std::size_t stack_bytes,
          FiberEntry entry, void *arg)
{
    auto base = reinterpret_cast<std::uintptr_t>(stack_base);
    // Align the logical stack top so rsp is 16-byte aligned when
    // tmi_fiber_boot gains control (its call then leaves rsp % 16 ==
    // 8 at the entry function, as the ABI requires).
    std::uintptr_t top = (base + stack_bytes) & ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uint64_t *>(top) - 8;

    auto *fp = reinterpret_cast<std::uint8_t *>(frame);
    asm("stmxcsr %0" : "=m"(*reinterpret_cast<std::uint32_t *>(fp)));
    asm("fnstcw %0" : "=m"(*reinterpret_cast<std::uint16_t *>(fp + 4)));
    frame[1] = 0;                                         // r15
    frame[2] = 0;                                         // r14
    frame[3] = reinterpret_cast<std::uint64_t>(entry);    // r13
    frame[4] = reinterpret_cast<std::uint64_t>(arg);      // r12
    frame[5] = 0;                                         // rbx
    frame[6] = 0;                                         // rbp
    frame[7] = reinterpret_cast<std::uint64_t>(&tmi_fiber_boot);
    ctx.sp = frame;
}

void
fiberSwitch(FiberContext &from, FiberContext &to)
{
    tmi_fiber_switch(&from, &to);
}

#else // !TMI_FAST_FIBERS

namespace
{

/// makecontext passes ints, so a 64-bit pointer rides in two halves.
void
ucontextBoot(unsigned hi, unsigned lo)
{
    auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
               static_cast<std::uintptr_t>(lo);
    auto *boot = reinterpret_cast<void (**)(void *)>(ptr);
    // The entry/arg pair lives at the bottom of the fiber's stack.
    boot[0](reinterpret_cast<void *>(boot[1]));
}

} // namespace

void
fiberInit(FiberContext &ctx, void *stack_base, std::size_t stack_bytes,
          FiberEntry entry, void *arg)
{
    // Stash entry/arg at the low end of the stack, out of the way of
    // the growing stack above.
    auto *slots = static_cast<void **>(stack_base);
    slots[0] = reinterpret_cast<void *>(entry);
    slots[1] = arg;

    getcontext(&ctx.ctx);
    ctx.ctx.uc_stack.ss_sp =
        static_cast<std::uint8_t *>(stack_base) + 2 * sizeof(void *);
    ctx.ctx.uc_stack.ss_size = stack_bytes - 2 * sizeof(void *);
    ctx.ctx.uc_link = nullptr;
    auto ptr = reinterpret_cast<std::uintptr_t>(slots);
    makecontext(&ctx.ctx, reinterpret_cast<void (*)()>(&ucontextBoot),
                2, static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
}

void
fiberSwitch(FiberContext &from, FiberContext &to)
{
    swapcontext(&from.ctx, &to.ctx);
}

#endif // TMI_FAST_FIBERS

FiberStack
fiberStackAlloc(std::size_t bytes)
{
    void *stack = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (stack == MAP_FAILED)
        panic("fiber: cannot map a %zu-byte stack", bytes);
    TMI_ASAN_UNPOISON(stack, bytes);
    return FiberStack(static_cast<std::uint8_t *>(stack),
                      FiberStackFree{bytes});
}

void
FiberStackFree::operator()(std::uint8_t *stack) const
{
    TMI_ASAN_UNPOISON(stack, bytes);
    munmap(stack, bytes);
}

} // namespace tmi
