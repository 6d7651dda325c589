/**
 * @file
 * Minimal CPU model: a register file, the IRQ enable flag, and the one
 * behaviour Sentry's AES On SoC must defend against — a context switch
 * spilling live registers to the stack in DRAM (paper section 6.2).
 *
 * Software that handles secrets "in registers" loads them into this
 * register file. If an interrupt fires while they are live, the context
 * switch writes the register file to the current kernel stack, which
 * lives in DRAM — leaking the secrets to memory an attacker can dump.
 * The OnSocIrqGuard reproduces onsoc_disable_irq()/onsoc_enable_irq():
 * interrupts are masked for the duration and every register is zeroed
 * before they are re-enabled.
 */

#ifndef SENTRY_HW_CPU_HH
#define SENTRY_HW_CPU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "common/sim_clock.hh"
#include "common/types.hh"

namespace sentry::hw
{

/** ARM-style register file (r0-r15, 32-bit). */
using RegisterFile = std::array<std::uint32_t, 16>;

/** One simulated core (the one Sentry's critical sections run on). */
class Cpu
{
  public:
    explicit Cpu(SimClock &clock);

    /** Wire the cacheable memory port used for register spills. */
    void setMemoryPort(
        std::function<void(PhysAddr, const std::uint8_t *, std::size_t)>
            write_fn);

    /** Set the physical address of the current kernel stack top. */
    void setCurrentStack(PhysAddr stack_phys)
    {
        state_.stackPhys = stack_phys;
    }

    /** @return the architectural register file. */
    RegisterFile &regs() { return state_.regs; }
    const RegisterFile &regs() const { return state_.regs; }

    /** Load words into r0.. (software moving secrets into registers). */
    void loadRegisters(std::span<const std::uint32_t> words);

    /** Zero every general-purpose register. */
    void zeroRegisters();

    /** @return true when interrupts are enabled. */
    bool irqEnabled() const { return state_.irqEnabled; }

    /** Mask interrupts; records the start of the irq-off window. */
    void disableIrq();

    /** Unmask interrupts; returns the irq-off window length in seconds. */
    double enableIrq();

    /** @return the longest irq-off window seen, in seconds. */
    double maxIrqOffSeconds() const { return state_.maxIrqOffSeconds; }

    /** An interrupt (timer tick, device) wants to preempt. */
    void requestPreemption() { state_.preemptPending = true; }

    /** @return true if a preemption request is pending delivery. */
    bool preemptionPending() const { return state_.preemptPending; }

    /**
     * Deliver a pending preemption if interrupts allow it: the context
     * switch spills the register file to the current kernel stack in
     * DRAM through the cacheable memory port.
     *
     * @return true if a context switch happened.
     */
    bool pollPreemption();

    /** Explicit context switch (scheduler-driven): spill registers. */
    void contextSwitchSpill();

    /** @return number of context-switch spills performed. */
    std::uint64_t spillCount() const { return state_.spillCount; }

    /** Everything the core simulates, architectural and accounting: a
     * fork copies it whole. Outside it: the clock and the memory port
     * (wiring). */
    struct State
    {
        RegisterFile regs{};
        bool irqEnabled = true;
        bool preemptPending = false;
        Cycles irqOffStart = 0;
        double maxIrqOffSeconds = 0.0;
        PhysAddr stackPhys = 0;
        std::uint64_t spillCount = 0;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    SimClock &clock_;
    State state_;
    std::function<void(PhysAddr, const std::uint8_t *, std::size_t)>
        writeMem_;
};

/**
 * RAII critical section for on-SoC crypto: interrupts are masked on
 * entry; on exit all registers are zeroed and interrupts re-enabled
 * (the onsoc_disable_irq / onsoc_enable_irq macro pair).
 */
class OnSocIrqGuard
{
  public:
    explicit OnSocIrqGuard(Cpu &cpu);
    ~OnSocIrqGuard();

    OnSocIrqGuard(const OnSocIrqGuard &) = delete;
    OnSocIrqGuard &operator=(const OnSocIrqGuard &) = delete;

  private:
    Cpu &cpu_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_CPU_HH
