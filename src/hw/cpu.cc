#include "hw/cpu.hh"

#include <cstring>

#include "common/logging.hh"

namespace sentry::hw
{

namespace
{
constexpr Cycles contextSwitchCycles = 800;
} // namespace

Cpu::Cpu(SimClock &clock) : clock_(clock) {}

void
Cpu::setMemoryPort(
    std::function<void(PhysAddr, const std::uint8_t *, std::size_t)>
        write_fn)
{
    writeMem_ = std::move(write_fn);
}

void
Cpu::loadRegisters(std::span<const std::uint32_t> words)
{
    if (words.size() > state_.regs.size())
        panic("loadRegisters: %zu words exceed the register file",
              words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        state_.regs[i] = words[i];
}

void
Cpu::zeroRegisters()
{
    state_.regs.fill(0);
}

void
Cpu::disableIrq()
{
    if (!state_.irqEnabled)
        return;
    state_.irqEnabled = false;
    state_.irqOffStart = clock_.now();
}

double
Cpu::enableIrq()
{
    if (state_.irqEnabled)
        return 0.0;
    state_.irqEnabled = true;
    const double window = clock_.toSeconds(clock_.now() - state_.irqOffStart);
    if (window > state_.maxIrqOffSeconds)
        state_.maxIrqOffSeconds = window;
    return window;
}

bool
Cpu::pollPreemption()
{
    if (!state_.preemptPending || !state_.irqEnabled)
        return false;
    state_.preemptPending = false;
    contextSwitchSpill();
    return true;
}

void
Cpu::contextSwitchSpill()
{
    if (!writeMem_)
        panic("CPU memory port not wired");
    if (state_.stackPhys == 0)
        panic("context switch with no kernel stack configured");

    // The register save area is written to the stack exactly as the
    // kernel's switch path would: 16 words, descending.
    std::uint8_t frame[sizeof(RegisterFile)];
    std::memcpy(frame, state_.regs.data(), sizeof(frame));
    writeMem_(state_.stackPhys - sizeof(frame), frame, sizeof(frame));
    clock_.advance(contextSwitchCycles);
    ++state_.spillCount;
}

OnSocIrqGuard::OnSocIrqGuard(Cpu &cpu) : cpu_(cpu)
{
    cpu_.disableIrq();
}

OnSocIrqGuard::~OnSocIrqGuard()
{
    cpu_.zeroRegisters();
    cpu_.enableIrq();
}

} // namespace sentry::hw
