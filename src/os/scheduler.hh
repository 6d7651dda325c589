/**
 * @file
 * Round-robin scheduler with the unschedulable queue Sentry uses to
 * park encrypted processes while the screen is locked (paper section 7).
 *
 * A context switch spills the outgoing register file to the current
 * kernel stack in DRAM — the hazard AES On SoC's irq guard exists for.
 */

#ifndef SENTRY_OS_SCHEDULER_HH
#define SENTRY_OS_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "hw/cpu.hh"

namespace sentry::os
{

class Process;

/** The run queue. */
class Scheduler
{
  public:
    explicit Scheduler(hw::Cpu &cpu) : cpu_(cpu) {}

    /** Add a process to the run queue. */
    void admit(Process *process);

    /** Remove a process entirely (exit). */
    void remove(Process *process);

    /** Park a process (Sentry: encrypted while locked). */
    void makeUnschedulable(Process *process);

    /** Return a parked process to the run queue. */
    void makeSchedulable(Process *process);

    /** @return the currently running process (may be nullptr). */
    Process *current() const { return current_; }

    /**
     * Timer tick: pick the next runnable process. Switching away from a
     * running process spills the register file to its kernel stack.
     * @return the newly running process (nullptr when queue empty).
     */
    Process *tick();

    /** @return processes waiting in the unschedulable queue. */
    const std::deque<Process *> &parked() const { return parked_; }

    /** @return size of the run queue (excluding current). */
    std::size_t runnable() const { return runQueue_.size(); }

    /**
     * Queue state for snapshot/fork, by pid, so that it names no
     * process object of one specific kernel.
     */
    struct ForkState
    {
        std::vector<int> runQueue;
        std::vector<int> parked;
        int currentPid = 0; //!< 0 = none

        bool operator==(const ForkState &) const = default;
    };

    ForkState forkState() const;

    /**
     * Refill the queues from @p fs in place; @p by_pid maps each pid to
     * this kernel's process. No context switch happens.
     */
    void restoreForkState(const ForkState &fs,
                          const std::function<Process *(int)> &by_pid);

  private:
    hw::Cpu &cpu_;
    std::deque<Process *> runQueue_;
    std::deque<Process *> parked_;
    Process *current_ = nullptr;
};

} // namespace sentry::os

#endif // SENTRY_OS_SCHEDULER_HH
