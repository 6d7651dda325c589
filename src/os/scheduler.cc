#include "os/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "os/process.hh"

namespace sentry::os
{

namespace
{
void
eraseFrom(std::deque<Process *> &queue, Process *process)
{
    queue.erase(std::remove(queue.begin(), queue.end(), process),
                queue.end());
}
} // namespace

void
Scheduler::admit(Process *process)
{
    runQueue_.push_back(process);
}

void
Scheduler::remove(Process *process)
{
    eraseFrom(runQueue_, process);
    eraseFrom(parked_, process);
    if (current_ == process)
        current_ = nullptr;
}

void
Scheduler::makeUnschedulable(Process *process)
{
    process->setSchedulable(false);
    eraseFrom(runQueue_, process);
    if (current_ == process)
        current_ = nullptr;
    parked_.push_back(process);
}

void
Scheduler::makeSchedulable(Process *process)
{
    process->setSchedulable(true);
    eraseFrom(parked_, process);
    runQueue_.push_back(process);
}

Process *
Scheduler::tick()
{
    if (current_ != nullptr) {
        // Outgoing context: registers land on the kernel stack in DRAM.
        cpu_.setCurrentStack(current_->kernelStackTop());
        cpu_.contextSwitchSpill();
        runQueue_.push_back(current_);
        current_ = nullptr;
    }
    if (runQueue_.empty())
        return nullptr;
    current_ = runQueue_.front();
    runQueue_.pop_front();
    if (!current_->schedulable())
        panic("unschedulable process \"%s\" on the run queue",
              current_->name().c_str());
    cpu_.setCurrentStack(current_->kernelStackTop());
    return current_;
}

Scheduler::ForkState
Scheduler::forkState() const
{
    ForkState fs;
    for (const Process *process : runQueue_)
        fs.runQueue.push_back(process->pid());
    for (const Process *process : parked_)
        fs.parked.push_back(process->pid());
    fs.currentPid = current_ != nullptr ? current_->pid() : 0;
    return fs;
}

void
Scheduler::restoreForkState(const ForkState &fs,
                            const std::function<Process *(int)> &by_pid)
{
    runQueue_.clear();
    for (const int pid : fs.runQueue)
        runQueue_.push_back(by_pid(pid));
    parked_.clear();
    for (const int pid : fs.parked)
        parked_.push_back(by_pid(pid));
    current_ = fs.currentPid != 0 ? by_pid(fs.currentPid) : nullptr;
}

} // namespace sentry::os
