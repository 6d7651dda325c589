#include "hw/bus_monitor.hh"

namespace sentry::hw
{

void
BusMonitor::onBusTransfer(probe::BusTransfer &event)
{
    CapturedTransaction cap;
    cap.addr = event.addr;
    cap.size = event.size;
    cap.isWrite = event.isWrite;
    cap.initiator = event.initiator;
    if (event.data != nullptr) {
        if (matcher_ != nullptr)
            matcher_->feed({event.data, event.size});
        if (capturePayloads_)
            cap.data.assign(event.data, event.data + event.size);
    }
    bytesObserved_ += event.size;
    trace_.push_back(std::move(cap));
}

} // namespace sentry::hw
