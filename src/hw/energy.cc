#include "hw/energy.hh"

#include "common/logging.hh"

namespace sentry::hw
{

const char *
energyCategoryName(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::CpuAes:
        return "cpu-aes";
      case EnergyCategory::CryptoAccel:
        return "crypto-accel";
      case EnergyCategory::MemCopy:
        return "mem-copy";
      case EnergyCategory::Zeroing:
        return "zeroing";
      case EnergyCategory::Dma:
        return "dma";
      case EnergyCategory::PageFault:
        return "page-fault";
      case EnergyCategory::Other:
        return "other";
      default:
        return "?";
    }
}

EnergyModel::EnergyModel(EnergyParams params, double battery_joules)
    : params_(params), batteryJoules_(battery_joules)
{}

void
EnergyModel::charge(EnergyCategory category, double joules)
{
    if (joules < 0)
        panic("negative energy charge (%f J)", joules);
    state_.consumed[static_cast<std::size_t>(category)] += joules;
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::PowerEvent)) {
        probe::PowerEvent event{energyCategoryName(category), joules};
        trace_->emit(event);
    }
}

double
EnergyModel::consumed(EnergyCategory category) const
{
    return state_.consumed[static_cast<std::size_t>(category)];
}

double
EnergyModel::totalConsumed() const
{
    double total = 0.0;
    for (double j : state_.consumed)
        total += j;
    return total;
}

double
EnergyModel::batteryFractionUsed() const
{
    if (batteryJoules_ <= 0)
        return 0.0;
    return totalConsumed() / batteryJoules_;
}

void
EnergyModel::reset()
{
    state_.consumed.fill(0.0);
}

} // namespace sentry::hw
