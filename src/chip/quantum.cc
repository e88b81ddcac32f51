#include "chip/quantum.hh"

#include "sim/parallel.hh"

namespace visa
{
namespace chip
{

QuantumDriver::QuantumDriver(ChipInterconnect *bus, int cores)
    : bus_(bus), cores_(cores), tr_(currentTracer())
{
    if (!tr_ || cores_ == 1)
        return;
    rings_.reserve(static_cast<std::size_t>(cores_));
    for (int c = 0; c < cores_; ++c) {
        rings_.emplace_back(tr_->capacity());
        rings_.back().setKindMask(tr_->kindMask());
        rings_.back().setCoreId(c);
    }
}

void
QuantumDriver::run(const std::vector<int> &live,
                   const std::function<void(int)> &work)
{
    if (cores_ == 1) {
        for (const int c : live)
            work(c);
        return;
    }
    bus_->beginEpoch();
    parallelFor(live.size(), [&](std::size_t k) {
        const int c = live[k];
        Tracer *const ring =
            tr_ ? &rings_[static_cast<std::size_t>(c)] : nullptr;
        Tracer *const prev = ring ? installTracer(ring) : nullptr;
        work(c);
        if (ring)
            installTracer(prev);
    });
    bus_->drainEpoch();
    if (tr_)
        Tracer::mergeInto(*tr_, rings_);
}

} // namespace chip
} // namespace visa
