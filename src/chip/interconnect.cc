#include "chip/interconnect.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace visa
{
namespace chip
{

ChipInterconnect::ChipInterconnect(int cores, const ChipBusParams &params)
    : params_(params), l2_(params.l2)
{
    if (cores < 1)
        fatal("ChipInterconnect: need at least one core (got %d)", cores);
    if (params_.banks < 1)
        fatal("ChipInterconnect: need at least one bank (got %d)",
              params_.banks);
    clocks_.resize(static_cast<std::size_t>(cores));
    lanes_.resize(static_cast<std::size_t>(cores));
    bankFreeNs_.assign(static_cast<std::size_t>(params_.banks), 0.0);
}

double
ChipInterconnect::advanceClock(int core, Cycles now, MHz f)
{
    CoreClock &ck = clocks_[static_cast<std::size_t>(core)];
    // Advance the core's shared-timeline position. Frequency changes
    // between two misses attribute the whole gap to the frequency of
    // the later call; the scheduler's per-dispatch syncCore() bounds
    // the resulting drift to one quantum.
    if (now > ck.lastCycle)
        ck.ns += static_cast<double>(now - ck.lastCycle) * 1000.0 /
                 static_cast<double>(f);
    ck.lastCycle = now;
    return ck.ns;
}

double
ChipInterconnect::replay(double reqNs, Addr addr)
{
    // Retire fills that completed before this request arrived.
    auto drained = std::upper_bound(fills_.begin(), fills_.end(), reqNs);
    fills_.erase(fills_.begin(), drained);

    // Chip MSHR pool: a full pool blocks the request until the
    // earliest outstanding fill frees its entry.
    double startNs = reqNs;
    while (static_cast<int>(fills_.size()) >= params_.mshrs) {
        startNs = std::max(startNs, fills_.front());
        fills_.erase(fills_.begin());
        ++mshrStalls_;
    }
    mshrWaitNs_ += startNs - reqNs;

    // Bank arbitration: the block's bank serializes requests at
    // busOccupancyNs apiece.
    const Addr block = addr >> l2_.blockShift();
    const std::size_t bank =
        static_cast<std::size_t>(block % static_cast<Addr>(params_.banks));
    const double grantNs = std::max(startNs, bankFreeNs_[bank]);
    if (grantNs > startNs)
        ++bankConflicts_;
    bankWaitNs_ += grantNs - startNs;
    bankFreeNs_[bank] = grantNs + params_.busOccupancyNs;

    // Shared L2 lookup (tag-only, allocate on miss).
    const bool hit = l2_.access(addr, false);
    const double fillNs =
        grantNs + (hit ? params_.l2HitNs : params_.memAccessNs);
    fills_.insert(std::upper_bound(fills_.begin(), fills_.end(), fillNs),
                  fillNs);

    ++requests_;
    if (hit)
        ++l2Hits_;
    return fillNs;
}

double
ChipInterconnect::laneRoute(EpochLane &lane, double reqNs, Addr addr)
{
    // The same MSHR -> bank -> L2 pipeline as replay(), but against
    // the lane's private snapshot-plus-own-traffic view, and counting
    // nothing: the drain's replay is the single source of stats, so
    // totals are independent of the epoch structure's thread layout.
    auto drained =
        std::upper_bound(lane.fills.begin(), lane.fills.end(), reqNs);
    lane.fills.erase(lane.fills.begin(), drained);

    double startNs = reqNs;
    while (static_cast<int>(lane.fills.size()) >= params_.mshrs) {
        startNs = std::max(startNs, lane.fills.front());
        lane.fills.erase(lane.fills.begin());
    }

    const Addr block = addr >> l2_.blockShift();
    const std::size_t bank =
        static_cast<std::size_t>(block % static_cast<Addr>(params_.banks));
    const double grantNs = std::max(startNs, lane.bankFree[bank]);
    lane.bankFree[bank] = grantNs + params_.busOccupancyNs;

    // L2 view: the epoch-frozen tags (probe() is a read-only scan, so
    // concurrent lanes share them safely) plus this core's own fills.
    bool hit = l2_.probe(addr);
    if (!hit)
        hit = std::find(lane.filledBlocks.begin(),
                        lane.filledBlocks.end(),
                        block) != lane.filledBlocks.end();
    if (!hit)
        lane.filledBlocks.push_back(block);
    const double fillNs =
        grantNs + (hit ? params_.l2HitNs : params_.memAccessNs);
    lane.fills.insert(std::upper_bound(lane.fills.begin(),
                                       lane.fills.end(), fillNs),
                      fillNs);
    return fillNs;
}

Cycles
ChipInterconnect::route(int core, Cycles now, MHz f, Addr addr)
{
    const double reqNs = advanceClock(core, now, f);

    double fillNs;
    if (epochActive_) {
        EpochLane &lane = lanes_[static_cast<std::size_t>(core)];
        lane.reqNs.push_back(reqNs);
        lane.addrs.push_back(addr);
        fillNs = laneRoute(lane, reqNs, addr);
    } else {
        fillNs = replay(reqNs, addr);
    }

    // Back to the core's cycle domain: the fill lands ceil(delay * f)
    // core cycles after issue (at least the L2 hit time, so a routed
    // miss is never cheaper than one bus round trip).
    const double delayNs = fillNs - reqNs;
    const auto delayCycles = static_cast<Cycles>(
        std::ceil(delayNs * static_cast<double>(f) / 1000.0));
    return now + std::max<Cycles>(delayCycles, 1);
}

void
ChipInterconnect::syncCore(int core, double wallNs, Cycles coreCycle)
{
    CoreClock &ck = clocks_[static_cast<std::size_t>(core)];
    ck.ns = wallNs;
    ck.lastCycle = coreCycle;
}

void
ChipInterconnect::beginEpoch()
{
    if (epochActive_)
        fatal("ChipInterconnect: beginEpoch() inside an open epoch");
    epochActive_ = true;
    clearLanes();
    for (EpochLane &lane : lanes_) {
        lane.fills = fills_;
        lane.bankFree = bankFreeNs_;
    }
}

void
ChipInterconnect::drainEpoch()
{
    if (!epochActive_)
        fatal("ChipInterconnect: drainEpoch() without beginEpoch()");
    epochActive_ = false;
    // K-way merge of the per-core streams (each already ascending in
    // request ns) keyed by (request ns, core id): the replay order —
    // and with it every counter and every future epoch's snapshot — is
    // a pure function of the request streams.
    std::vector<std::size_t> idx(lanes_.size(), 0);
    for (;;) {
        int pick = -1;
        double pickNs = 0.0;
        for (std::size_t c = 0; c < lanes_.size(); ++c) {
            const EpochLane &lane = lanes_[c];
            if (idx[c] >= lane.reqNs.size())
                continue;
            const double ns = lane.reqNs[idx[c]];
            if (pick < 0 || ns < pickNs) {
                pick = static_cast<int>(c);
                pickNs = ns;
            }
        }
        if (pick < 0)
            break;
        EpochLane &lane = lanes_[static_cast<std::size_t>(pick)];
        replay(pickNs, lane.addrs[idx[static_cast<std::size_t>(pick)]]);
        ++idx[static_cast<std::size_t>(pick)];
    }
    clearLanes();
}

void
ChipInterconnect::clearLanes()
{
    for (EpochLane &lane : lanes_) {
        lane.reqNs.clear();
        lane.addrs.clear();
        lane.filledBlocks.clear();
        lane.fills.clear();
        lane.bankFree.clear();
    }
}

void
ChipInterconnect::buildStats(StatGroup &g) const
{
    g.scalar("requests", "misses routed over the shared bus")
        .set(requests_);
    g.scalar("l2_hits", "shared-L2 tag hits").set(l2Hits_);
    g.scalar("bank_conflicts", "requests that waited on a busy bank")
        .set(bankConflicts_);
    g.scalar("mshr_stalls", "requests that waited for a chip MSHR")
        .set(mshrStalls_);
    g.scalar("bank_wait_ns", "total queueing delay behind busy banks, ns")
        .set(static_cast<std::uint64_t>(bankWaitNs_));
    g.scalar("mshr_wait_ns",
             "total stall waiting for a free chip MSHR, ns")
        .set(static_cast<std::uint64_t>(mshrWaitNs_));
}

void
ChipInterconnect::reset()
{
    for (CoreClock &ck : clocks_)
        ck = CoreClock{};
    std::fill(bankFreeNs_.begin(), bankFreeNs_.end(), 0.0);
    fills_.clear();
    clearLanes();
    epochActive_ = false;
    l2_.flush();
    l2_.resetStats();
    requests_ = 0;
    l2Hits_ = 0;
    bankConflicts_ = 0;
    mshrStalls_ = 0;
    bankWaitNs_ = 0.0;
    mshrWaitNs_ = 0.0;
}

} // namespace chip
} // namespace visa
