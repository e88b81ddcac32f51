/**
 * @file
 * The chip-level shared memory system: a banked bus in front of a
 * shared tag-only L2 and one chip-wide pool of outstanding fills
 * (MSHRs), ticked on a single nanosecond timeline. Per-core
 * MemControllers attach through the ChipBusPort seam (mem/memctrl.hh);
 * only complex-mode D-side misses are routed here. Simple-mode and
 * simple-fixed traffic keeps the static Table-1 penalty — it occupies
 * a reserved TDM lane of the bus by construction — so the VISA
 * watchdog budgets derived from the single-core bound stay valid on
 * the chip, and the dynamic contention modeled here is charged to the
 * complex pipeline only, where the paper already gave up on bounds.
 *
 * Time base: each attached core advances its own (cycle, ns) clock on
 * every routed miss using the frequency of that call; the multi-core
 * scheduler re-anchors the per-core clocks to the shared wall at every
 * dispatch boundary (syncCore), which bounds cross-domain drift to one
 * scheduling quantum. All contention state (bank free times, fill
 * completion times) lives in nanoseconds, so cores at different DVS
 * operating points contend on one timeline.
 *
 * Execution modes (PR 10):
 *
 *  - synchronous (the default): route() charges the request against
 *    the shared state immediately. Correct whenever one host thread
 *    drives all cores in timestamp order (the single-core rig, the
 *    serial G-EDF engine, unit tests).
 *
 *  - epoch-buffered (between beginEpoch() and drainEpoch()): each
 *    core's route() calls see a private lane — a snapshot of the
 *    shared bank/MSHR/L2 state frozen at the epoch boundary plus the
 *    core's own in-epoch requests — and buffer the request instead of
 *    touching shared state. drainEpoch() then replays every buffered
 *    request against the authoritative state in (request ns, core id)
 *    order. Because a core's observed latency is a pure function of
 *    the frozen snapshot and its own request stream, the lanes can be
 *    driven from concurrent host threads and the run is bit-identical
 *    no matter how many threads execute it; cross-core contention
 *    lands in the shared counters (and in later epochs' snapshots)
 *    with at most one epoch of lag — the same drift concession the
 *    per-dispatch clock anchoring already makes.
 */

#ifndef VISA_CHIP_INTERCONNECT_HH
#define VISA_CHIP_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/memctrl.hh"
#include "sim/types.hh"

namespace visa
{

class StatGroup;

namespace chip
{

/** Geometry and timing of the shared bus + L2. */
struct ChipBusParams
{
    /** Bus banks; a block maps to bank (blockAddr % banks). */
    int banks = 4;
    /** Per-request bank occupancy, ns (the contention quantum). */
    double busOccupancyNs = 30.0;
    /** Shared-L2 hit latency, ns. */
    double l2HitNs = 20.0;
    /** L2-miss (main memory) latency, ns (Table 1). */
    double memAccessNs = 100.0;
    /** Chip-wide outstanding-fill cap (the shared MSHR pool). */
    int mshrs = 16;
    /** Shared L2 geometry (tag-only, like the L1s). */
    CacheParams l2 = {"l2", 512 * 1024, 8, 64, ReplPolicy::Lru};
};

/**
 * The shared banked bus + L2 + MSHR pool. Deterministic: state is a
 * pure function of the route()/syncCore() call sequence (synchronous
 * mode) or of the per-core request streams and the epoch boundaries
 * (epoch mode) — thread interleaving is unobservable in either.
 */
class ChipInterconnect final : public ChipBusPort
{
  public:
    explicit ChipInterconnect(int cores, const ChipBusParams &params = {});

    /**
     * Route one complex-mode miss (ChipBusPort). Applies, in order:
     * the chip MSHR pool (a full pool stalls the request until the
     * earliest outstanding fill completes), bank arbitration (the
     * block's bank must be free for busOccupancyNs), and the L2 lookup
     * (hit: l2HitNs, miss: memAccessNs beyond the grant). Inside an
     * epoch the same pipeline runs against the caller's private lane;
     * only the per-core clock and lane are touched, so concurrent
     * calls from different cores are race-free.
     */
    Cycles route(int core, Cycles now, MHz f, Addr addr) override;

    /**
     * Re-anchor @p core's clock: core-local cycle @p coreCycle is
     * declared to be at @p wallNs on the shared timeline. Called by
     * the scheduler at every dispatch boundary (and whenever a task
     * migrates onto @p core with its own cycle domain). Touches only
     * @p core's slot — safe from that core's epoch thread.
     */
    void syncCore(int core, double wallNs, Cycles coreCycle);

    /**
     * Enter epoch-buffered mode: freeze a per-core snapshot of the
     * bank/MSHR state (the L2 is snapshot by leaving it untouched —
     * lanes probe its tags read-only) and start buffering requests.
     */
    void beginEpoch();

    /**
     * Leave epoch mode: replay every buffered request against the
     * authoritative shared state in (request ns, core id) order,
     * counting all contention stats there. Must be called from one
     * thread after all cores' epoch work joined.
     */
    void drainEpoch();

    /** True between beginEpoch() and drainEpoch(). */
    bool epochActive() const { return epochActive_; }

    /** Forget all contention and L2 state (between campaigns). */
    void reset();

    int cores() const { return static_cast<int>(clocks_.size()); }
    const ChipBusParams &params() const { return params_; }
    Cache &l2() { return l2_; }

    /** The shared-timeline position of @p core, ns. */
    double coreNs(int core) const { return clocks_[core].ns; }

    std::uint64_t requests() const { return requests_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t bankConflicts() const { return bankConflicts_; }
    std::uint64_t mshrStalls() const { return mshrStalls_; }
    /** Total queueing delay behind busy banks, ns. */
    double bankWaitNs() const { return bankWaitNs_; }
    /** Total stall waiting for a free chip MSHR, ns. */
    double mshrWaitNs() const { return mshrWaitNs_; }

    /** Publish the contention counters into @p g. */
    void buildStats(StatGroup &g) const;

  private:
    /** Per-core (cycle, ns) anchor; advanced by route(), reset by
     *  syncCore(). */
    struct CoreClock
    {
        double ns = 0.0;
        Cycles lastCycle = 0;
    };

    /**
     * One core's private epoch view: the bank/MSHR state frozen at
     * beginEpoch() evolved by this core's own requests, plus the
     * buffered request stream for the drain. Thread-confined to the
     * core's host thread for the duration of the epoch.
     */
    struct EpochLane
    {
        std::vector<double> reqNs;       ///< buffered request times
        std::vector<Addr> addrs;         ///< buffered request addrs
        std::vector<double> fills;       ///< lane view of fills_
        std::vector<double> bankFree;    ///< lane view of bankFreeNs_
        /** Blocks this core filled into the L2 during the epoch (its
         *  own refills hit; other cores' land next epoch). */
        std::vector<Addr> filledBlocks;
    };

    /**
     * The shared-state pipeline of one request (MSHR pool -> bank
     * arbitration -> L2), mutating fills_/bankFreeNs_/l2_ and all
     * counters. @return the fill completion time, ns.
     */
    double replay(double reqNs, Addr addr);
    /** The same pipeline against @p lane's private view; counts
     *  nothing (the drain's replay owns the stats). */
    double laneRoute(EpochLane &lane, double reqNs, Addr addr);
    /** Empty every lane's snapshot and request stream. */
    void clearLanes();
    /** Advance @p core's clock to @p now at @p f; @return its ns. */
    double advanceClock(int core, Cycles now, MHz f);

    ChipBusParams params_;
    Cache l2_;
    std::vector<CoreClock> clocks_;
    std::vector<double> bankFreeNs_;
    /** Outstanding fill completion times, ns, ascending. */
    std::vector<double> fills_;
    std::vector<EpochLane> lanes_;
    bool epochActive_ = false;

    std::uint64_t requests_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t bankConflicts_ = 0;
    std::uint64_t mshrStalls_ = 0;
    double bankWaitNs_ = 0.0;
    double mshrWaitNs_ = 0.0;
};

} // namespace chip
} // namespace visa

#endif // VISA_CHIP_INTERCONNECT_HH
