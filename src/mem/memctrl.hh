/**
 * @file
 * Main-memory timing: a fixed 100 ns access latency (Table 1) plus a
 * channel-occupancy contention model. With a single outstanding request
 * (the VISA, simple-fixed, and simple mode cases) the latency is exactly
 * the worst-case memory stall time; with multiple outstanding requests
 * (complex mode) later requests can be delayed by channel contention,
 * which is exactly why the complex pipeline cannot be bounded by Table 1
 * (paper §3.2).
 */

#ifndef VISA_MEM_MEMCTRL_HH
#define VISA_MEM_MEMCTRL_HH

#include <cstdint>

#include "sim/types.hh"

namespace visa
{

/**
 * Cycles at @p f MHz covering @p ns nanoseconds, rounded up:
 * ceil(ns * f / 1000) over the integer part of ns * f. The one
 * ns-to-cycles conversion of the memory timing: the WCET analyzer's
 * miss penalty and the controller's stall must agree (invariant T1).
 */
inline Cycles
nsToCycles(double ns, MHz f)
{
    auto num = static_cast<Cycles>(ns * f);
    return (num + 999) / 1000;
}

/**
 * Chip-level interconnect seam. A multi-core chip attaches one of
 * these to every core's MemController; complex-mode misses are then
 * routed through the shared banked bus + L2 instead of the core's
 * private channel model. Simple mode and the simple-fixed pipeline
 * keep using the static worst-case penalty (stallCycles): their
 * traffic rides a reserved TDM lane of the bus by construction, so
 * the VISA's Table-1 bound — and every watchdog budget derived from
 * it — survives the move to a shared memory system unchanged.
 */
class ChipBusPort
{
  public:
    virtual ~ChipBusPort() = default;

    /**
     * Route a complex-mode miss from @p core, issued at core-local
     * cycle @p now with the core clocked at @p f, for block address
     * @p addr. @return the core-local cycle the fill completes.
     */
    virtual Cycles route(int core, Cycles now, MHz f, Addr addr) = 0;
};

/** Timing parameters of the memory controller. */
struct MemCtrlParams
{
    /** Worst-case (uncontended) access latency, ns (Table 1). */
    double accessNs = 100.0;
    /** Channel occupancy per request, ns (bandwidth limit). */
    double occupancyNs = 30.0;
    /** Maximum outstanding misses (MSHRs) in complex mode. */
    int maxOutstanding = 8;
};

/** Converts the ns-specified memory timing into cycles at frequency f. */
class MemController
{
  public:
    explicit MemController(const MemCtrlParams &params = {})
        : params_(params)
    {}

    /**
     * Uncontended miss penalty in cycles at @p f MHz: the worst-case
     * memory stall time the VISA is specified with.
     */
    Cycles
    stallCycles(MHz f) const
    {
        return nsToCycles(params_.accessNs, f);
    }

    /** Channel occupancy in cycles at @p f MHz. */
    Cycles
    occupancyCycles(MHz f) const
    {
        return nsToCycles(params_.occupancyNs, f);
    }

    /**
     * Schedule a request issued at absolute cycle @p now with frequency
     * @p f; @return the absolute cycle the fill completes. Applies the
     * channel contention model — or, when this controller is attached
     * to a chip bus (attachBus), the chip's shared banked-bus + L2
     * model, keyed by the miss's block address @p addr. Detached
     * controllers ignore @p addr, so single-core rigs are bit-identical
     * to the historical model.
     */
    Cycles
    schedule(Cycles now, MHz f, Addr addr = 0)
    {
        if (bus_)
            return bus_->route(coreId_, now, f, addr);
        Cycles start = now > channelFree_ ? now : channelFree_;
        channelFree_ = start + occupancyCycles(f);
        return start + stallCycles(f);
    }

    /**
     * Schedule a request with the guarantee that it is the only
     * outstanding one (simple mode / simple-fixed): no contention.
     */
    Cycles
    scheduleExclusive(Cycles now, MHz f) const
    {
        return now + stallCycles(f);
    }

    /** Forget channel state (e.g., across task boundaries). */
    void reset() { channelFree_ = 0; }

    /**
     * Attach this controller's complex-mode miss stream to a chip bus
     * as @p core (detach with nullptr). A multi-core scheduler
     * re-attaches a migrating task's controller with the new core id
     * at dispatch.
     */
    void
    attachBus(ChipBusPort *bus, int core = 0)
    {
        bus_ = bus;
        coreId_ = core;
    }
    ChipBusPort *bus() const { return bus_; }
    int busCore() const { return coreId_; }

    int maxOutstanding() const { return params_.maxOutstanding; }
    const MemCtrlParams &params() const { return params_; }

  private:
    MemCtrlParams params_;
    Cycles channelFree_ = 0;
    ChipBusPort *bus_ = nullptr;    ///< null on every single-core path
    int coreId_ = 0;
};

} // namespace visa

#endif // VISA_MEM_MEMCTRL_HH
