/**
 * @file
 * The synchronization-quantum driver shared by Chip::runAll and the
 * scheduler's epoch driver. One quantum: beginEpoch, each live core's
 * work over the worker pool with its own trace ring installed,
 * drainEpoch, then a (cycle, core id) merge of the rings into the
 * caller's tracer. Nothing a core computes depends on how the host
 * interleaved the cores, so results are bit-identical for any
 * VISA_THREADS (DESIGN.md §13). A single-core chip has no cross-core
 * traffic to order: its quantum runs inline on the caller's tracer
 * with no epoch and no ring — the classic single-core rig.
 */

#ifndef VISA_CHIP_QUANTUM_HH
#define VISA_CHIP_QUANTUM_HH

#include <functional>
#include <vector>

#include "chip/interconnect.hh"
#include "sim/trace.hh"

namespace visa
{
namespace chip
{

class QuantumDriver
{
  public:
    /**
     * Drive the @p cores cores of a chip whose shared interconnect is
     * @p bus (unused, and may be null, when @p cores == 1). Captures
     * the calling thread's tracer; the per-core rings copy its
     * capacity and kind mask.
     */
    QuantumDriver(ChipInterconnect *bus, int cores);

    /**
     * Run one quantum: @p work(c) for every core id c in @p live.
     * Each call touches only core c's state; calls may run on
     * concurrent worker threads.
     */
    void run(const std::vector<int> &live,
             const std::function<void(int)> &work);

  private:
    ChipInterconnect *bus_;
    int cores_;
    Tracer *tr_;
    std::vector<Tracer> rings_;
};

} // namespace chip
} // namespace visa

#endif // VISA_CHIP_QUANTUM_HH
