/**
 * @file
 * The multi-core VISA chip: N cores — each with its own Platform
 * (watchdog, cycle counter, DVS registers: the per-core safety and
 * clock domain) and its own SimpleCpu/OooCpu pair sharing per-core
 * L1s — in front of one ChipInterconnect (banked bus + shared L2 +
 * chip MSHR pool).
 *
 * Sharing boundary, and why: the L2 and the bus are per-chip objects
 * (the scale-out the ROADMAP calls for); the Platform stays per-core
 * because it *is* the VISA watchdog — the paper's safety argument
 * needs one independent checkpoint counter per execution domain, and
 * a shared watchdog would let one core's recovery mask another's
 * missed checkpoint. On a multi-core chip each core also runs on its
 * own functional memory image (a loadProgram replica of the chip's):
 * free-running N copies of one program is SPMD replication — the same
 * private-rig model the paired detector and the multi-task scheduler
 * use — and private images are what lets the cores execute on
 * concurrent host threads without the functional state racing. The
 * single-core chip keeps the chip-level MainMemory, bit-identical to
 * the historical rig.
 *
 * Cores are stepped deterministically: runAll() executes the cores in
 * fixed cycle windows through the shared quantum driver
 * (chip/quantum.hh), so a chip run is a pure function of (program,
 * config, window) — the cores of one window may run serially or on
 * worker threads (sim/parallel.hh) with bit-identical results. The
 * per-core MemControllers sit on the shared bus only on a multi-core
 * chip; a single-core chip is the historical rig, bit-identical.
 */

#ifndef VISA_CHIP_CHIP_HH
#define VISA_CHIP_CHIP_HH

#include <memory>
#include <vector>

#include "chip/interconnect.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "sim/stats.hh"
#include "workloads/clab.hh"

namespace visa
{
namespace chip
{

/** Chip geometry; the bus/L2 knobs ride in ChipBusParams. */
struct ChipConfig
{
    int cores = 1;
    ChipBusParams bus;
    MemCtrlParams memctrl;
};

class Chip;

/**
 * One execution slot: Platform + bus-attached MemController, plus the
 * SimpleCpu/OooCpu pair built on demand (a VISA core is the pair — the
 * complex pipeline for throughput, the simple one for recovery and
 * for paired-core redundant execution).
 */
class ChipCore
{
  public:
    int id() const { return id_; }
    Platform &platform() { return platform_; }
    MemController &memctrl() { return memctrl_; }
    /** The functional memory this core's pipelines run on: its private
     *  replica on a multi-core chip, the chip image on a single-core
     *  one (see the file comment). */
    MainMemory &mem();

    /** The complex (out-of-order) pipeline; built on first use. */
    OooCpu &ooo();
    /** The simple in-order pipeline; built on first use. */
    SimpleCpu &simple();

    /**
     * Construct the pipeline WITHOUT resetting it for a task — the
     * builder owns the exact construction dance (block-cache knob
     * before reset, mode switch and frequency after); fatal if this
     * pipeline was already built.
     */
    OooCpu &makeOoo();
    SimpleCpu &makeSimple();

  private:
    friend class Chip;
    ChipCore(Chip &chip, int id);

    Chip &chip_;
    int id_;
    Platform platform_;
    MemController memctrl_;
    /** Multi-core chips only: this core's functional image. */
    std::unique_ptr<MainMemory> privMem_;
    std::unique_ptr<OooCpu> ooo_;
    std::unique_ptr<SimpleCpu> simple_;
};

class Chip
{
  public:
    /** @p prog must outlive the chip (the builder owns both). */
    Chip(const Program &prog, const ChipConfig &cfg);
    ~Chip();
    Chip(const Chip &) = delete;
    Chip &operator=(const Chip &) = delete;

    const Program &program() const { return prog_; }
    const ChipConfig &config() const { return cfg_; }
    int numCores() const { return static_cast<int>(cores_.size()); }

    MainMemory &mem() { return mem_; }
    ChipInterconnect &bus() { return bus_; }
    ChipCore &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }

    /** Result of a free chip run. */
    struct RunAllResult
    {
        bool allHalted = false;
        std::uint64_t retired = 0;    ///< sum over cores
    };

    /**
     * Free-run the chip: every core executes the chip's program on its
     * complex pipeline in @p window-cycle synchronization quanta until
     * every core halts or @p maxCycles is exhausted. Cores the caller
     * never touched are built (and resetForTask) on first use here.
     *
     * Each quantum runs through chip/quantum.hh: on a multi-core chip
     * the cores run over the process-wide worker pool with the
     * interconnect in epoch-buffered mode and per-core trace rings
     * merged at the barrier, so the result — stats, traces,
     * RunAllResult — is bit-identical for any VISA_THREADS setting; a
     * single-core chip runs inline on the caller's tracer, the
     * historical rig. Only the cycles the cores actually consume are
     * charged against @p maxCycles (a quantum in which every live core
     * halts early charges the longest actual run, not the whole
     * window), and halted cores leave the schedule.
     */
    RunAllResult runAll(Cycles maxCycles, Cycles window = 4096);

    /** Bus counters as a "chip.bus" stats group. */
    void buildStats(StatSet &set) const;

    /**
     * Transfer ownership of the program (and the workload it came
     * from, if any) into the chip. The ctor's @p prog reference must
     * point at @p prog's heap object (SimBuilder guarantees this).
     */
    void
    adoptProgram(std::unique_ptr<Program> prog,
                 std::unique_ptr<Workload> workload)
    {
        ownedProg_ = std::move(prog);
        workload_ = std::move(workload);
    }
    /** The built workload, or nullptr unless one was adopted. */
    const Workload *workload() const { return workload_.get(); }

  private:
    friend class ChipCore;

    // Ownership slots first: cores (whose CPUs reference the program)
    // are destroyed before the program they run.
    std::unique_ptr<Program> ownedProg_;
    std::unique_ptr<Workload> workload_;
    const Program &prog_;
    ChipConfig cfg_;
    MainMemory mem_;
    ChipInterconnect bus_;
    std::vector<std::unique_ptr<ChipCore>> cores_;
};

} // namespace chip
} // namespace visa

#endif // VISA_CHIP_CHIP_HH
