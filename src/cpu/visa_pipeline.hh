/**
 * @file
 * The VISA in-order pipeline loop: the one per-instruction loop that
 * runs both the simple-fixed processor (cpu/simple_cpu.hh) and the
 * complex processor's VISA simple mode (cpu/ooo_cpu.hh). Instructions
 * execute functionally at commit; their cache outcomes and BTFN check
 * go to the shared VisaTimer, which owns every stall rule. Squashed
 * wrong-path fetches do not perturb the I-cache (the fill is
 * cancelled), so the cache reference stream equals the committed path
 * — the stream the static analyzer reasons about.
 *
 * The two machines differ only in the power activity their datapaths
 * charge, supplied as a compile-time Datapath type with one member,
 *
 *     void charge(PowerActivity &activity, const Instruction &inst);
 *
 * which adds the instruction's fetch, register-read and renaming
 * activity; the D-cache, regfile-write, FU and result-bus charges are
 * the same on both and stay here.
 */

#ifndef VISA_CPU_VISA_PIPELINE_HH
#define VISA_CPU_VISA_PIPELINE_HH

#include "cpu/bpred.hh"
#include "cpu/cpu.hh"
#include "cpu/visa_timing.hh"
#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "sim/trace.hh"

namespace visa
{

/**
 * State of the in-order pipeline between run() calls: the timer, the
 * cycle its current pipeline epoch started at, the platform cycle the
 * devices have been ticked to, and the BTFN mispredict count.
 */
class VisaPipeline
{
  public:
    explicit VisaPipeline(Platform &platform) : platform_(platform) {}

    /** A new task: empty pipeline at cycle 0, devices at cycle 0. */
    void
    reset()
    {
        timer_.reset();
        base_ = 0;
        ticked_ = 0;
        mispredicts_ = 0;
    }

    /**
     * The pipeline drained (idle stretch, mode switch): the next
     * instruction enters an empty pipeline at absolute cycle @p at.
     */
    void
    restartAt(Cycles at)
    {
        base_ = at;
        timer_.reset();
    }

    /** Bring the platform devices up to absolute cycle @p to. */
    Platform::TickResult
    tickTo(Cycles to)
    {
        if (to <= ticked_)
            return {};
        auto res = platform_.tickN(to - ticked_);
        if (res.expired)
            res.offset += ticked_;    // make the offset absolute
        ticked_ = to;
        return res;
    }

    /** Conditional branches that went against BTFN since reset(). */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /**
     * Run @p cpu until HALT, a watchdog expiry or @p budget_end,
     * keeping @p clock (the CPU's published cycle count) at the
     * writeback of the last retired instruction.
     */
    template <class Datapath>
    RunResult
    run(Cpu &cpu, Datapath &datapath, Cycles &clock, Cycles budget_end)
    {
        // Dispatch once on the installed tracer: the untraced
        // instantiation of the loop contains no tracing code, so
        // recording costs nothing unless a tracer is installed.
        Tracer *const tracer = currentTracer();
        return tracer
            ? loop<Datapath, true>(cpu, datapath, clock, budget_end, tracer)
            : loop<Datapath, false>(cpu, datapath, clock, budget_end,
                                    nullptr);
    }

  private:
    template <class Datapath, bool Traced>
    RunResult loop(Cpu &cpu, Datapath &datapath, Cycles &clock,
                   Cycles budget_end, Tracer *tracer);

    Platform &platform_;
    VisaTimer timer_;
    Cycles base_ = 0;      ///< absolute cycle the timer's epoch began
    Cycles ticked_ = 0;    ///< absolute cycle the platform has seen
    std::uint64_t mispredicts_ = 0;
};

template <class Datapath, bool Traced>
RunResult
VisaPipeline::loop(Cpu &cpu, Datapath &datapath, Cycles &clock,
                   Cycles budget_end, [[maybe_unused]] Tracer *tracer)
{
    // Loop-invariant per-instruction work, hoisted: the frequency (and
    // with it the miss penalty) only changes between run() calls, and
    // trace flags are set before a run starts.
    const Cycles penalty = cpu.missPenalty();
    const bool trace_exec = Debug::enabled("Exec");
    // Profiler hoisted like the tracer; attribution charges each
    // retired instruction the cycles the timer advanced for it.
    prof::BlockProfiler *const prof = prof::currentProfiler();
    Cycles prof_prev = clock;
    PowerActivity &activity = cpu.activity_;

    while (true) {
        if (cpu.halted_)
            return {StopReason::Halted};
        if (clock >= budget_end)
            return {StopReason::CycleBudget};

        const Addr pc = cpu.core_.state().pc;
        const bool ihit = cpu.icache_.access(pc, false);

        // Functional execution (commit semantics); MMIO deferred until
        // simulated time reaches this instruction's memory stage.
        ExecInfo info = cpu.core_.step(true);
        const Instruction &inst = info.inst;
        if (trace_exec) [[unlikely]] {
            DPRINTF("Exec", "%8llu  %08x  %s\n",
                    static_cast<unsigned long long>(clock), pc,
                    disassemble(inst, pc).c_str());
        }

        // Data cache (devices are uncached).
        bool dhit = true;
        if (info.isMem && !info.isMmio) {
            dhit = cpu.dcache_.access(info.effAddr, !info.isLoad);
            activity.add(Unit::DCache);
        }

        const bool mispredicted =
            inst.isCondBranch() &&
            staticPredictTaken(inst, pc) != info.taken;
        if (mispredicted)
            ++mispredicts_;
        const bool redirect = timer_.step(inst, ihit ? 0 : penalty,
                                          dhit ? 0 : penalty, mispredicted);
        clock = base_ + timer_.totalCycles();

        if (prof) [[unlikely]] {
            prof->countTimed(pc, inst.isControl(), clock - prof_prev);
            prof_prev = clock;
        }

        if constexpr (Traced) {
            if (!ihit)
                tracer->record(EventKind::IcacheMiss, clock, pc);
            if (!dhit)
                tracer->record(EventKind::DcacheMiss, clock,
                               info.effAddr, pc);
            if (redirect)
                tracer->record(EventKind::BranchMispredict, clock, pc,
                               cpu.retired_, info.taken);
            tracer->record(EventKind::Retire, clock, pc, cpu.retired_);
        }

        datapath.charge(activity, inst);
        if (inst.destIntReg() >= 0 || inst.destFpReg() >= 0)
            activity.add(Unit::RegfileWrite);
        activity.add(Unit::Fu);
        activity.add(Unit::ResultBus);

        // Advance the platform to this instruction's memory stage, then
        // perform any deferred MMIO access at that exact cycle.
        auto tick = tickTo(base_ + timer_.lastMemDone());
        if (info.isMmio)
            cpu.core_.performMmio(info);

        ++cpu.retired_;
        cpu.syncActivityCycles(clock);

        if (tick.expired)
            return {StopReason::WatchdogExpired};
        if (info.halted) {
            cpu.halted_ = true;
            tickTo(clock);
            return {StopReason::Halted};
        }
    }
}

} // namespace visa

#endif // VISA_CPU_VISA_PIPELINE_HH
