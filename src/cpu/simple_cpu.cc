#include "cpu/simple_cpu.hh"

#include "sim/prof/prof.hh"
#include "sim/stats.hh"

namespace visa
{

CacheParams
visaICacheParams()
{
    return {"icache", 64 * 1024, 4, 64};
}

CacheParams
visaDCacheParams()
{
    return {"dcache", 64 * 1024, 4, 64};
}

SimpleCpu::SimpleCpu(const Program &prog, MainMemory &mem,
                     Platform &platform, MemController &memctrl)
    : Cpu(prog, mem, platform, memctrl,
          visaICacheParams(), visaDCacheParams()),
      pipeline_(platform)
{
}

void
SimpleCpu::resetForTask()
{
    Cpu::resetForTask();
    pipeline_.reset();
    cycle_ = 0;
}

void
SimpleCpu::advanceIdle(Cycles n)
{
    // The pipeline drains and sits idle for n cycles (reconfiguration /
    // frequency switch). The watchdog and cycle counter keep running.
    if (prof::BlockProfiler *prof = prof::currentProfiler())
        prof->addUnattributed(n);
    cycle_ += n;
    pipeline_.restartAt(cycle_);
    pipeline_.tickTo(cycle_);
    syncActivityCycles();
}

void
SimpleCpu::buildStats(StatSet &set) const
{
    Cpu::buildStats(set);
    set.group(statsName())
        .scalar("branch_mispredicts", "static BTFN mispredictions")
        .set(pipeline_.mispredicts());
}

inline void
SimpleCpu::Datapath::charge(PowerActivity &activity,
                            const Instruction &inst)
{
    // Fetch: one I-cache read per instruction (scalar). Source-read
    // counts fall straight out of the operand-role flags (the four
    // source flags occupy bits 0-3, so a branchless shift-add counts
    // them; r0 sources still count as reads).
    activity.add(Unit::ICache);
    static_assert((detail::opSrcRsInt | detail::opSrcRtInt |
                   detail::opSrcRsFp | detail::opSrcRtFp) == 0xF);
    const unsigned src = detail::operandFlags(inst.op) & 0xFu;
    activity.add(Unit::RegfileRead,
                 (src & 1) + ((src >> 1) & 1) + ((src >> 2) & 1) +
                     (src >> 3));
}

RunResult
SimpleCpu::run(Cycles max_cycles)
{
    const Cycles budget_end = max_cycles == noCycleLimit
        ? noCycleLimit
        : cycle_ + max_cycles;
    Datapath datapath;
    return pipeline_.run(*this, datapath, cycle_, budget_end);
}

} // namespace visa
