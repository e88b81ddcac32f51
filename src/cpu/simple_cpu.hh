/**
 * @file
 * The explicitly-safe "simple-fixed" processor (paper §3.1 and §5.2):
 * a literal implementation of the VISA — six-stage scalar in-order
 * pipeline, static BTFN prediction, merged BTB/I-cache, one unpipelined
 * universal FU, blocking caches, one outstanding memory request.
 *
 * It runs the VISA in-order loop (cpu/visa_pipeline.hh), the same loop
 * as the complex processor's simple mode; what is its own is the power
 * activity of its small datapath (one I-cache read per instruction, a
 * register file read per source operand).
 */

#ifndef VISA_CPU_SIMPLE_CPU_HH
#define VISA_CPU_SIMPLE_CPU_HH

#include "cpu/cpu.hh"
#include "cpu/visa_pipeline.hh"

namespace visa
{

/** Default VISA cache parameters (Table 1). */
CacheParams visaICacheParams();
CacheParams visaDCacheParams();

/** The simple-fixed in-order pipeline. */
class SimpleCpu final : public Cpu
{
  public:
    SimpleCpu(const Program &prog, MainMemory &mem, Platform &platform,
              MemController &memctrl);

    void resetForTask() override;
    RunResult run(Cycles max_cycles = noCycleLimit) override;
    void advanceIdle(Cycles n) override;
    Cycles cycles() const override { return cycle_; }

    std::uint64_t mispredicts() const { return pipeline_.mispredicts(); }

    void buildStats(StatSet &set) const override;

  protected:
    const char *statsName() const override { return "simple"; }

  private:
    /** Activity charges of the simple-fixed datapath. */
    struct Datapath
    {
        void charge(PowerActivity &activity, const Instruction &inst);
    };

    VisaPipeline pipeline_;
    Cycles cycle_ = 0;
};

} // namespace visa

#endif // VISA_CPU_SIMPLE_CPU_HH
