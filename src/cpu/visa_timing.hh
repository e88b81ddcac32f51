/**
 * @file
 * The VISA pipeline timing model (paper §3.1): a six-stage scalar
 * in-order pipeline — fetch, decode, register read, execute, memory,
 * writeback — with:
 *   - a blocking I-cache in fetch (merged BTB: correctly-predicted taken
 *     branches redirect fetch with no bubble),
 *   - static backward-taken / forward-not-taken prediction; mispredicted
 *     branches and indirect jumps redirect fetch one cycle after the
 *     execute stage resolves them (four-cycle penalty),
 *   - a single unpipelined universal function unit occupying execute for
 *     the instruction's full latency,
 *   - a load-use interlock: an instruction depending on the load
 *     directly ahead of it stalls in register read until the load's
 *     memory stage completes,
 *   - a blocking memory stage (one outstanding miss).
 *
 * This file is the only place the VISA's stall rules are written down.
 * VisaTimer::step() turns a committed instruction, its cache-miss
 * penalties and its BTFN outcome into a TimingRecord (latency,
 * load-use interlock against the previous instruction, fetch
 * redirect), and consume() evaluates the pipeline recurrence. Its
 * clients hand it only what they alone know — the simulators the
 * cache outcomes they observed, the WCET analyzer the worst-case
 * cache categories and the path's branch directions:
 *   - the in-order loop of cpu/visa_pipeline.hh, which runs both the
 *     simple-fixed processor and the complex processor's simple mode,
 *   - the WCET analyzer's path walk (wcet/analyzer.cc).
 * Simple mode is therefore as timely as the VISA the analyzer models
 * by construction (invariant T2): the same rules on the same inputs.
 */

#ifndef VISA_CPU_VISA_TIMING_HH
#define VISA_CPU_VISA_TIMING_HH

#include <cstdint>

#include "isa/instruction.hh"
#include "sim/types.hh"

namespace visa
{

/** Per-instruction timing inputs for the VISA pipeline model. */
struct TimingRecord
{
    /** Execute-stage occupancy (universal FU latency). */
    Cycles exLatency = 1;
    /** I-cache miss penalty for this fetch (0 on hit). */
    Cycles imissPenalty = 0;
    /** D-cache miss penalty in the memory stage (0 on hit / non-mem). */
    Cycles dmissPenalty = 0;
    /**
     * True when this instruction has a RAW dependence on the
     * *immediately preceding* instruction and that instruction is a
     * load (the only register interlock in the VISA).
     */
    bool loadUseStall = false;
    /**
     * True when fetch must restart after this instruction executes:
     * mispredicted conditional branch, or any indirect jump (targets of
     * indirect branches are not predicted).
     */
    bool redirect = false;
};

/**
 * Incremental evaluator of the VISA pipeline recurrence. Feed committed
 * instructions in order through step() (or pre-built records through
 * consume()); query cycle counts at any point. Copyable, so pipeline
 * states can be forked when composing paths.
 */
class VisaTimer
{
  public:
    /**
     * Reset to an empty pipeline at absolute cycle 0. The next
     * instruction has no predecessor to interlock with.
     */
    void
    reset()
    {
        fetchNext_ = 0;
        enterRrPrev_ = 0;
        enterExPrev_ = 0;
        enterMemPrev_ = 0;
        leaveMemPrev_ = 0;
        lastWb_ = 0;
        count_ = 0;
        prev_ = Instruction{};
    }

    /**
     * Advance the model by one committed instruction, applying the
     * VISA stall rules: execute occupies the universal FU for the
     * instruction's latency; it interlocks on a load directly ahead of
     * it that produces one of its sources; and fetch restarts after it
     * when it is a conditional branch that went against its static
     * BTFN prediction or any indirect jump (targets are not
     * predicted).
     *
     * @param imiss I-cache miss penalty of this fetch (0 on a hit)
     * @param dmiss D-cache miss penalty of its memory stage (0 on a
     *        hit or for non-memory instructions)
     * @param mispredicted a conditional branch resolved against its
     *        static prediction (ignored for other instructions)
     * @return true when fetch was redirected after the instruction
     *
     * Forced inline: the in-order loop calls it once per simulated
     * instruction.
     */
    __attribute__((always_inline)) bool
    step(const Instruction &inst, Cycles imiss, Cycles dmiss,
         bool mispredicted)
    {
        TimingRecord rec;
        rec.exLatency = inst.latency();
        rec.imissPenalty = imiss;
        rec.dmissPenalty = dmiss;
        rec.loadUseStall = prev_.isLoad() && inst.dependsOn(prev_);
        rec.redirect = inst.isIndirectJump() ||
                       (mispredicted && inst.isCondBranch());
        consume(rec);
        prev_ = inst;
        return rec.redirect;
    }

    /**
     * Advance the model by one instruction whose stalls the caller has
     * already decided. Does not update the interlock predecessor.
     */
    void
    consume(const TimingRecord &rec)
    {
        const std::int64_t fi = fetchNext_;
        const std::int64_t if_done =
            fi + 1 + static_cast<std::int64_t>(rec.imissPenalty);
        const std::int64_t enter_id = max2(if_done, enterRrPrev_);
        const std::int64_t enter_rr = max2(enter_id + 1, enterExPrev_);
        std::int64_t enter_ex = max2(enter_rr + 1, enterMemPrev_);
        if (rec.loadUseStall)
            enter_ex = max2(enter_ex, leaveMemPrev_);
        const std::int64_t leave_ex =
            enter_ex + static_cast<std::int64_t>(rec.exLatency);
        const std::int64_t enter_mem = max2(leave_ex, leaveMemPrev_);
        const std::int64_t leave_mem =
            enter_mem + 1 + static_cast<std::int64_t>(rec.dmissPenalty);

        fetchNext_ = rec.redirect ? leave_ex + 1 : enter_id;
        enterRrPrev_ = enter_rr;
        enterExPrev_ = enter_ex;
        enterMemPrev_ = enter_mem;
        leaveMemPrev_ = leave_mem;
        lastWb_ = leave_mem + 1;
        ++count_;
    }

    /**
     * Total cycles from pipeline start to the writeback of the last
     * consumed instruction (the drained-pipeline completion time).
     */
    Cycles totalCycles() const { return static_cast<Cycles>(lastWb_); }

    /** Memory-stage completion cycle of the last consumed instruction. */
    Cycles lastMemDone() const { return static_cast<Cycles>(leaveMemPrev_); }

    /** Number of instructions consumed since reset. */
    std::uint64_t instructions() const { return count_; }

  private:
    static std::int64_t max2(std::int64_t a, std::int64_t b)
    {
        return a > b ? a : b;
    }

    std::int64_t fetchNext_ = 0;
    std::int64_t enterRrPrev_ = 0;
    std::int64_t enterExPrev_ = 0;
    std::int64_t enterMemPrev_ = 0;
    std::int64_t leaveMemPrev_ = 0;
    std::int64_t lastWb_ = 0;
    std::uint64_t count_ = 0;
    /** The previous step()ped instruction (a NOP after reset). */
    Instruction prev_;
};

} // namespace visa

#endif // VISA_CPU_VISA_TIMING_HH
