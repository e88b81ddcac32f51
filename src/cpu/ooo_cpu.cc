#include "cpu/ooo_cpu.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "sim/stats.hh"

namespace visa
{

OooCpu::OooCpu(const Program &prog, MainMemory &mem, Platform &platform,
               MemController &memctrl, const OooParams &params)
    : Cpu(prog, mem, platform, memctrl,
          CacheParams{"icache", 64 * 1024, 4, 64},
          CacheParams{"dcache", 64 * 1024, 4, 64}),
      params_(params),
      gshare_(params.gshareLog2),
      indirect_(params.indirectLog2),
      pipeline_(platform)
{
    lastIntWriter_.fill(-1);
    lastFpWriter_.fill(-1);

    // Ring capacities: next power of two >= the architected size, so
    // occupancy checks still use the architected limits while slot
    // indexing is a mask.
    const std::size_t rob_cap =
        std::bit_ceil(static_cast<std::size_t>(params_.robSize));
    rob_.resize(rob_cap);
    robMask_ = rob_cap - 1;
    const std::size_t fq_cap =
        std::bit_ceil(static_cast<std::size_t>(params_.fetchQueueSize));
    fetchQueue_.resize(fq_cap);
    fqMask_ = fq_cap - 1;
    // Every in-flight store occupies an LSQ slot, so lsqSize bounds
    // the store ring.
    const std::size_t st_cap =
        std::bit_ceil(static_cast<std::size_t>(params_.lsqSize));
    inflightStores_.resize(st_cap);
    storeMask_ = st_cap - 1;

    readyList_.reserve(static_cast<std::size_t>(params_.iqSize));
    wokenBuf_.reserve(static_cast<std::size_t>(params_.iqSize));
    unissuedStoreSeqs_.reserve(static_cast<std::size_t>(params_.lsqSize));
}

void
OooCpu::resetForTask()
{
    Cpu::resetForTask();
    cycle_ = 0;
    seqCounter_ = 0;
    fqHead_ = fqCount_ = 0;
    robHead_ = robCount_ = 0;
    lastIntWriter_.fill(-1);
    lastFpWriter_.fill(-1);
    lastFccWriter_ = -1;
    fetchReadyCycle_ = 0;
    fetchBlockedSeq_ = -1;
    lastFetchBlock_ = ~0u;
    haltFetched_ = false;
    mispredicts_ = 0;
    iqCount_ = 0;
    lsqCount_ = 0;
    pipeline_.reset();
    simpleDatapath_ = {};
    memctrl_.reset();
    readyList_.clear();
    wokenBuf_.clear();
    issueEvent_ = noCycleLimit;
    unissuedStoreSeqs_.clear();
    storeHead_ = storeCount_ = 0;
    missFillTimes_.clear();
    lastMshrTraced_ = -1;
}

void
OooCpu::flushCachesAndPredictors()
{
    Cpu::flushCachesAndPredictors();
    gshare_.flush();
    indirect_.flush();
}

void
OooCpu::advanceIdle(Cycles n)
{
    if (prof::BlockProfiler *prof = prof::currentProfiler())
        prof->addUnattributed(n);
    cycle_ += n;
    profLastRetire_ += n;    // idle gap is not the next retire's stall
    if (mode_ == Mode::Simple)
        pipeline_.restartAt(cycle_);
    pipeline_.tickTo(cycle_);
    syncActivityCycles();
}

bool
OooCpu::olderStoresIssued(const RobEntry &load) const
{
    // Equivalent to walking the ROB for an unissued older store: the
    // sorted vector holds exactly the unissued non-MMIO stores, so
    // only its front (the minimum) matters.
    return unissuedStoreSeqs_.empty() ||
           unissuedStoreSeqs_.front() >= load.seq;
}

bool
OooCpu::overlapsOlderStore(const RobEntry &load) const
{
    const Addr lo = load.info.effAddr;
    const Addr hi = lo + static_cast<Addr>(load.info.inst.memBytes());
    for (std::size_t i = 0; i < storeCount_; ++i) {
        const StoreRef &s = inflightStores_[(storeHead_ + i) & storeMask_];
        if (s.seq >= load.seq)
            break;
        if (s.lo < hi && lo < s.hi)
            return true;
    }
    return false;
}

int
OooCpu::outstandingLoadMisses()
{
    // Prune fills that have completed; retired miss loads always have
    // completeCycle < cycle_ (retirement waits for completion), so the
    // survivors are exactly the ROB's issued, still-outstanding misses.
    std::erase_if(missFillTimes_,
                  [this](Cycles c) { return c <= cycle_; });
    return static_cast<int>(missFillTimes_.size());
}

int
OooCpu::fetchStage()
{
    if (haltFetched_ || fetchBlockedSeq_ >= 0 || cycle_ < fetchReadyCycle_)
        return 0;

#if VISA_INJECT
    // Hoisted once per stage call: the member could alias the stores
    // below, and a reload per fetched instruction is a real tax on the
    // no-port path.
    FaultPort *const fault_port = faultPort_;
#endif
    int n = 0;
    bool block_end = false;
    std::uint64_t icache_accesses = 0;
    std::uint64_t bpred_accesses = 0;
    const int fetch_width = params_.fetchWidth;
    const int fq_size = params_.fetchQueueSize;
    const std::uint32_t blk_shift = icache_.blockShift();
    while (n < fetch_width && !haltFetched_ && !block_end &&
           static_cast<int>(fqCount_) < fq_size) {
        const Addr pc = core_.state().pc;
        const Addr blk = pc >> blk_shift;
        if (blk != lastFetchBlock_) {
            bool hit = icache_.access(pc, false);
            ++icache_accesses;
            lastFetchBlock_ = blk;
            if (!hit) {
                if (tracer_) [[unlikely]]
                    tracer_->record(EventKind::IcacheMiss, cycle_, pc);
                // Blocking fill; fetch retries once the line arrives.
                fetchReadyCycle_ = cycle_ + missPenalty();
                break;
            }
        } else if (icache_accesses == 0) {
            ++icache_accesses;
        }

        // Functional execution happens here (oracle); MMIO devices are
        // accessed immediately, in program order.
        FetchEntry &fe = fqPushSlot();
        fe.info = core_.step(false);
#if VISA_INJECT
        if (fault_port) [[unlikely]]
            fault_port->onExecute(core_, mem_, fe.info, seqCounter_, cycle_);
#endif
        fe.seq = seqCounter_++;
        fe.fetchCycle = cycle_;
        fe.mispredicted = false;

        const ExecInfo &info = fe.info;
        const Instruction &inst = info.inst;
        if (inst.isCondBranch()) {
            ++bpred_accesses;
            bool pred = gshare_.predict(pc);
            gshare_.update(pc, info.taken);
            if (pred != info.taken) {
                fe.mispredicted = true;
                ++mispredicts_;
                fetchBlockedSeq_ = static_cast<std::int64_t>(fe.seq);
                block_end = true;
            } else if (info.taken) {
                block_end = true;
            }
        } else if (inst.isIndirectJump()) {
            ++bpred_accesses;
            Addr pred_target = indirect_.predict(pc);
            indirect_.update(pc, info.nextPc);
            if (pred_target != info.nextPc) {
                fe.mispredicted = true;
                ++mispredicts_;
                fetchBlockedSeq_ = static_cast<std::int64_t>(fe.seq);
            }
            block_end = true;
        } else if (inst.isDirectJump()) {
            block_end = true;
        }

        if (tracer_) [[unlikely]] {
            tracer_->record(EventKind::Fetch, cycle_, pc, fe.seq);
            if (fe.mispredicted)
                tracer_->record(EventKind::BranchMispredict, cycle_, pc,
                                fe.seq, info.taken);
        }

        if (info.halted)
            haltFetched_ = true;
        ++n;
    }
    activity_.add(Unit::ICache, icache_accesses);
    activity_.add(Unit::Bpred, bpred_accesses);
    activity_.add(Unit::FetchQueue, static_cast<std::uint64_t>(n));
    return n;
}

int
OooCpu::dispatchStage()
{
    int n = 0;
    std::uint64_t mem_dispatched = 0;
    const int dispatch_width = params_.dispatchWidth;
    const Cycles front_latency = static_cast<Cycles>(params_.frontLatency);
    const int iq_size = params_.iqSize;
    const int lsq_size = params_.lsqSize;
    // The ROB head is fixed for the whole stage (retire ran earlier
    // this cycle), so producer lookups in link() below are arithmetic
    // off these two values instead of a full findBySeq(). An empty ROB
    // means every producer has retired; the first entry dispatched
    // this stage then becomes the front, and its seq (the fetch-queue
    // front) is the correct lower bound either way.
    const std::uint64_t head_seq =
        robCount_ > 0 ? rob_[robHead_].seq : fetchQueue_[fqHead_].seq;
    const std::size_t head_idx = robHead_;
    while (n < dispatch_width && fqCount_ > 0) {
        const FetchEntry &fe = fqFront();
        if (fe.fetchCycle + front_latency > cycle_)
            break;
        if (robFull())
            break;
        if (iqOccupancy() >= iq_size)
            break;
        if (fe.info.isMem && !fe.info.isMmio &&
            lsqOccupancy() >= lsq_size)
            break;

        RobEntry &e = robPushSlot();
        e.info = fe.info;
        e.seq = fe.seq;
        e.completeCycle = 0;
        e.readyAt = cycle_ + 1;
        e.waiters.clear();
        e.pending = 0;
        e.issued = false;
        e.mispredicted = fe.mispredicted;

        // Dependence linking. An issued producer folds its completion
        // time into readyAt; an unissued one records this entry as a
        // waiter and will fold/decrement at wakeup. A retired producer
        // constrains nothing (its result committed at least a cycle
        // ago), exactly as the historical sourcesReady() poll treated
        // seqs that fell off the ROB front.
        // One operand-flags load drives renaming, dependence linking,
        // and the regfile activity the issue stage will charge later —
        // the per-query accessors (srcIntRegs() etc.) would reload the
        // same table entry six times per instruction.
        const Instruction &inst = e.info.inst;
        const auto f = detail::operandFlags(inst.op);
        auto link = [&](std::int64_t p) {
            if (p < 0)
                return;
            const auto ps = static_cast<std::uint64_t>(p);
            if (ps < head_seq)
                return;    // producer already retired
            // Producers rename at dispatch, so ps >= head_seq means the
            // producer is still in the ROB: the slot is pure arithmetic
            // off the stage-invariant head (no retire between here and
            // the stage entry).
            RobEntry *prod =
                &rob_[(head_idx + static_cast<std::size_t>(ps - head_seq)) &
                      robMask_];
            if (prod->issued) {
                if (prod->completeCycle > e.readyAt)
                    e.readyAt = prod->completeCycle;
            } else {
                prod->waiters.push_back(e.seq);
                ++e.pending;
            }
        };
        std::uint8_t reg_reads = 0;
        if ((f & detail::opSrcRsInt) && inst.rs > 0) {
            ++reg_reads;
            link(lastIntWriter_[inst.rs]);
        }
        if ((f & detail::opSrcRtInt) && inst.rt > 0) {
            ++reg_reads;
            link(lastIntWriter_[inst.rt]);
        }
        if (f & detail::opSrcRsFp) {
            ++reg_reads;
            link(lastFpWriter_[inst.rs]);
        }
        if (f & detail::opSrcRtFp) {
            ++reg_reads;
            link(lastFpWriter_[inst.rt]);
        }
        if (f & detail::opReadsFcc)
            link(lastFccWriter_);
        e.regReads = reg_reads;

        int di = (f & detail::opDestRdInt) ? inst.rd
                 : (f & detail::opDestRaInt) ? reg::ra
                                             : -1;
        if (di > 0)
            lastIntWriter_[static_cast<std::size_t>(di)] =
                static_cast<std::int64_t>(e.seq);
        const bool df = (f & detail::opDestRdFp) != 0;
        if (df)
            lastFpWriter_[inst.rd] = static_cast<std::int64_t>(e.seq);
        if (f & detail::opWritesFcc)
            lastFccWriter_ = static_cast<std::int64_t>(e.seq);
        e.regWrite = di > 0 || df;

        if (e.info.isMem && !e.info.isLoad && !e.info.isMmio) {
            // Seqs dispatch in ascending order, so push_back keeps the
            // vector sorted.
            unissuedStoreSeqs_.push_back(e.seq);
            StoreRef &s =
                inflightStores_[(storeHead_ + storeCount_) & storeMask_];
            ++storeCount_;
            s.seq = e.seq;
            s.lo = e.info.effAddr;
            s.hi = s.lo + static_cast<Addr>(e.info.inst.memBytes());
        }
        ++iqCount_;
        if (e.info.isMem && !e.info.isMmio) {
            ++lsqCount_;
            ++mem_dispatched;
        }
        if (e.pending == 0) {
            // Ascending-seq push keeps readyList_ sorted here too.
            readyList_.push_back(e.seq);
            if (e.readyAt < issueEvent_)
                issueEvent_ = e.readyAt;
        }
        fqPopFront();
        ++n;
    }
    activity_.add(Unit::RenameMap, static_cast<std::uint64_t>(n));
    activity_.add(Unit::ActiveList, static_cast<std::uint64_t>(n));
    activity_.add(Unit::Lsq, mem_dispatched);
    return n;
}

int
OooCpu::issueStage()
{
    // Walk only the data-ready entries (program order), compacting the
    // survivors in place. readyList_ holds exactly the unissued entries
    // whose pending count is zero; readyAt <= cycle_ is then equivalent
    // to the historical "dispatchCycle < cycle_ && sourcesReady(e)"
    // poll, so issue order, width accounting, and all structural gating
    // are identical to the full unissued-entry walk — this only skips
    // entries that walk would have rejected via sourcesReady().
    int issued = 0;
    int misses_outstanding = outstandingLoadMisses();
    issueEvent_ = noCycleLimit;
    std::size_t keep = 0;
    std::uint64_t lsq_accesses = 0;
    std::uint64_t dcache_accesses = 0;
    std::uint64_t reg_reads = 0;
    std::uint64_t reg_writes = 0;
    const int issue_width = params_.issueWidth;
    const int dcache_ports = params_.dcachePorts;
    const std::size_t n = readyList_.size();
    // Unissued entries cannot retire, so everything on readyList_ (and
    // every waiter, which is younger still) is in the ROB, and the head
    // is fixed for the whole stage: slot lookup is arithmetic off these
    // two values, not a findBySeq() whose front load the compiler must
    // repeat after every ROB store. Unused (garbage) when n == 0.
    const std::uint64_t head_seq = rob_[robHead_].seq;
    const std::size_t head_idx = robHead_;
#if VISA_INJECT
    // Hoisted: this loop is the scheduler's hottest path, and the
    // member pointer would otherwise reload every iteration (the ROB
    // stores below may alias it as far as the compiler knows).
    FaultPort *const fault_port = faultPort_;
#endif
    auto slot = [&](std::uint64_t s) -> RobEntry & {
        return rob_[(head_idx + static_cast<std::size_t>(s - head_seq)) &
                    robMask_];
    };
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = readyList_[i];
        RobEntry &e = slot(seq);
        if (e.readyAt > cycle_) {
            // Data-ready, but the newest producer's result is still in
            // flight (or the entry dispatched only this cycle).
            if (e.readyAt < issueEvent_)
                issueEvent_ = e.readyAt;
            readyList_[keep++] = seq;
            continue;
        }
#if VISA_INJECT
        if (fault_port) [[unlikely]] {
            // A stuck scheduler entry: push the wakeup into the future
            // as if the select logic lost the request.
            const Cycles delay = fault_port->onIssueReady(seq, cycle_);
            if (delay > 0) {
                e.readyAt = cycle_ + delay;
                if (e.readyAt < issueEvent_)
                    issueEvent_ = e.readyAt;
                readyList_[keep++] = seq;
                continue;
            }
        }
#endif
        bool do_issue = false;

        if (issued < issue_width) {
            if (e.info.isMem && !e.info.isMmio) {
                if (e.info.isLoad) {
                    if (olderStoresIssued(e)) {
                        if (overlapsOlderStore(e)) {
                            // Store-to-load forwarding inside the LSQ.
                            e.completeCycle = cycle_ + 2;
                            ++lsq_accesses;
                            do_issue = true;
                        } else if (memPortsUsed_ < dcache_ports) {
                            bool hit = dcache_.probe(e.info.effAddr);
                            if (hit || misses_outstanding <
                                           memctrl_.maxOutstanding()) {
                                ++memPortsUsed_;
                                dcache_.access(e.info.effAddr, false);
                                ++dcache_accesses;
                                ++lsq_accesses;
                                if (hit) {
                                    e.completeCycle = cycle_ + 2;
                                } else {
                                    e.completeCycle =
                                        memctrl_.schedule(cycle_ + 2,
                                                          freq_,
                                                          e.info.effAddr);
                                    ++misses_outstanding;
                                    missFillTimes_.push_back(
                                        e.completeCycle);
                                    if (tracer_) [[unlikely]] {
                                        tracer_->record(
                                            EventKind::DcacheMiss, cycle_,
                                            e.info.effAddr, e.info.pc);
                                        // Occupancy is a counter track:
                                        // emit transitions, not one
                                        // sample per issued miss.
                                        if (misses_outstanding !=
                                            lastMshrTraced_) {
                                            lastMshrTraced_ =
                                                misses_outstanding;
                                            tracer_->record(
                                                EventKind::MshrOccupancy,
                                                cycle_,
                                                static_cast<std::uint64_t>(
                                                    misses_outstanding));
                                        }
                                    }
                                }
                                do_issue = true;
                            }
                        }
                    }
                } else {
                    // Stores compute their address and sit in the LSQ;
                    // the data cache is written at retire. Erasing here
                    // (mid-scan) lets a younger ready load issue in the
                    // same cycle, as the seq-ordered poll did.
                    e.completeCycle = cycle_ + 1;
                    ++lsq_accesses;
                    unissuedStoreSeqs_.erase(
                        std::lower_bound(unissuedStoreSeqs_.begin(),
                                         unissuedStoreSeqs_.end(), seq));
                    do_issue = true;
                }
            } else {
                e.completeCycle = cycle_ + e.info.inst.latency();
                do_issue = true;
            }
        }

        if (!do_issue) {
            // Issuable now but structurally blocked (width, ports,
            // MSHRs, store ordering): retry next cycle.
            if (cycle_ + 1 < issueEvent_)
                issueEvent_ = cycle_ + 1;
            readyList_[keep++] = seq;
            continue;
        }

        e.issued = true;
        --iqCount_;
        ++issued;
        reg_reads += e.regReads;
        reg_writes += e.regWrite ? 1u : 0u;

        if (static_cast<std::int64_t>(seq) == fetchBlockedSeq_) {
            fetchReadyCycle_ = e.completeCycle + 1;
            fetchBlockedSeq_ = -1;
            if (tracer_) [[unlikely]]
                tracer_->record(EventKind::Squash, e.completeCycle,
                                e.info.pc, seq);
        }

        // Wake consumers: fold this result's availability into their
        // readyAt; the ones whose last dependence this was join the
        // ready list. Their readyAt is >= completeCycle > cycle_, so
        // merging after the scan cannot change this cycle's issues.
        for (std::uint64_t w : e.waiters) {
            RobEntry &we = slot(w);
            if (e.completeCycle > we.readyAt)
                we.readyAt = e.completeCycle;
            if (--we.pending == 0)
                wokenBuf_.push_back(w);
        }
        e.waiters.clear();
    }
    readyList_.resize(keep);
    for (std::uint64_t w : wokenBuf_) {
        const RobEntry &we = slot(w);
        if (we.readyAt < issueEvent_)
            issueEvent_ = we.readyAt;
        readyList_.insert(
            std::lower_bound(readyList_.begin(), readyList_.end(), w), w);
    }
    wokenBuf_.clear();
    if (issued > 0) {
        const auto ni = static_cast<std::uint64_t>(issued);
        activity_.add(Unit::IssueQueue, ni);
        activity_.add(Unit::Fu, ni);
        activity_.add(Unit::ResultBus, ni);
        activity_.add(Unit::RegfileRead, reg_reads);
        activity_.add(Unit::RegfileWrite, reg_writes);
        activity_.add(Unit::Lsq, lsq_accesses);
        activity_.add(Unit::DCache, dcache_accesses);
    }
    return issued;
}

int
OooCpu::retireStage()
{
    int n = 0;
    while (n < params_.retireWidth && robCount_ > 0) {
        RobEntry &e = robFront();
        if (!e.issued || e.completeCycle + 1 > cycle_)
            break;
        if (e.info.isMem && !e.info.isLoad && !e.info.isMmio) {
            if (memPortsUsed_ >= params_.dcachePorts)
                break;
            ++memPortsUsed_;
            bool hit = dcache_.access(e.info.effAddr, true);
            activity_.add(Unit::DCache);
            if (!hit) {
                // Write-allocate through the write buffer: consumes
                // memory bandwidth but does not stall retirement.
                memctrl_.schedule(cycle_, freq_, e.info.effAddr);
            }
            // Stores retire in program order, so this store is the
            // ring's front.
            storeHead_ = (storeHead_ + 1) & storeMask_;
            --storeCount_;
        }
        if (e.info.isMem && !e.info.isMmio)
            --lsqCount_;
        if (e.info.halted)
            halted_ = true;
        if (tracer_) [[unlikely]]
            tracer_->record(EventKind::Retire, cycle_, e.info.pc, e.seq);
        if (prof_) [[unlikely]] {
            // Only retired (architectural) instructions are charged;
            // the first retire of a cycle absorbs the stall gap since
            // the previous one, same-cycle retires charge zero.
            prof_->countTimed(e.info.pc, e.info.inst.isControl(),
                              cycle_ - profLastRetire_);
            profLastRetire_ = cycle_;
        }
        robPopFront();
        ++retired_;
        ++n;
    }
    return n;
}

Cycles
OooCpu::nextEventCycle(bool fetching) const
{
    Cycles next = noCycleLimit;
    if (robCount_ > 0) {
        const RobEntry &head = robFront();
        if (head.issued) {
            // Retirement frees as soon as the head's result is a cycle
            // old; width- or port-limited retires retry next cycle.
            Cycles t = head.completeCycle + 1;
            if (t <= cycle_)
                t = cycle_ + 1;
            if (t < next)
                next = t;
        }
        // An unissued head has pending == 0 (its producers, being
        // older, all issued), so it is on readyList_ and issueEvent_
        // covers it.
    }
    if (issueEvent_ < next)
        next = issueEvent_;    // always > cycle_ by construction
    if (fqCount_ > 0) {
        const FetchEntry &fe = fetchQueue_[fqHead_];
        const bool needs_lsq = fe.info.isMem && !fe.info.isMmio;
        if (!robFull() && iqCount_ < params_.iqSize &&
            (!needs_lsq || lsqCount_ < params_.lsqSize)) {
            Cycles t =
                fe.fetchCycle + static_cast<Cycles>(params_.frontLatency);
            if (t <= cycle_)
                t = cycle_ + 1;
            if (t < next)
                next = t;
        }
        // A structurally blocked dispatch waits on a retire or issue,
        // whose events are already accounted; dispatch runs after both
        // in the cycle they fire.
    }
    if (fetching && !haltFetched_ && fetchBlockedSeq_ < 0 &&
        static_cast<int>(fqCount_) < params_.fetchQueueSize) {
        Cycles t = fetchReadyCycle_;
        if (t <= cycle_)
            t = cycle_ + 1;
        if (t < next)
            next = t;
        // A full fetch queue drains at the next dispatch, covered
        // above; fetch runs after dispatch in that same cycle.
    }
    return next;
}

bool
OooCpu::skipIdleCycles(Cycles next, Cycles budget_end)
{
    if (next == noCycleLimit || next <= cycle_ + 1)
        return false;
    Cycles target = next - 1;
    if (target > budget_end)
        target = budget_end;
    if (platform_.watchdogArmed() && !platform_.watchdogMasked()) {
        // Land exactly on the expiry cycle so the stop state is the
        // same as the per-cycle stepper's.
        const Cycles expiry =
            cycle_ + static_cast<Cycles>(platform_.watchdogValue());
        if (target > expiry)
            target = expiry;
    }
    if (target <= cycle_)
        return false;
    // Every cycle in (cycle_, target] is stage-inert (the first
    // possible activity is at `next`), so only the platform needs to
    // observe them — in one batch.
    cycle_ = target;
    syncActivityCycles();
    return pipeline_.tickTo(cycle_).expired;
}

RunResult
OooCpu::runComplex(Cycles budget_end)
{
    while (true) {
        if (halted_ && robCount_ == 0)
            return {StopReason::Halted};
        if (cycle_ >= budget_end)
            return {StopReason::CycleBudget};
        ++cycle_;
        memPortsUsed_ = 0;
        int work = retireStage();
        work += issueStage();
        work += dispatchStage();
        work += fetchStage();
        syncActivityCycles();
        auto t = pipeline_.tickTo(cycle_);
        bool expired = t.expired;
        if (!expired && work == 0)
            expired = skipIdleCycles(nextEventCycle(true), budget_end);
        if (expired) {
            DPRINTF("Watchdog", "expired at cycle %llu (sub-task %d)\n",
                    static_cast<unsigned long long>(cycle_),
                    platform_.currentSubtask());
            return {StopReason::WatchdogExpired};
        }
    }
}

void
OooCpu::switchToSimple()
{
    if (mode_ == Mode::Simple)
        return;
    // Cold path; may be called between run() calls, so consult the
    // installed tracer directly rather than the hoisted member.
    Tracer *tr = currentTracer();
    const Cycles drain_start = cycle_;
    // Drain: stop fetching and let everything in flight retire. The
    // run-time system masks the watchdog before reconfiguring, so
    // expiries during the drain are benign.
    while (robCount_ > 0 || fqCount_ > 0) {
        ++cycle_;
        memPortsUsed_ = 0;
        int work = retireStage();
        work += issueStage();
        work += dispatchStage();
        pipeline_.tickTo(cycle_);
        if (work == 0)
            skipIdleCycles(nextEventCycle(false), noCycleLimit);
    }
    DPRINTF("Mode", "drained at cycle %llu; entering simple mode\n",
            static_cast<unsigned long long>(cycle_));
    if (tr) {
        tr->record(EventKind::ModeSwitchDrain, cycle_,
                   cycle_ - drain_start);
        tr->record(EventKind::SimpleModeEnter, cycle_);
    }
    mode_ = Mode::Simple;
    pipeline_.restartAt(cycle_);
    fetchBlockedSeq_ = -1;
    fetchReadyCycle_ = cycle_;
    lastFetchBlock_ = ~0u;
    syncActivityCycles();
}

DrainResult
OooCpu::drainForPreemption()
{
    DrainResult res;
    if (mode_ == Mode::Simple || (robCount_ == 0 && fqCount_ == 0))
        return res;    // in-order timing stops between instructions
    const Cycles drain_start = cycle_;
    while (robCount_ > 0 || fqCount_ > 0) {
        ++cycle_;
        memPortsUsed_ = 0;
        int work = retireStage();
        work += issueStage();
        work += dispatchStage();
        auto t = pipeline_.tickTo(cycle_);
        bool expired = t.expired;
        if (!expired && work == 0)
            expired = skipIdleCycles(nextEventCycle(false), noCycleLimit);
        if (expired) {
            // The missed-checkpoint exception preempts the preemption:
            // recovery (which drains the rest) must run first.
            res.watchdogExpired = true;
            break;
        }
    }
    DPRINTF("Mode",
            "preemption drain: %llu cycles%s\n",
            static_cast<unsigned long long>(cycle_ - drain_start),
            res.watchdogExpired ? " (watchdog expired)" : "");
    fetchReadyCycle_ = cycle_;
    lastFetchBlock_ = ~0u;
    syncActivityCycles();
    res.cycles = cycle_ - drain_start;
    return res;
}

void
OooCpu::switchToComplex()
{
    if (mode_ == Mode::Complex)
        return;
    if (robCount_ > 0 || fqCount_ > 0)
        panic("switchToComplex with a non-idle pipeline");
    DPRINTF("Mode", "entering complex mode at cycle %llu\n",
            static_cast<unsigned long long>(cycle_));
    if (Tracer *tr = currentTracer())
        tr->record(EventKind::SimpleModeExit, cycle_);
    mode_ = Mode::Complex;
    fetchReadyCycle_ = cycle_;
    lastFetchBlock_ = ~0u;
}

inline void
OooCpu::SimpleModeDatapath::charge(PowerActivity &activity,
                                   const Instruction &inst)
{
    // The fetch unit retrieves a full fetch block and buffers it; the
    // I-cache is read once per four sequential instructions.
    if (fetched++ % 4 == 0)
        activity.add(Unit::ICache);
    activity.add(Unit::FetchQueue);

    // Renaming still locates operands in the physical register file
    // (one map read per source and destination); logical-to-physical
    // mappings never change (§3.2).
    int nmap = 0;
    for (int r : inst.srcIntRegs())
        if (r > 0) {
            ++nmap;
            activity.add(Unit::RegfileRead);
        }
    for (int r : inst.srcFpRegs())
        if (r >= 0) {
            ++nmap;
            activity.add(Unit::RegfileRead);
        }
    if (inst.destIntReg() >= 0 || inst.destFpReg() >= 0)
        ++nmap;
    activity.add(Unit::RenameMap, static_cast<std::uint64_t>(nmap));
}

void
OooCpu::buildStats(StatSet &set) const
{
    Cpu::buildStats(set);
    StatGroup &g = set.group(statsName());
    g.scalar("branch_mispredicts",
             "conditional + indirect mispredictions")
        .set(mispredicts_);
    g.scalar("mode_simple", "1 when in the VISA simple mode")
        .set(mode_ == Mode::Simple ? 1 : 0);
}

RunResult
OooCpu::run(Cycles max_cycles)
{
    const Cycles budget_end = max_cycles == noCycleLimit
        ? noCycleLimit
        : cycle_ + max_cycles;
    if (halted_)
        return {StopReason::Halted};
    tracer_ = currentTracer();
    prof_ = prof::currentProfiler();
    profLastRetire_ = cycle_;
    return mode_ == Mode::Complex
        ? runComplex(budget_end)
        : pipeline_.run(*this, simpleDatapath_, cycle_, budget_end);
}

} // namespace visa
