#include "wcet/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "cpu/simple_cpu.hh"
#include "cpu/visa_timing.hh"
#include "mem/memctrl.hh"
#include "sim/logging.hh"

namespace visa
{

namespace
{

/** One element of an execution path through a scope. */
struct Step
{
    enum Kind { Block, LoopSum, CallSum };
    Kind kind = Block;
    int bb = -1;             ///< Block: basic block id
    bool redirect = false;   ///< Block: chosen edge pays the 4-cycle
                             ///< static-misprediction penalty
    int loopId = -1;         ///< LoopSum: summarized inner loop
    Addr callee = 0;         ///< CallSum: callee entry address

    bool operator==(const Step &) const = default;
};

using Path = std::vector<Step>;

/** Enumerated paths through one scope (function body or loop body). */
struct ScopePaths
{
    std::vector<Path> paths;
    /** Per path: steps in common with the path before it (0 first). */
    std::vector<std::size_t> shared;
    std::size_t longest = 0;             ///< steps of the longest path
    std::vector<std::size_t> iterIdx;    ///< loop: backedge-terminated
    bool fallback = false;               ///< path cap hit: drain compose
};

/** A basic block lowered for the timing walk. */
struct LoweredBlock
{
    const Instruction *insts = nullptr;    ///< into Program::text
    std::size_t size = 0;
    std::vector<std::uint8_t> alwaysMiss;  ///< per instruction, 0/1
};

/** Everything the analyzer derives for one function. */
struct FuncAnalysis
{
    std::unique_ptr<Cfg> cfg;
    std::unique_ptr<ICacheAnalysis> cache;
    std::vector<LoweredBlock> blocks;    ///< by block id
    ScopePaths body;
    std::map<int, ScopePaths> loopPaths;
    // Entry function only: per-sub-task regions.
    std::vector<ScopePaths> subtaskPaths;
    std::vector<std::set<Addr>> subtaskFmBlocks;
};

/** Path enumerator over one scope of one function. */
class Enumerator
{
  public:
    Enumerator(const Cfg &cfg, int scope_loop, std::size_t cap,
               Addr region_lo, Addr region_hi)
        : cfg_(cfg), scope_(scope_loop), cap_(cap),
          regionLo_(region_lo), regionHi_(region_hi)
    {
    }

    ScopePaths
    run(int entry_block)
    {
        dfs(entry_block);
        if (overflow_) {
            warn("wcet: path cap (%zu) exceeded; using drain "
                 "composition for this scope", cap_);
            out_.fallback = true;
        }
        const auto &paths = out_.paths;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            std::size_t n = 0;
            if (i > 0) {
                const Path &a = paths[i - 1];
                const Path &b = paths[i];
                while (n < a.size() && n < b.size() && a[n] == b[n])
                    ++n;
            }
            out_.shared.push_back(n);
            out_.longest = std::max(out_.longest, paths[i].size());
        }
        return std::move(out_);
    }

  private:
    bool
    inRegion(const BasicBlock &bb) const
    {
        return bb.startPc >= regionLo_ && bb.startPc < regionHi_;
    }

    /** The child loop of this scope containing @p bid, or -1. */
    int
    childLoopOf(int bid) const
    {
        int l = cfg_.loopOf(bid);
        while (l >= 0 && cfg_.loop(l).parent != scope_)
            l = cfg_.loop(l).parent;
        return l;
    }

    /** Record the current path. */
    void
    emit(bool is_iter)
    {
        if (out_.paths.size() >= cap_) {
            overflow_ = true;
            return;
        }
        if (is_iter)
            out_.iterIdx.push_back(out_.paths.size());
        out_.paths.push_back(cur_);
    }

    void
    visitTarget(int succ)
    {
        if (overflow_)
            return;
        if (scope_ >= 0) {
            const Loop &loop = cfg_.loop(scope_);
            if (succ == loop.header) {
                emit(true);    // back edge: one iteration
                return;
            }
            if (!loop.blocks.count(succ)) {
                emit(false);   // loop exit
                return;
            }
        } else if (!inRegion(cfg_.block(succ))) {
            emit(false);       // leaves the region
            return;
        }
        if (cfg_.loopOf(succ) == scope_) {
            dfs(succ);
            return;
        }
        // Entering a child loop; natural loops are entered at the
        // header.
        int child = childLoopOf(succ);
        if (child < 0)
            panic("wcet: block %d in no child loop of scope %d", succ,
                  scope_);
        const Loop &cl = cfg_.loop(child);
        if (succ != cl.header)
            fatal("wcet: loop at block %d entered other than at its "
                  "header", succ);
        if (scope_ < 0) {
            // Region discipline: a summarized loop must lie entirely
            // inside the current sub-task region.
            for (int m : cl.blocks) {
                if (!inRegion(cfg_.block(m)))
                    fatal("wcet: loop with header 0x%x straddles a "
                          ".subtask boundary",
                          cfg_.block(cl.header).startPc);
            }
        }
        Step s;
        s.kind = Step::LoopSum;
        s.loopId = child;
        cur_.push_back(s);
        // Continue from every exit of the child loop.
        std::set<int> exits;
        for (int m : cl.blocks)
            for (int t : cfg_.block(m).succs)
                if (!cl.blocks.count(t))
                    exits.insert(t);
        if (exits.empty())
            emit(false);    // loop never exits locally
        for (int t : exits)
            visitTarget(t);
        cur_.pop_back();
    }

    void
    dfs(int bid)
    {
        if (overflow_)
            return;
        const BasicBlock &bb = cfg_.block(bid);
        Step s;
        s.kind = Step::Block;
        s.bb = bid;
        const std::size_t block_step = cur_.size();
        cur_.push_back(s);
        if (bb.callTarget) {
            Step c;
            c.kind = Step::CallSum;
            c.callee = bb.callTarget;
            cur_.push_back(c);
        }
        const Instruction &last = cfg_.program().at(bb.endPc - 4);
        if (bb.succs.empty()) {
            emit(false);    // halt or return
        } else if (last.isCondBranch()) {
            // succ[0] = taken, succ[1] = fall-through; the static
            // heuristic predicts backward-taken / forward-not-taken.
            std::size_t pred_idx = last.isBackward(bb.endPc - 4) ? 0 : 1;
            for (std::size_t i = 0; i < bb.succs.size(); ++i) {
                cur_[block_step].redirect = (i != pred_idx);
                visitTarget(bb.succs[i]);
            }
        } else {
            for (int t : bb.succs)
                visitTarget(t);
        }
        cur_.resize(block_step);
    }

    const Cfg &cfg_;
    int scope_;
    std::size_t cap_;
    Addr regionLo_;
    Addr regionHi_;
    Path cur_;    ///< the path from the scope entry to the DFS position
    ScopePaths out_;
    bool overflow_ = false;
};

} // anonymous namespace

/** Analyzer internals. */
struct WcetAnalyzer::Impl
{
    const Program &prog;
    AnalyzerParams params;
    std::map<Addr, FuncAnalysis> funcs;
    std::vector<Addr> bottomUp;    ///< callees before callers
    Addr mainEntry;
    int numSubtasks = 1;

    Impl(const Program &p, AnalyzerParams prm)
        : prog(p), params(std::move(prm)), mainEntry(p.entry)
    {
        discoverFunctions();
        buildCacheAnalyses();
        lowerBlocks();
        enumerateAllScopes();
        partitionSubtasks();
    }

    void
    discoverFunctions()
    {
        // DFS over the call graph with cycle (recursion) detection.
        std::map<Addr, int> state;    // 0 new, 1 active, 2 done
        std::function<void(Addr)> visit = [&](Addr entry) {
            if (state[entry] == 2)
                return;
            if (state[entry] == 1)
                fatal("wcet: recursion detected at 0x%x (unsupported)",
                      entry);
            state[entry] = 1;
            auto &fa = funcs[entry];
            fa.cfg = std::make_unique<Cfg>(prog, entry);
            for (Addr callee : fa.cfg->callTargets())
                visit(callee);
            state[entry] = 2;
            bottomUp.push_back(entry);
        };
        visit(mainEntry);
    }

    void
    buildCacheAnalyses()
    {
        std::map<Addr, std::set<Addr>> footprints;
        for (Addr entry : bottomUp) {
            auto &fa = funcs.at(entry);
            fa.cache = std::make_unique<ICacheAnalysis>(
                *fa.cfg, params.icache, footprints);
            footprints[entry] = fa.cache->footprint();
        }
    }

    void
    lowerBlocks()
    {
        for (Addr entry : bottomUp) {
            auto &fa = funcs.at(entry);
            for (const auto &bb : fa.cfg->blocks()) {
                LoweredBlock lb;
                lb.insts = &prog.at(bb.startPc);
                lb.size = static_cast<std::size_t>(bb.numInsts());
                for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4)
                    lb.alwaysMiss.push_back(fa.cache->at(pc).cat ==
                                            CacheCat::AlwaysMiss);
                fa.blocks.push_back(std::move(lb));
            }
        }
    }

    void
    enumerateAllScopes()
    {
        for (Addr entry : bottomUp) {
            auto &fa = funcs.at(entry);
            const Cfg &cfg = *fa.cfg;
            for (const auto &loop : cfg.loops()) {
                Enumerator e(cfg, loop.id, params.maxPaths, 0, ~0u);
                fa.loopPaths[loop.id] = e.run(loop.header);
            }
            Enumerator e(cfg, -1, params.maxPaths, 0, ~0u);
            fa.body = e.run(cfg.entryBlock());
        }
    }

    void
    partitionSubtasks()
    {
        auto &fa = funcs.at(mainEntry);
        const Cfg &cfg = *fa.cfg;
        std::vector<std::pair<Addr, int>> markers(
            prog.subtaskStarts.begin(), prog.subtaskStarts.end());
        if (markers.empty()) {
            numSubtasks = 1;
            fa.subtaskPaths.push_back(fa.body);
            fa.subtaskFmBlocks.push_back(
                fa.cache->fmBlocks(-1));
            return;
        }
        // Validate: ids 1..s in address order, first marker at entry.
        numSubtasks = static_cast<int>(markers.size());
        for (int i = 0; i < numSubtasks; ++i) {
            if (markers[static_cast<std::size_t>(i)].second != i + 1)
                fatal("wcet: .subtask ids must be 1..%d in address "
                      "order (got %d)", numSubtasks,
                      markers[static_cast<std::size_t>(i)].second);
        }
        if (markers.front().first != prog.entry)
            fatal("wcet: the first .subtask marker must sit at the "
                  "task entry");
        for (int k = 0; k < numSubtasks; ++k) {
            Addr lo = markers[static_cast<std::size_t>(k)].first;
            Addr hi = k + 1 < numSubtasks
                ? markers[static_cast<std::size_t>(k + 1)].first
                : ~0u;
            // Region entry block must start exactly at the marker.
            int entry_block = -1;
            for (const auto &bb : cfg.blocks())
                if (bb.startPc == lo)
                    entry_block = bb.id;
            if (entry_block < 0)
                fatal("wcet: .subtask %d marker 0x%x is not at a basic "
                      "block boundary", k + 1, lo);
            Enumerator e(cfg, -1, params.maxPaths, lo, hi);
            fa.subtaskPaths.push_back(e.run(entry_block));

            // First-miss blocks (task-level persistence) charged to
            // this sub-task: any it can touch.
            std::set<Addr> fm;
            auto collect = [&](const BasicBlock &bb) {
                for (Addr pc = bb.startPc; pc < bb.endPc; pc += 4) {
                    const auto &cat = fa.cache->at(pc);
                    if (cat.cat == CacheCat::FirstMiss &&
                        cat.fmScope == -1) {
                        fm.insert(pc & ~(params.icache.blockBytes - 1));
                    }
                }
            };
            for (const auto &bb : cfg.blocks())
                if (bb.startPc >= lo && bb.startPc < hi)
                    collect(bb);
            fa.subtaskFmBlocks.push_back(std::move(fm));
        }
    }

    // ---- frequency-dependent evaluation ----

    struct EvalCtx
    {
        Cycles penalty = 100;
        std::map<std::pair<Addr, int>, Cycles> loopMemo;
        std::map<Addr, Cycles> funcMemo;
    };

    /**
     * The state of a timing walk along a path: the cycles of the
     * drained pipeline segments and summaries behind it, plus the
     * pipeline since the last summary. A copy forks the walk.
     */
    struct WalkState
    {
        Cycles summarized = 0;
        VisaTimer timer;

        Cycles total() const { return summarized + timer.totalCycles(); }
    };

    Cycles
    penaltyAt(MHz f) const
    {
        return nsToCycles(params.memStallNs, f);
    }

    /**
     * Advance @p ws by one path step on the VISA pipeline model. With
     * @p out, also record the step's WcetCharge: a block with its
     * pipeline-aware cycle delta, a summarized loop or call with its
     * bound. The recorded cycles sum to the walk's total.
     */
    void
    walkStep(const FuncAnalysis &fa, const Step &step, WalkState &ws,
             EvalCtx &ctx, std::vector<WcetCharge> *out = nullptr) const
    {
        if (step.kind != Step::Block) {
            // A summarized scope runs on a drained pipeline.
            ws.summarized += ws.timer.totalCycles();
            ws.timer.reset();
            WcetCharge c;
            if (step.kind == Step::LoopSum) {
                const Loop &loop = fa.cfg->loop(step.loopId);
                c.kind = WcetCharge::Kind::Loop;
                c.startPc = fa.cfg->block(loop.header).startPc;
                c.count = static_cast<std::uint64_t>(loop.bound);
                c.cycles = loopWcet(fa, step.loopId, ctx);
            } else {
                c.kind = WcetCharge::Kind::Call;
                c.startPc = step.callee;
                c.cycles = funcWcet(step.callee, ctx);
            }
            ws.summarized += c.cycles;
            if (out)
                out->push_back(c);
            return;
        }
        const Cycles before = ws.total();
        const LoweredBlock &lb =
            fa.blocks[static_cast<std::size_t>(step.bb)];
        for (std::size_t i = 0; i < lb.size; ++i) {
            // D-misses are padded per sub-task, not per access.
            ws.timer.step(lb.insts[i], lb.alwaysMiss[i] ? ctx.penalty : 0,
                          0, step.redirect);
        }
        if (out) {
            const BasicBlock &bb = fa.cfg->block(step.bb);
            WcetCharge c;
            c.startPc = bb.startPc;
            c.endPc = bb.endPc;
            c.cycles = ws.total() - before;
            out->push_back(c);
        }
    }

    /**
     * Walk every path of @p sp from @p init, in enumeration order, and
     * hand each path's index and end state to @p visit. Each path
     * resumes from the snapshot after the steps it shares with the
     * path before it, so every distinct prefix is walked once.
     */
    template <typename Visit>
    void
    walkPaths(const FuncAnalysis &fa, const ScopePaths &sp,
              const WalkState &init, EvalCtx &ctx, Visit &&visit) const
    {
        std::vector<WalkState> snaps;
        snaps.reserve(sp.longest + 1);
        snaps.push_back(init);
        for (std::size_t i = 0; i < sp.paths.size(); ++i) {
            const Path &path = sp.paths[i];
            snaps.resize(sp.shared[i] + 1);
            for (std::size_t k = sp.shared[i]; k < path.size(); ++k) {
                snaps.push_back(snaps.back());
                walkStep(fa, path[k], snaps.back(), ctx);
            }
            visit(i, snaps.back());
        }
    }

    /**
     * The longest time over a scope's enumerated paths, and the index
     * of the first path that takes it (0 for an empty scope).
     */
    std::pair<Cycles, std::size_t>
    worstPath(const FuncAnalysis &fa, const ScopePaths &sp,
              EvalCtx &ctx) const
    {
        Cycles best = 0;
        std::size_t bi = 0;
        walkPaths(fa, sp, WalkState{}, ctx,
                  [&](std::size_t i, const WalkState &ws) {
                      if (ws.total() > best) {
                          best = ws.total();
                          bi = i;
                      }
                  });
        return {best, bi};
    }

    Cycles
    loopWcet(const FuncAnalysis &fa, int loop_id, EvalCtx &ctx) const
    {
        Addr fentry = fa.cfg->entry();
        auto key = std::make_pair(fentry, loop_id);
        auto it = ctx.loopMemo.find(key);
        if (it != ctx.loopMemo.end())
            return it->second;

        const ScopePaths &sp = fa.loopPaths.at(loop_id);
        const Loop &loop = fa.cfg->loop(loop_id);
        if (sp.paths.empty())
            panic("wcet: loop %d has no paths", loop_id);

        // Each path alone, from a drained pipeline.
        const std::size_t n = sp.paths.size();
        const bool overlap = !sp.fallback && n <= params.maxOverlapPaths &&
                             !sp.iterIdx.empty();
        std::vector<Cycles> alone(n);
        std::vector<WalkState> ends(overlap ? n : 0);
        walkPaths(fa, sp, WalkState{}, ctx,
                  [&](std::size_t i, const WalkState &ws) {
                      alone[i] = ws.total();
                      if (overlap)
                          ends[i] = ws;
                  });
        const Cycles t_first = *std::max_element(alone.begin(), alone.end());
        Cycles t_iter = t_first;    // drain composition fallback
        if (overlap) {
            // Healy-style overlap: the steady-state per-iteration
            // increment, measured by timing every path p after an
            // iteration path q (and, for small loops, after q1·q2) on
            // the pipeline state q left behind.
            t_iter = 0;
            const bool depth2 = n <= 24;
            std::vector<WalkState> pre(depth2 ? n : 0);
            for (std::size_t q1 : sp.iterIdx) {
                walkPaths(fa, sp, ends[q1], ctx,
                          [&](std::size_t i, const WalkState &ws) {
                              t_iter = std::max(t_iter,
                                                ws.total() - alone[q1]);
                              if (depth2)
                                  pre[i] = ws;
                          });
                if (!depth2)
                    continue;
                // Depth-2 prefixes sharpen the steady-state estimate.
                for (std::size_t q2 : sp.iterIdx) {
                    const Cycles pre_t = pre[q2].total();
                    walkPaths(fa, sp, pre[q2], ctx,
                              [&](std::size_t, const WalkState &ws) {
                                  t_iter = std::max(t_iter,
                                                    ws.total() - pre_t);
                              });
                }
            }
        }

        Cycles fm = static_cast<Cycles>(
                        fa.cache->fmBlocks(loop_id).size()) *
                    ctx.penalty;
        Cycles wcet = t_first +
                      (loop.bound - 1) * (t_iter + params.iterSlack) +
                      fm;
        ctx.loopMemo[key] = wcet;
        return wcet;
    }

    Cycles
    funcWcet(Addr entry, EvalCtx &ctx) const
    {
        auto it = ctx.funcMemo.find(entry);
        if (it != ctx.funcMemo.end())
            return it->second;
        const FuncAnalysis &fa = funcs.at(entry);
        Cycles w = worstPath(fa, fa.body, ctx).first;
        w += static_cast<Cycles>(fa.cache->fmBlocks(-1).size()) *
             ctx.penalty;
        ctx.funcMemo[entry] = w;
        return w;
    }

    WcetAttribution
    attribute(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx;
        ctx.penalty = penaltyAt(f);

        const FuncAnalysis &fa = funcs.at(mainEntry);
        WcetAttribution out;
        out.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            const ScopePaths &sp =
                fa.subtaskPaths[static_cast<std::size_t>(k)];
            // The path whose time is the analyze() bound; any tie
            // resolves to the first best path.
            std::vector<WcetCharge> charges;
            if (!sp.paths.empty()) {
                const Path &worst = sp.paths[worstPath(fa, sp, ctx).second];
                WalkState ws;
                for (const Step &step : worst)
                    walkStep(fa, step, ws, ctx, &charges);
            }
            const auto &fm =
                fa.subtaskFmBlocks[static_cast<std::size_t>(k)];
            if (!fm.empty()) {
                WcetCharge c;
                c.kind = WcetCharge::Kind::FirstMiss;
                c.count = fm.size();
                c.cycles = static_cast<Cycles>(fm.size()) * ctx.penalty;
                charges.push_back(c);
            }
            if (dmiss) {
                const auto &mpt = dmiss->missesPerSubtask;
                const std::uint64_t misses =
                    k < static_cast<int>(mpt.size())
                        ? mpt[static_cast<std::size_t>(k)]
                        : 0;
                const auto padded = static_cast<std::uint64_t>(
                    std::ceil(static_cast<double>(misses) *
                              dmiss->safetyFactor));
                if (padded > 0) {
                    WcetCharge c;
                    c.kind = WcetCharge::Kind::DMissPad;
                    c.count = padded;
                    c.cycles = static_cast<Cycles>(padded) * ctx.penalty;
                    charges.push_back(c);
                }
            }
            out.subtaskCharges.push_back(std::move(charges));
        }
        return out;
    }

    WcetReport
    analyze(MHz f, const DMissProfile *dmiss) const
    {
        EvalCtx ctx;
        ctx.penalty = penaltyAt(f);

        const FuncAnalysis &fa = funcs.at(mainEntry);
        WcetReport report;
        report.frequency = f;
        for (int k = 0; k < numSubtasks; ++k) {
            Cycles w =
                worstPath(fa, fa.subtaskPaths[static_cast<std::size_t>(k)],
                          ctx)
                    .first;
            w += static_cast<Cycles>(
                     fa.subtaskFmBlocks[static_cast<std::size_t>(k)]
                         .size()) *
                 ctx.penalty;
            if (dmiss) {
                const auto &mpt = dmiss->missesPerSubtask;
                std::uint64_t misses =
                    k < static_cast<int>(mpt.size())
                        ? mpt[static_cast<std::size_t>(k)]
                        : 0;
                w += static_cast<Cycles>(
                    std::ceil(static_cast<double>(misses) *
                              dmiss->safetyFactor)) *
                    ctx.penalty;
            }
            report.subtaskCycles.push_back(w);
            report.taskCycles += w;
        }
        return report;
    }
};

WcetAnalyzer::WcetAnalyzer(const Program &prog, AnalyzerParams params)
    : impl_(std::make_unique<Impl>(prog, std::move(params)))
{
}

WcetAnalyzer::~WcetAnalyzer() = default;

WcetReport
WcetAnalyzer::analyze(MHz f, const DMissProfile *dmiss) const
{
    return impl_->analyze(f, dmiss);
}

WcetAttribution
WcetAnalyzer::attribute(MHz f, const DMissProfile *dmiss) const
{
    return impl_->attribute(f, dmiss);
}

const char *
wcetChargeKindName(WcetCharge::Kind kind)
{
    switch (kind) {
      case WcetCharge::Kind::Block:
        return "block";
      case WcetCharge::Kind::Loop:
        return "loop";
      case WcetCharge::Kind::Call:
        return "call";
      case WcetCharge::Kind::FirstMiss:
        return "first_miss";
      case WcetCharge::Kind::DMissPad:
        return "dmiss_pad";
    }
    return "?";
}

int
WcetAnalyzer::numSubtasks() const
{
    return impl_->numSubtasks;
}

const Cfg &
WcetAnalyzer::mainCfg() const
{
    return *impl_->funcs.at(impl_->mainEntry).cfg;
}

const ICacheAnalysis &
WcetAnalyzer::mainCache() const
{
    return *impl_->funcs.at(impl_->mainEntry).cache;
}

Cycles
WcetAnalyzer::missPenalty(MHz f) const
{
    return impl_->penaltyAt(f);
}

DMissProfile
profileDataMisses(const Program &prog, double safety_factor)
{
    MainMemory mem;
    Platform platform;
    MemController memctrl;
    mem.loadProgram(prog);
    SimpleCpu cpu(prog, mem, platform, memctrl);
    cpu.resetForTask();

    int subtasks = 1;
    if (!prog.subtaskStarts.empty()) {
        subtasks = 0;
        for (const auto &[addr, id] : prog.subtaskStarts)
            subtasks = std::max(subtasks, id);
    }
    DMissProfile out;
    out.safetyFactor = safety_factor;
    out.missesPerSubtask.assign(static_cast<std::size_t>(subtasks), 0);

    std::uint64_t last = 0;
    int cur = 0;
    platform.onSubtaskBegin = [&](int s) {
        std::uint64_t m = cpu.dcache().misses();
        out.missesPerSubtask[static_cast<std::size_t>(cur)] += m - last;
        last = m;
        cur = s - 1;
    };
    auto res = cpu.run(2'000'000'000ULL);
    if (res.reason != StopReason::Halted)
        fatal("profileDataMisses: program did not halt");
    out.missesPerSubtask[static_cast<std::size_t>(cur)] +=
        cpu.dcache().misses() - last;
    return out;
}

} // namespace visa
