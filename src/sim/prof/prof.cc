#include "sim/prof/prof.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "isa/disassembler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace visa::prof
{

namespace detail
{
thread_local BlockProfiler *tlsProfiler = nullptr;
} // namespace detail

BlockProfiler *
installProfiler(BlockProfiler *prof)
{
#if VISA_PROFILING
    BlockProfiler *prev = detail::tlsProfiler;
    detail::tlsProfiler = prof;
    return prev;
#else
    (void)prof;
    return nullptr;
#endif
}

BlockProfiler::BlockProfiler(const Program &prog)
    : prog_(&prog), base_(prog.textBase), nwords_(prog.text.size()),
      instCount_(nwords_, 0), rangeAdd_(nwords_ + 1, 0),
      instCycles_(nwords_, 0), blockCount_(nwords_, 0)
{
    for (const auto &[addr, id] : prog.subtaskStarts)
        overflowPhase_ = std::max(overflowPhase_, id + 1);
}

void
BlockProfiler::setPhase(int subtask)
{
    // The id is a guest store: a corrupted value must not size a host
    // allocation. Ids past the program's declared sub-tasks share the
    // overflow phase; negative ids count as outside any sub-task.
    phaseIdx_ = std::clamp(subtask, 0, overflowPhase_);
    if (static_cast<std::size_t>(phaseIdx_) >= phaseCycles_.size())
        phaseCycles_.resize(static_cast<std::size_t>(phaseIdx_) + 1, 0);
}

void
BlockProfiler::recordCheckpoint(const CheckpointRecord &rec)
{
    checkpoints_.push_back(rec);
    aetTotal_ += rec.aet;
}

void
BlockProfiler::setWcetBound(MHz freq,
                            std::vector<std::uint64_t> subtask_cycles)
{
    for (auto &[f, row] : bounds_) {
        if (f == freq) {
            row = std::move(subtask_cycles);
            return;
        }
    }
    bounds_.emplace_back(freq, std::move(subtask_cycles));
}

void
BlockProfiler::setBoundAttribution(std::vector<SubtaskBound> attribution)
{
    boundAttr_ = std::move(attribution);
}

std::vector<std::uint64_t>
BlockProfiler::instCounts() const
{
    std::vector<std::uint64_t> out(instCount_);
    std::int64_t run = 0;
    for (std::size_t w = 0; w < nwords_; ++w) {
        run += rangeAdd_[w];
        out[w] += static_cast<std::uint64_t>(run);
    }
    return out;
}

std::uint64_t
BlockProfiler::totalInsts() const
{
    std::uint64_t n = instsBatched_;
    for (std::uint64_t c : instCount_)
        n += c;
    return n;
}

std::vector<BlockProfileEntry>
BlockProfiler::blocks() const
{
    const std::vector<std::uint64_t> counts = instCounts();
    std::vector<BlockProfileEntry> out;
    std::size_t w = 0;
    while (w < nwords_) {
        if (blockCount_[w] == 0 && counts[w] == 0) {
            ++w;
            continue;
        }
        BlockProfileEntry e;
        e.pc = base_ + static_cast<Addr>(4 * w);
        e.entries = blockCount_[w];
        // Extent: run until past a terminator or up to the next word
        // that was itself entered as a block.
        std::size_t end = w;
        while (end < nwords_) {
            e.insts += counts[end];
            e.cycles += instCycles_[end];
            const Instruction &in = prog_->text[end];
            ++end;
            if (in.isControl() || in.isHalt())
                break;
            if (end < nwords_ && blockCount_[end] > 0)
                break;
        }
        e.words = static_cast<std::uint32_t>(end - w);
        out.push_back(e);
        w = end;
    }
    std::sort(out.begin(), out.end(),
              [](const BlockProfileEntry &a, const BlockProfileEntry &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  if (a.insts != b.insts)
                      return a.insts > b.insts;
                  return a.pc < b.pc;
              });
    return out;
}

void
BlockProfiler::buildStats(StatSet &set) const
{
    StatGroup &g = set.group("prof");
    g.scalar("insts", "dynamic instructions profiled").set(totalInsts());
    g.scalar("block_entries", "basic-block entries recorded")
        .set(totalEntries_);
    std::uint64_t distinct = 0;
    for (std::uint64_t c : blockCount_)
        distinct += c > 0 ? 1 : 0;
    g.scalar("distinct_blocks", "distinct block entry points seen")
        .set(distinct);
    g.scalar("distinct_edges", "distinct block->block edges seen")
        .set(static_cast<std::uint64_t>(edges_.size()));
    g.scalar("attributed_cycles",
             "cycles attributed to instructions by the timing pipelines")
        .set(attributedCycles_);
    g.scalar("unattributed_cycles",
             "idle / DVS-software cycles outside any instruction")
        .set(unattributedCycles_);
    g.scalar("checkpoints", "checkpoint observations recorded")
        .set(static_cast<std::uint64_t>(checkpoints_.size()));
    g.scalar("aet_cycles_total", "sum of reported sub-task AETs")
        .set(aetTotal_);
}

namespace
{

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
    os << '"';
}

struct SubtaskAgg
{
    std::uint64_t n = 0;
    std::uint64_t aetSum = 0, petSum = 0, wcetSum = 0;
    std::uint64_t aetMin = ~0ULL, aetMax = 0;
    std::uint64_t slackSum = 0, slackMin = ~0ULL;
};

} // anonymous namespace

void
BlockProfiler::writeJson(std::ostream &os) const
{
    os << "{\n\"schema\":" << traceSchemaVersion
       << ",\n\"kind\":\"visa-profile\",\n";
    os << "\"text_base\":" << base_ << ",\"text_words\":" << nwords_
       << ",\n";
    os << "\"total\":{\"insts\":" << totalInsts()
       << ",\"block_entries\":" << totalEntries_
       << ",\"attributed_cycles\":" << attributedCycles_
       << ",\"unattributed_cycles\":" << unattributedCycles_
       << ",\"aet_cycles_total\":" << aetTotal_
       << ",\"checkpoints\":" << checkpoints_.size() << "},\n";

    // Per-phase cycle totals (index 0 = outside any sub-task).
    os << "\"phases\":[";
    for (std::size_t i = 0; i < phaseCycles_.size(); ++i) {
        os << (i ? "," : "") << "{\"subtask\":" << i << ",\"cycles\":"
           << phaseCycles_[i] << "}";
    }
    os << "],\n";

    // Block table, hottest first, with disassembly.
    os << "\"blocks\":[\n";
    bool first = true;
    for (const BlockProfileEntry &b : blocks()) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"pc\":" << b.pc << ",\"words\":" << b.words
           << ",\"entries\":" << b.entries << ",\"insts\":" << b.insts
           << ",\"cycles\":" << b.cycles << ",\"disasm\":[";
        for (std::uint32_t i = 0; i < b.words; ++i) {
            const Addr pc = b.pc + 4 * i;
            os << (i ? "," : "");
            jsonEscape(os, disassemble(prog_->at(pc), pc));
        }
        os << "]}";
    }
    os << "\n],\n";

    // Edge list (from == -1 encodes the profiling-start pseudo block).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edges(
        edges_.begin(), edges_.end());
    std::sort(edges.begin(), edges.end());
    os << "\"edges\":[\n";
    first = true;
    for (const auto &[key, count] : edges) {
        const std::uint32_t from = static_cast<std::uint32_t>(key >> 32);
        const std::uint32_t to = static_cast<std::uint32_t>(key);
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"from\":";
        if (from == entryBlockId)
            os << -1;
        else
            os << base_ + 4 * static_cast<Addr>(from);
        os << ",\"to\":" << base_ + 4 * static_cast<Addr>(to)
           << ",\"count\":" << count << "}";
    }
    os << "\n],\n";

    // Checkpoint observations.
    os << "\"checkpoints\":[\n";
    first = true;
    for (const CheckpointRecord &r : checkpoints_) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"subtask\":" << r.subtask << ",\"aet\":" << r.aet
           << ",\"pet\":" << r.pet << ",\"wcet\":" << r.wcet
           << ",\"freq\":" << r.freq << ",\"stamp\":" << r.stamp << "}";
    }
    os << "\n],\n";

    // Slack aggregates per sub-task plus headroom histograms per
    // frequency (10-percent buckets of (WCET - AET) / WCET).
    std::map<int, SubtaskAgg> agg;
    std::map<MHz, std::vector<std::uint64_t>> headroom;
    std::map<MHz, std::uint64_t> overruns;
    for (const CheckpointRecord &r : checkpoints_) {
        SubtaskAgg &a = agg[r.subtask];
        ++a.n;
        a.aetSum += r.aet;
        a.petSum += r.pet;
        a.wcetSum += r.wcet;
        a.aetMin = std::min(a.aetMin, r.aet);
        a.aetMax = std::max(a.aetMax, r.aet);
        const std::uint64_t slack = r.pet > r.aet ? r.pet - r.aet : 0;
        a.slackSum += slack;
        a.slackMin = std::min(a.slackMin, slack);
        if (r.wcet > 0) {
            auto &h = headroom[r.freq];
            if (h.empty())
                h.assign(10, 0);
            if (r.aet > r.wcet) {
                ++overruns[r.freq];
            } else {
                const double pct =
                    static_cast<double>(r.wcet - r.aet) /
                    static_cast<double>(r.wcet);
                std::size_t bucket =
                    static_cast<std::size_t>(pct * 10.0);
                if (bucket > 9)
                    bucket = 9;
                ++h[bucket];
            }
        }
    }
    os << "\"slack\":{\"subtasks\":[\n";
    first = true;
    for (const auto &[sub, a] : agg) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"subtask\":" << sub << ",\"n\":" << a.n
           << ",\"aet_total\":" << a.aetSum
           << ",\"aet_min\":" << (a.n ? a.aetMin : 0)
           << ",\"aet_max\":" << a.aetMax
           << ",\"pet_total\":" << a.petSum
           << ",\"wcet_total\":" << a.wcetSum
           << ",\"slack_total\":" << a.slackSum
           << ",\"slack_min\":" << (a.n ? a.slackMin : 0) << "}";
    }
    os << "\n],\"headroom_hist\":[\n";
    first = true;
    for (const auto &[f, h] : headroom) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"freq\":" << f << ",\"overruns\":" << overruns[f]
           << ",\"buckets_pct10\":[";
        for (std::size_t i = 0; i < h.size(); ++i)
            os << (i ? "," : "") << h[i];
        os << "]}";
    }
    os << "\n]},\n";

    // Bound side: per-frequency sub-task WCET rows and, when provided,
    // the analyzer's worst-case path charge breakdown.
    os << "\"wcet_bounds\":[\n";
    first = true;
    for (const auto &[f, row] : bounds_) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"freq\":" << f << ",\"subtask_cycles\":[";
        for (std::size_t i = 0; i < row.size(); ++i)
            os << (i ? "," : "") << row[i];
        os << "]}";
    }
    os << "\n],\n\"wcet_attribution\":[\n";
    first = true;
    for (const SubtaskBound &sb : boundAttr_) {
        os << (first ? "" : ",\n");
        first = false;
        os << "{\"subtask\":" << sb.subtask << ",\"cycles\":" << sb.cycles
           << ",\"charges\":[";
        for (std::size_t i = 0; i < sb.charges.size(); ++i) {
            const BoundCharge &c = sb.charges[i];
            os << (i ? "," : "") << "{\"pc\":" << c.startPc
               << ",\"end_pc\":" << c.endPc << ",\"kind\":";
            jsonEscape(os, c.kind);
            os << ",\"count\":" << c.count << ",\"cycles\":" << c.cycles
               << "}";
        }
        os << "]}";
    }
    os << "\n]\n}\n";
}

void
BlockProfiler::writeChromeCounters(std::ostream &os) const
{
    os << "{\"schema\":" << traceSchemaVersion << ",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const CheckpointRecord &r : checkpoints_) {
        const std::uint64_t slack = r.pet > r.aet ? r.pet - r.aet : 0;
        sep();
        os << "{\"name\":\"subtask_slack\",\"ph\":\"C\",\"ts\":" << r.stamp
           << ",\"pid\":0,\"args\":{\"s" << r.subtask << "\":" << slack
           << "}}";
        sep();
        os << "{\"name\":\"subtask_aet\",\"ph\":\"C\",\"ts\":" << r.stamp
           << ",\"pid\":0,\"args\":{\"s" << r.subtask << "\":" << r.aet
           << "}}";
        if (r.wcet > 0) {
            const double pct =
                r.aet >= r.wcet
                    ? 0.0
                    : 100.0 * static_cast<double>(r.wcet - r.aet) /
                          static_cast<double>(r.wcet);
            sep();
            os << "{\"name\":\"checkpoint_headroom_pct\",\"ph\":\"C\","
               << "\"ts\":" << r.stamp << ",\"pid\":0,\"args\":{\"s"
               << r.subtask << "\":" << static_cast<int>(pct) << "}}";
        }
    }
    os << "\n]}\n";
}

} // namespace visa::prof
