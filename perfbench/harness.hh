/**
 * @file
 * Shared pieces of the campaign benchmark: host clocks, the in-memory
 * span log of a traced run, the result digest, the seeded generator
 * and the Campaign interface each workload implements.
 *
 * Layers are timed from outside: a span wraps one call from the
 * benchmark into a module's public function. Nothing inside src/ is
 * instrumented, so a span's self time is the host time of the call
 * minus the spans the benchmark opened inside it.
 */

#ifndef VISA_PERFBENCH_HARNESS_HH
#define VISA_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** printf-style formatting into a std::string. */
std::string strf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Monotonic wall clock, ns. */
inline std::int64_t
wallNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

/** CPU time of the whole process (every thread), ns. */
inline std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

/** One timed call into a layer. */
struct Span
{
    const char *name = "";
    int parent = -1;           ///< index of the enclosing span, -1 = root
    std::int64_t unit = -1;    ///< unit id shared by a unit's spans; -1 = setup
    std::int64_t wall0 = 0, wall1 = 0;
    std::int64_t cpu0 = 0, cpu1 = 0;
    /** Work the call did, in the span's own count unit (e.g. retired
     *  instructions), or 0. */
    std::uint64_t count = 0;
};

/**
 * Spans of a traced run, kept in memory and written out when the run
 * ends. Disabled (the untraced run, or an untraced cycle of the traced
 * run), open() records nothing and costs one branch.
 */
class SpanLog
{
  public:
    bool enabled = false;
    /** Unit id stamped on spans opened from now on (-1 = setup). */
    std::int64_t unit = -1;

    int
    open(const char *name)
    {
        if (!enabled)
            return -1;
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.unit = unit;
        s.cpu0 = cpuNs();
        s.wall0 = wallNs();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id, std::uint64_t count)
    {
        if (id < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.wall1 = wallNs();
        s.cpu1 = cpuNs();
        s.count = count;
        stack_.pop_back();
    }

    /** Rename open span @p id once its outcome is known. */
    void
    rename(int id, const char *name)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].name = name;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: its wall time minus the wall time of its children. */
    std::vector<std::int64_t> selfWallNs() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens at construction, closes with the count set so far. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_, count); }
    void rename(const char *name) { log_.rename(id_, name); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t count = 0;

  private:
    SpanLog &log_;
    int id_;
};

/** Totals of the spans that share a name. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::int64_t selfNs = 0;
    std::int64_t wallNs = 0;
    std::int64_t cpuNs = 0;
    std::uint64_t count = 0;

    double meanMs() const { return calls ? selfNs / 1e6 / calls : 0.0; }
    double nsPerCount() const
    {
        return count ? static_cast<double>(selfNs) / count : 0.0;
    }
};

/** Self-time totals per span name, over the set-up spans (unit -1)
 *  when @p setup, else over the spans of the timed units. */
std::map<std::string, LayerTotals> layerTotals(const SpanLog &log,
                                               bool setup);

/** The totals of span @p name in @p layers (zero if it never ran). */
inline LayerTotals
layer(const std::map<std::string, LayerTotals> &layers,
      const std::string &name)
{
    auto it = layers.find(name);
    return it == layers.end() ? LayerTotals{} : it->second;
}

/** @p num / @p den, or 0 when nothing was counted. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a over the simulated results a workload produces. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v);
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** splitmix64: the benchmark's only source of seeded choices. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** A named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Outcome of one unit of work. */
struct UnitResult
{
    bool ok = true;
    /** Simulated instructions retired by the unit (for sim_mips). */
    std::uint64_t simInsts = 0;
    /** Why the unit failed; empty when ok. */
    std::string error;
};

/**
 * One closed-loop batch campaign. main() calls setup() several
 * times (each call starts from scratch), then runUnit(0), runUnit(1),
 * ... until the time budget is spent, always finishing a whole cycle,
 * then verify(). Unit i is fully determined by the seed and i.
 */
class Campaign
{
  public:
    virtual ~Campaign() = default;

    /** Build everything the first unit needs. */
    virtual void setup() = 0;
    /** Units in one rotation through the workload's unit kinds. */
    virtual std::size_t cycleUnits() const = 0;
    /** Units every run completes, whatever the time budget: the
     *  prefix the digest and the simulated per-layer ratios cover. */
    virtual std::size_t prefixUnits() const = 0;
    virtual UnitResult runUnit(std::size_t i) = 0;
    /** Repetition / thread-count checks after the timed region;
     *  returns a description of the first mismatch, or "". */
    virtual std::string verify() = 0;
    /** Digest of the simulated results of the prefix units. */
    virtual std::uint64_t digest() const = 0;
    /** Deterministic result lines printed with every run. */
    virtual std::vector<std::string> report() const = 0;
    /** Per-layer metrics of a traced run (from spans and counters). */
    virtual void perLayer(Metrics &out) const = 0;

    SpanLog spans;
};

std::unique_ptr<Campaign> makeFig2Campaign(std::uint64_t seed);
std::unique_ptr<Campaign> makeChipSchedCampaign(std::uint64_t seed,
                                                unsigned pedf_threads);
std::unique_ptr<Campaign> makeFuzzVerifyCampaign(std::uint64_t seed);

} // namespace perfbench

#endif // VISA_PERFBENCH_HARNESS_HH
