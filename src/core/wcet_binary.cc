#include "core/wcet_binary.hh"

#include <cmath>
#include <sstream>

#include "mem/memctrl.hh"
#include "sim/logging.hh"

namespace visa
{

ParameterizedWcet
ParameterizedWcet::fit(const WcetAnalyzer &analyzer, const DvsTable &dvs,
                       const DMissProfile *dmiss)
{
    ParameterizedWcet out;
    out.nativeMemNs_ = 100.0;

    // Sample the analyzer across the table.
    std::vector<WcetReport> samples;
    for (const auto &s : dvs.settings())
        samples.push_back(analyzer.analyze(s.freq, dmiss));

    const int subtasks = analyzer.numSubtasks();
    for (int k = 0; k < subtasks; ++k) {
        // Upper-bound the memory-event count with the steepest slope
        // of WCET cycles against the stall penalty, then raise the
        // core component until the line dominates every sample.
        double max_slope = 0.0;
        for (std::size_t i = 1; i < samples.size(); ++i) {
            double dp = static_cast<double>(nsToCycles(
                            out.nativeMemNs_, samples[i].frequency)) -
                        static_cast<double>(nsToCycles(
                            out.nativeMemNs_, samples[i - 1].frequency));
            if (dp <= 0)
                continue;
            double dw =
                static_cast<double>(
                    samples[i].subtaskCycles[static_cast<std::size_t>(
                        k)]) -
                static_cast<double>(
                    samples[i - 1]
                        .subtaskCycles[static_cast<std::size_t>(k)]);
            max_slope = std::max(max_slope, dw / dp);
        }
        Component c;
        c.memEvents =
            static_cast<std::uint64_t>(std::ceil(max_slope));
        std::int64_t core = 0;
        for (const auto &rep : samples) {
            std::int64_t need =
                static_cast<std::int64_t>(
                    rep.subtaskCycles[static_cast<std::size_t>(k)]) -
                static_cast<std::int64_t>(
                    c.memEvents *
                    nsToCycles(out.nativeMemNs_, rep.frequency));
            core = std::max(core, need);
        }
        c.coreCycles = static_cast<Cycles>(std::max<std::int64_t>(core, 0));
        out.components_.push_back(c);
    }
    return out;
}

Cycles
ParameterizedWcet::subtaskCycles(int k, MHz f, double mem_ns) const
{
    if (k < 0 || k >= numSubtasks())
        fatal("parameterized wcet: bad sub-task %d", k);
    const Component &c = components_[static_cast<std::size_t>(k)];
    return c.coreCycles + c.memEvents * nsToCycles(mem_ns, f);
}

Cycles
ParameterizedWcet::taskCycles(MHz f, double mem_ns) const
{
    Cycles sum = 0;
    for (int k = 0; k < numSubtasks(); ++k)
        sum += subtaskCycles(k, f, mem_ns);
    return sum;
}

std::string
ParameterizedWcet::serialize() const
{
    std::ostringstream os;
    os << "VISAWCET 1\n";
    os << "memns " << nativeMemNs_ << '\n';
    os << "subtasks " << components_.size() << '\n';
    for (const auto &c : components_)
        os << c.coreCycles << ' ' << c.memEvents << '\n';
    return os.str();
}

ParameterizedWcet
ParameterizedWcet::deserialize(const std::string &text)
{
    std::istringstream is(text);
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "VISAWCET" || version != 1)
        fatal("parameterized wcet: bad header");
    ParameterizedWcet out;
    std::string key;
    std::size_t n = 0;
    if (!(is >> key >> out.nativeMemNs_) || key != "memns")
        fatal("parameterized wcet: missing memns");
    if (!(is >> key >> n) || key != "subtasks")
        fatal("parameterized wcet: missing subtasks");
    for (std::size_t i = 0; i < n; ++i) {
        Component c;
        if (!(is >> c.coreCycles >> c.memEvents))
            fatal("parameterized wcet: truncated component list");
        out.components_.push_back(c);
    }
    return out;
}

} // namespace visa
