#include "perfbench/harness.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace perfbench
{

std::string
strf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[1024];
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return std::string(buf, n < 0 ? 0
                            : std::min<std::size_t>(static_cast<std::size_t>(n),
                                                    sizeof(buf) - 1));
}

std::vector<std::int64_t>
SpanLog::selfWallNs() const
{
    // Children are recorded after their parent and nest strictly inside
    // it (one thread, stack discipline), so subtracting each child's
    // whole duration from its parent yields exactly the uncovered part.
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].wall1 - spans_[i].wall0;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.wall1 - s.wall0;
    return self;
}

bool
SpanLog::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<std::int64_t> self = selfWallNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"unit\":%lld,"
                     "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld,"
                     "\"cpu_ns\":%lld,\"count\":%llu}\n",
                     i, s.name, s.parent, static_cast<long long>(s.unit),
                     static_cast<long long>(s.wall0),
                     static_cast<long long>(s.wall1),
                     static_cast<long long>(self[i]),
                     static_cast<long long>(s.cpu1 - s.cpu0),
                     static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
}

std::map<std::string, LayerTotals>
layerTotals(const SpanLog &log, bool setup)
{
    std::map<std::string, LayerTotals> out;
    const std::vector<std::int64_t> self = log.selfWallNs();
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if ((s.unit < 0) != setup)
            continue;
        LayerTotals &t = out[s.name];
        ++t.calls;
        t.selfNs += self[i];
        t.wallNs += s.wall1 - s.wall0;
        t.cpuNs += s.cpu1 - s.cpu0;
        t.count += s.count;
    }
    return out;
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

} // namespace perfbench
