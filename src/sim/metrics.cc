#include "sim/metrics.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace dagger::sim {

MetricRegistry::Entry &
MetricRegistry::add(Kind kind, std::string name)
{
    dagger_assert(!name.empty(), "metric needs a name");
    dagger_assert(!has(name), "duplicate metric name '", name, "'");
    Entry e;
    e.kind = kind;
    e.name = std::move(name);
    _entries.push_back(std::move(e));
    return _entries.back();
}

void
MetricRegistry::addCounter(std::string name, const Counter &c)
{
    add(Kind::Counter, std::move(name)).counter = &c;
}

void
MetricRegistry::addHistogram(std::string name, const Histogram &h)
{
    add(Kind::Histogram, std::move(name)).histogram = &h;
}

void
MetricRegistry::addIntGauge(std::string name,
                            std::function<std::uint64_t()> fn)
{
    dagger_assert(fn, "int gauge needs a callback");
    add(Kind::IntGauge, std::move(name)).intGauge = std::move(fn);
}

void
MetricRegistry::addGauge(std::string name, std::function<double()> fn)
{
    dagger_assert(fn, "gauge needs a callback");
    add(Kind::Gauge, std::move(name)).gauge = std::move(fn);
}

bool
MetricRegistry::has(std::string_view name) const
{
    for (const Entry &e : _entries)
        if (e.name == name)
            return true;
    return false;
}

void
MetricRegistry::forEach(const std::function<void(const Entry &)> &fn) const
{
    for (const Entry &e : _entries)
        fn(e);
}

std::string
MetricRegistry::renderJson() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const Entry &e : _entries) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << jsonEscape(e.name) << "\": ";
        switch (e.kind) {
          case Kind::Counter:
            os << e.counter->value();
            break;
          case Kind::IntGauge:
            os << e.intGauge();
            break;
          case Kind::Gauge:
            os << jsonNumber(e.gauge());
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            os << "{\"count\": " << h.count() << ", \"min\": "
               << h.min() << ", \"max\": " << h.max()
               << ", \"mean\": " << jsonNumber(h.mean())
               << ", \"p50\": " << h.percentile(50)
               << ", \"p90\": " << h.percentile(90)
               << ", \"p99\": " << h.percentile(99) << "}";
            break;
          }
          case Kind::Section:
            break;
        }
    }
    os << "\n}\n";
    return os.str();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace dagger::sim
