/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's public API.
 *
 * A span is opened and closed on the benchmark's single thread, so
 * spans nest strictly: a span opened while another is open is its
 * child.  Each layer accumulates its spans' self time (the span minus
 * the part its child spans cover) and a histogram of span durations.  Raw spans are kept in memory, up to a cap, and written
 * out once when the run ends.
 *
 * Tracing is off unless a Tracer is installed; a Span then costs one
 * pointer test.
 */

#ifndef DAGGER_PERFBENCH_TRACE_HH
#define DAGGER_PERFBENCH_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace perfbench {

/** Host monotonic time in nanoseconds. */
inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Host seconds since construction. */
class Stopwatch
{
  public:
    Stopwatch() : _start(hostNs()) {}
    double seconds() const { return static_cast<double>(hostNs() - _start) / 1e9; }

  private:
    std::uint64_t _start;
};

/** The boundaries the benchmark wraps, each named after its module. */
enum class Layer : std::uint8_t {
    SimRun,      ///< sim: DaggerSystem::runFor / FlightApp::runStorm
    RpcIssue,    ///< rpc: RpcClient::callAsync, KvsClient::get/set
    RpcHandler,  ///< rpc: the benchmark-registered echo handler
    AppKvGet,    ///< app: MicaBackend::kvGet (through the decorator)
    AppKvSet,    ///< app: MicaBackend::kvSet (through the decorator)
    AppWorkload, ///< app: KvWorkload::next
    BenchVerify, ///< the benchmark's own response checks
    kCount,
};

inline const char *
layerName(Layer l)
{
    static constexpr std::array<const char *,
                                static_cast<std::size_t>(Layer::kCount)>
        names = {"sim.run",        "rpc.issue",        "rpc.handler",
                 "app.kv_get",     "app.kv_set",       "app.workload_next",
                 "bench.verify"};
    return names[static_cast<std::size_t>(l)];
}

/** Per-layer aggregate of closed spans. */
struct LayerStats
{
    std::uint64_t spans = 0;
    std::uint64_t selfNs = 0;
    dagger::sim::Histogram durNs;
};

class Tracer
{
  public:
    /** One kept span; parent is the index of the kept span that was
     *  open when it started, or -1. */
    struct Record
    {
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::int32_t parent;
        Layer layer;
    };

    explicit Tracer(std::size_t keep = std::size_t{1} << 18)
        : _keep(keep)
    {
        _records.reserve(keep);
    }

    void
    open(Layer layer)
    {
        Open o;
        o.layer = layer;
        o.record = -1;
        if (_records.size() < _keep) {
            o.record = static_cast<std::int32_t>(_records.size());
            _records.push_back(Record{0, 0, currentRecord(), layer});
        }
        o.startNs = hostNs();
        _stack.push_back(o);
    }

    void
    close()
    {
        const std::uint64_t end = hostNs();
        const Open o = _stack.back();
        _stack.pop_back();
        const std::uint64_t dur = end - o.startNs;
        LayerStats &s = _layers[static_cast<std::size_t>(o.layer)];
        ++s.spans;
        s.selfNs += dur > o.childNs ? dur - o.childNs : 0;
        s.durNs.record(dur);
        if (!_stack.empty())
            _stack.back().childNs += dur;
        if (o.record >= 0) {
            _records[static_cast<std::size_t>(o.record)].startNs = o.startNs;
            _records[static_cast<std::size_t>(o.record)].endNs = end;
        }
    }

    const LayerStats &
    layer(Layer l) const
    {
        return _layers[static_cast<std::size_t>(l)];
    }

    /** Spans opened in total (recorded or not). */
    std::uint64_t
    spansOpened() const
    {
        std::uint64_t n = 0;
        for (const LayerStats &s : _layers)
            n += s.spans;
        return n;
    }

    /** Write the kept spans as CSV; returns false if @p path fails. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "id,parent,layer,start_ns,end_ns\n");
        for (std::size_t i = 0; i < _records.size(); ++i) {
            const Record &r = _records[i];
            std::fprintf(f, "%zu,%d,%s,%llu,%llu\n", i, r.parent,
                         layerName(r.layer),
                         static_cast<unsigned long long>(r.startNs),
                         static_cast<unsigned long long>(r.endNs));
        }
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        Layer layer;
        std::int32_t record;
        std::uint64_t startNs;
        std::uint64_t childNs = 0;
    };

    std::int32_t
    currentRecord() const
    {
        return _stack.empty() ? -1 : _stack.back().record;
    }

    std::size_t _keep;
    std::vector<Record> _records;
    std::vector<Open> _stack;
    std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> _layers;
};

/** The installed tracer, or nullptr when tracing is off. */
inline Tracer *&
activeTracer()
{
    static Tracer *t = nullptr;
    return t;
}

/** RAII span: records nothing unless a tracer is installed. */
class Span
{
  public:
    explicit Span(Layer layer) : _t(activeTracer())
    {
        if (_t)
            _t->open(layer);
    }
    ~Span()
    {
        if (_t)
            _t->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *_t;
};

/** Installs @p t (may be null) as the active tracer for a scope. */
class TraceWindow
{
  public:
    explicit TraceWindow(Tracer *t) { activeTracer() = t; }
    ~TraceWindow() { activeTracer() = nullptr; }
    TraceWindow(const TraceWindow &) = delete;
    TraceWindow &operator=(const TraceWindow &) = delete;
};

} // namespace perfbench

#endif // DAGGER_PERFBENCH_TRACE_HH
