/**
 * @file
 * Shared pieces of the host-cost benchmark: the per-repetition result,
 * registry snapshots taken around the timed window, and the simulated
 * digest.
 *
 * A run is a sequence of repetitions.  Each repetition builds one
 * simulated system at the classic single queue (set-up), then runs a
 * fixed amount of simulated work (the timed window) and tears the
 * system down.  The simulated work of repetition i depends only on the
 * run seed and i, so its simulated results repeat exactly.
 */

#ifndef DAGGER_PERFBENCH_BENCH_HH
#define DAGGER_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/system.hh"
#include "sim/metrics.hh"
#include "trace.hh"

namespace perfbench {

/** Registry values by full name; histograms expand to name.count etc. */
using Snapshot = std::map<std::string, double>;

/** Read every counter, gauge and histogram of @p reg. */
Snapshot snapshot(const dagger::sim::MetricRegistry &reg);

/** after - before, for every name in @p after. */
Snapshot delta(const Snapshot &before, const Snapshot &after);

/** Sum of the values whose name starts with @p prefix and ends with
 *  @p suffix. */
double sumMatching(const Snapshot &s, std::string_view prefix,
                   std::string_view suffix);

/** Value of @p name, or 0 when absent. */
double valueOf(const Snapshot &s, const std::string &name);

/** Seed of repetition @p rep (splitmix64 of the run seed and @p rep). */
std::uint64_t repSeed(std::uint64_t run_seed, std::uint64_t rep,
                      std::uint64_t stream = 0);

/** Outcome of one repetition. */
struct RepResult
{
    double setupSec = 0;   ///< build + preload + warm-up, host seconds
    double preloadSec = 0; ///< KVS preload + LLC warm-up part of setupSec
    double windowSec = 0;  ///< timed window, host seconds
    /** Completed requests per host second of each slice of the window. */
    std::vector<double> sliceRates;

    std::uint64_t attempted = 0; ///< simulated requests in the window
    std::uint64_t completed = 0; ///< ... that completed
    std::uint64_t failed = 0;    ///< timed out, rejected, degraded, wrong
    std::uint64_t events = 0;    ///< engine events in the window

    /** Broken invariants (wrong payloads, lost accounting); empty = ok. */
    std::vector<std::string> problems;

    Snapshot delta; ///< registry change over the timed window
    Snapshot end;   ///< registry at the end of the timed window

    /** Workload-specific simulated counts over the window. */
    std::map<std::string, double> extra;

    /** Workload results text hashed into the digest (simulated only). */
    std::string simResults;
};

/**
 * Run the timed window: @p measure of simulated time as @p slices equal
 * DaggerSystem::runFor calls, each timed on the host, with @p tracer
 * installed.  @p completed returns the workload's completed requests.
 */
template <typename Completed>
void
runWindow(RepResult &r, dagger::rpc::DaggerSystem &sys,
          dagger::sim::Tick measure, unsigned slices, Tracer *tracer,
          Completed completed)
{
    TraceWindow traced(tracer);
    for (unsigned i = 0; i < slices; ++i) {
        const std::uint64_t done0 = completed();
        const Stopwatch slice;
        {
            Span span(Layer::SimRun);
            sys.runFor(measure / slices);
        }
        const double sec = slice.seconds();
        r.windowSec += sec;
        r.sliceRates.push_back(static_cast<double>(completed() - done0) / sec);
    }
}

/** FNV-1a 64 over the simulated results of a sequence of repetitions. */
class Digest
{
  public:
    /** Hash @p r's simulated results and registry (host time excluded;
     *  process-global sim.payload.* counters as window deltas). */
    void add(const RepResult &r);
    std::string hex() const;

  private:
    void add(std::string_view text);

    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/**
 * Build and run repetition @p rep of a run.  @p tracer, when not null,
 * records spans during the timed window only.
 */
using RepFn = RepResult (*)(std::uint64_t run_seed, std::uint64_t rep,
                            Tracer *tracer);

RepResult runEcho64bUpi(std::uint64_t run_seed, std::uint64_t rep,
                        Tracer *tracer);
RepResult runEcho4kPcie(std::uint64_t run_seed, std::uint64_t rep,
                        Tracer *tracer);
RepResult runKvsMicaZipf(std::uint64_t run_seed, std::uint64_t rep,
                         Tracer *tracer);
RepResult runFlightOpenLoop(std::uint64_t run_seed, std::uint64_t rep,
                            Tracer *tracer);

} // namespace perfbench

#endif // DAGGER_PERFBENCH_BENCH_HH
