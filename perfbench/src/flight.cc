/**
 * @file
 * flight_openloop: the 8-tier Flight Registration app (Optimized
 * threading) under an open-loop Poisson storm from 2^20 passengers in
 * 64 cohorts, driven through FlightApp::runStorm.  Check-in legs get a
 * 4 ms budget, passengers a retry policy, staff read the Airport cache
 * at 500/s.  A request is one passenger registration.
 */

#include <memory>

#include "bench.hh"
#include "trace.hh"

#include "rpc/client.hh"
#include "svc/flight.hh"

namespace perfbench {

using namespace dagger;

namespace {

// A quarter of the 20 Krps SLO-storm point.  Registrations degrade in
// bursts, when slow 41 ms handlers hold all 16 Flight workers at once;
// the benchmark counts them as failed.  At 20 Krps that is ~0.3% of
// registrations, at 10 Krps still one burst of ~80 in a few million.
// At 5 Krps (~1.8 workers busy on average) the Poisson tail puts a
// burst beyond any run's reach, while every slow draw still exercises
// the check-in leg retry ladder.
constexpr double kOfferedRps = 5'000.0;
constexpr sim::Tick kDuration = sim::msToTicks(1000);
constexpr sim::Tick kDrain = sim::msToTicks(50);
/** ~1000 registrations, ~40 ms of host time: as long as an echo slice. */
constexpr sim::Tick kSlice = sim::msToTicks(200);

/**
 * Cuts a storm, which runStorm runs in one call, into host-timed
 * slices: a probe event every kSlice of simulated time closes a slice.
 * The drain after the storm is left out: its few completions in a
 * short host time would make an outlier rate.  The probe only reads
 * state, so the storm's simulated results are the same with it as
 * without it.
 */
class StormSlicer
{
  public:
    StormSlicer(sim::EventQueue &eq, const svc::FlightApp &app,
                RepResult &r)
        : _eq(eq), _app(app), _r(r)
    {
    }

    /** Arm probes up to @p end; call right before runStorm. */
    void
    start(sim::Tick end)
    {
        _end = end;
        _ns = hostNs();
        _done = _app.completed();
        arm();
    }

    /** Probe events executed, to take out of the engine's count. */
    std::uint64_t probes() const { return _probes; }

  private:
    void
    arm()
    {
        if (_eq.now() + kSlice > _end)
            return;
        _eq.schedule(kSlice, [this] {
            ++_probes;
            close();
            arm();
        });
    }

    void
    close()
    {
        const std::uint64_t ns = hostNs();
        const std::uint64_t done = _app.completed();
        _r.sliceRates.push_back(static_cast<double>(done - _done) * 1e9 /
                                static_cast<double>(ns - _ns));
        _ns = ns;
        _done = done;
    }

    sim::EventQueue &_eq;
    const svc::FlightApp &_app;
    RepResult &_r;
    sim::Tick _end = 0;
    std::uint64_t _ns = 0;
    std::uint64_t _done = 0;
    std::uint64_t _probes = 0;
};

} // namespace

RepResult
runFlightOpenLoop(std::uint64_t run_seed, std::uint64_t rep,
                  Tracer *tracer)
{
    RepResult r;
    Stopwatch setup;
    svc::FlightConfig cfg;
    cfg.model = svc::ThreadingModel::Optimized;
    cfg.staffReadRate = 500;
    // A leg also degrades if every attempt draws the 41 ms slow Flight
    // handler (p = 0.009 each): once in 1.4M registrations with
    // slo_storm's 1 ms budget and two resends.  Five resends in 4 ms
    // keep the first timeout at ~64 us, as there, and make it 0.009^6,
    // once in ~2e12.
    cfg.checkinLegBudget = sim::msToTicks(4);
    cfg.checkinLegRetries = 5;
    cfg.flightShedQueue = 64;
    cfg.seed = repSeed(run_seed, rep);
    auto app = std::make_unique<svc::FlightApp>(cfg);
    rpc::DaggerSystem &sys = app->system();
    r.setupSec = setup.seconds();

    svc::FlightStormSpec storm;
    storm.clients = std::uint64_t{1} << 20;
    storm.cohorts = 64;
    storm.offeredRps = kOfferedRps;
    storm.duration = kDuration;
    storm.drain = kDrain;
    storm.passengerRetry.timeout = sim::msToTicks(1);
    storm.passengerRetry.maxRetries = 3;
    storm.passengerRetry.backoff = 2.0;
    storm.passengerRetry.maxTimeout = sim::msToTicks(8);

    const Snapshot before = snapshot(sys.metrics());
    const std::uint64_t ev0 = sys.eventsExecuted();
    StormSlicer slicer(sys.eq(), *app, r);
    Stopwatch window;
    {
        TraceWindow traced(tracer);
        Span span(Layer::SimRun);
        slicer.start(sys.now() + kDuration);
        app->runStorm(storm);
    }
    r.windowSec = window.seconds();
    r.end = snapshot(sys.metrics());
    r.delta = delta(before, r.end);

    rpc::RpcClient &cli = app->passengerClient();
    const std::uint64_t pending = cli.pendingCalls();
    r.attempted = app->issued();
    r.completed = app->completed();
    r.failed = app->completedDegraded() + app->stormTimeouts() + pending;
    r.events = sys.eventsExecuted() - ev0 - slicer.probes();
    r.extra["svc_degraded"] = static_cast<double>(app->completedDegraded());
    r.extra["svc_timeouts"] = static_cast<double>(app->stormTimeouts());
    r.extra["svc_pending"] = static_cast<double>(pending);

    if (app->issued() != app->completed() + app->stormTimeouts() + pending)
        r.problems.push_back("exactly-once accounting broken: issued != "
                             "completed + timeouts + pending");
    if (cli.orphanResponses() != 0)
        r.problems.push_back("orphan passenger responses");
    if (r.completed == 0)
        r.problems.push_back("no registration completed");

    const sim::Histogram &e2e = app->e2eLatency();
    r.simResults = "issued=" + std::to_string(app->issued()) +
        " completed=" + std::to_string(app->completed()) +
        " degraded=" + std::to_string(app->completedDegraded()) +
        " timeouts=" + std::to_string(app->stormTimeouts()) +
        " pending=" + std::to_string(pending) +
        " retries=" + std::to_string(cli.retriesSent()) +
        " staff_reads=" + std::to_string(app->staffReadsCompleted()) +
        " now=" + std::to_string(sys.now()) +
        " e2e_p50=" + std::to_string(e2e.percentile(50)) +
        " e2e_p99=" + std::to_string(e2e.percentile(99)) +
        " e2e_p999=" + std::to_string(e2e.percentile(99.9));
    return r;
}

} // namespace perfbench
