/**
 * @file
 * The 8-tier Flight Registration service of §5.7 (Fig. 13).
 *
 * Topology: the Passenger front-end sends registration requests to
 * Check-in, which fans out to Flight, Baggage, and Passport (Passport
 * nests into the Citizens MICA cache), then registers the passenger
 * in the Airport MICA cache and responds.  The Staff front-end
 * asynchronously reads Airport records.
 *
 * The Flight service is "resource-demanding and long-running": its
 * handler cost is bimodal (mostly cheap lookups, a fraction of slow
 * fare-computation requests), which is what throttles the Simple
 * threading model to a few Krps while leaving the low-load median
 * latency in the tens of microseconds — the Table 4 contrast.
 *
 * Two drivers: run() is the open-loop Poisson calibration behind
 * Table 4 and Fig. 15, with every draw on one interleaved stream;
 * runStorm() drives million-client open-loop load (app::OpenLoopGen)
 * against per-tier timeout budgets, shedding, and degraded-mode
 * fan-out.
 */

#ifndef DAGGER_SVC_FLIGHT_HH
#define DAGGER_SVC_FLIGHT_HH

#include <memory>
#include <unordered_map>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/mica.hh"
#include "app/open_loop.hh"
#include "rpc/client.hh"
#include "rpc/system.hh"
#include "sim/rng.hh"
#include "svc/tier.hh"

namespace dagger::svc {

/** Tunables of the Flight Registration deployment. */
struct FlightConfig
{
    ThreadingModel model = ThreadingModel::Simple;

    /** Worker threads for the Flight service in the Optimized model. */
    unsigned flightWorkers = 16;

    /**
     * Fraction of Flight requests that are cheap lookups.  The slow
     * remainder ("resource-demanding and long-running", §5.7) stays
     * below 1% so the paper's us-scale p99 (23.8 / 33.6 us) coexists
     * with the Krps-scale Simple-model capacity: the Simple cap
     * 1 / (0.009 * 41 ms) ~= 2.7 Krps and the Optimized cap
     * 16 workers / (0.009 * 41 ms) ~= 43 Krps both match Table 4.
     */
    double flightCheapFraction = 0.991;

    sim::Tick flightCheapCost = sim::usToTicks(4);
    sim::Tick flightExpensiveCost = sim::msToTicks(41);
    sim::Tick baggageCost = sim::usToTicks(5);
    sim::Tick checkinCost = sim::usToTicks(3);
    sim::Tick passportCost = sim::usToTicks(3);

    /** Staff front-end background read rate (requests/s); 0 = off. */
    double staffReadRate = 500.0;

    /**
     * Check-in's end-to-end budget for each fan-out leg (0 = no
     * budget: legs wait forever, as in run()'s paper calibration).
     * With a budget, a leg that exhausts its retry ladder is served
     * *degraded*: the registration completes without that dependency
     * and the response is marked so the front-end can count it.
     */
    sim::Tick checkinLegBudget = 0;
    unsigned checkinLegRetries = 2; ///< resends within the budget

    /** Request-backlog bound for the Flight tier (0 = no shed). */
    std::size_t flightShedQueue = 0;

    std::uint64_t seed = 0x666c69676874ull;
};

/** Open-loop storm parameters (see app::OpenLoopGen). */
struct FlightStormSpec
{
    std::uint64_t clients = 1'048'576; ///< simulated passenger population
    unsigned cohorts = 64;             ///< actors carrying it
    double offeredRps = 10'000.0;      ///< aggregate peak arrival rate
    sim::Tick duration = sim::msToTicks(200);
    sim::Tick drain = sim::msToTicks(50);
    app::DiurnalCurve diurnal;         ///< flat by default
    /** Passenger-side retry/timeout policy (off by default). */
    rpc::RetryPolicy passengerRetry;
};

/** The deployed application. */
class FlightApp
{
  public:
    explicit FlightApp(FlightConfig cfg = {});

    FlightApp(const FlightApp &) = delete;
    FlightApp &operator=(const FlightApp &) = delete;

    /**
     * Offer an open-loop Poisson load of @p krps for @p duration, then
     * let in-flight requests drain.  May be called once per app.
     */
    void run(double krps, sim::Tick duration,
             sim::Tick drain = sim::msToTicks(20));

    /**
     * Drive a million-client open-loop storm (cohort actors, diurnal
     * curve, per-call status tracking).  May be called once per app,
     * instead of run().
     */
    void runStorm(const FlightStormSpec &spec);

    /** End-to-end registration latency (ticks). */
    sim::Histogram &e2eLatency() { return _e2e; }

    std::uint64_t issued() const { return _issued; }
    std::uint64_t completed() const { return _completed; }
    /** Completions served degraded (some fan-out leg timed out). */
    std::uint64_t completedDegraded() const { return _completedDegraded; }
    /** Storm calls whose passenger-side retry budget ran out. */
    std::uint64_t stormTimeouts() const { return _stormTimeouts; }

    /** Fraction of issued registrations that never completed. */
    double
    dropRate() const
    {
        return _issued == 0
            ? 0.0
            : 1.0 - static_cast<double>(_completed) /
                  static_cast<double>(_issued);
    }

    /**
     * Per-tier service-time tracing (§5.7 bottleneck analysis).
     * Each tier records into its own tracer; this merges them into
     * one aggregate view (rebuild on each call).
     */
    Tracer &tracer();

    rpc::DaggerSystem &system() { return _sys; }
    Tier &checkinTier() { return *_checkin; }
    Tier &flightTier() { return *_flight; }
    rpc::RpcClient &passengerClient() { return *_passengerClient; }
    std::uint64_t staffReadsCompleted() const { return _staffReads; }
    app::MicaKvs &airportStore() { return *_airportStore; }

  private:
    void buildTiers();
    void installHandlers();
    void issueRegistration();
    void issuePassenger(sim::Tick t0);
    void startStaffDriver(sim::Rng &rng);

    FlightConfig _cfg;
    rpc::DaggerSystem _sys;
    /** Classic stream: run() interleaves arrival gaps, flight cost
     *  draws, and staff traffic on it. */
    sim::Rng _rng;
    /** Storm-mode flight-tier stream: the bimodal handler draw.  Kept
     *  apart from _rng so the storm calibration (slo_storm, perfbench)
     *  stays where it was measured. */
    sim::Rng _flightRng;
    /** Storm-mode staff stream: read gaps and key picks. */
    sim::Rng _staffRng;
    /** Which stream the flight handler draws costs from; runStorm()
     *  repoints it at _flightRng before traffic. */
    sim::Rng *_costRng = &_rng;
    Tracer _tracer; ///< merged view, rebuilt by tracer()

    // Tiers (Fig. 13); each owns its cores.
    std::unique_ptr<Tier> _checkin;
    std::unique_ptr<Tier> _flight;
    std::unique_ptr<Tier> _baggage;
    std::unique_ptr<Tier> _passport;
    std::unique_ptr<Tier> _airport;  ///< MICA-backed Airport cache
    std::unique_ptr<Tier> _citizens; ///< MICA-backed Citizens cache

    // Front-ends (client-only nodes with their own single cores).
    rpc::DaggerNode *_passengerNode = nullptr;
    std::unique_ptr<rpc::CpuSet> _passengerCpus;
    std::unique_ptr<rpc::RpcClient> _passengerClient;
    rpc::DaggerNode *_staffNode = nullptr;
    std::unique_ptr<rpc::CpuSet> _staffCpus;
    std::unique_ptr<rpc::RpcClient> _staffClient;
    std::unique_ptr<app::KvsClient> _staffKvs;

    // Downstream clients.
    rpc::RpcClient *_toFlight = nullptr;
    rpc::RpcClient *_toBaggage = nullptr;
    rpc::RpcClient *_toPassport = nullptr;
    std::unique_ptr<app::KvsClient> _toAirport;
    std::unique_ptr<app::KvsClient> _toCitizens;

    // Stores.
    std::unique_ptr<app::MicaKvs> _airportStore;
    std::unique_ptr<app::MicaKvs> _citizensStore;
    std::unique_ptr<app::MicaBackend> _airportBackend;
    std::unique_ptr<app::MicaBackend> _citizensBackend;
    std::unique_ptr<app::KvsServer> _airportSrv;
    std::unique_ptr<app::KvsServer> _citizensSrv;

    // Worker pools (Optimized model: check-in / passport nested work).
    std::vector<std::unique_ptr<rpc::WorkerPool>> _pools;

    // Storm driver (runStorm only).
    std::unique_ptr<app::OpenLoopGen> _storm;

    sim::Histogram _e2e{"flight_e2e"};
    std::uint64_t _issued = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _completedDegraded = 0;
    std::uint64_t _stormTimeouts = 0;
    std::uint64_t _staffReads = 0;
    std::uint64_t _nextPassenger = 1;
    double _krps = 0;
    sim::Tick _stopAt = 0;
};

} // namespace dagger::svc

#endif // DAGGER_SVC_FLIGHT_HH
