#include "svc/flight.hh"

#include <array>
#include <cstring>
#include <string_view>

#include "sim/logging.hh"

namespace dagger::svc {

namespace {

/** The one RPC every compute tier serves. */
constexpr proto::FnId kProcess = 1;

/** TierResp status values. */
constexpr std::uint32_t kOk = 1;
constexpr std::uint32_t kDegraded = 2; ///< served without some dependency

#pragma pack(push, 1)
struct TierReq
{
    std::uint64_t passengerId = 0;
};

struct TierResp
{
    std::uint64_t passengerId = 0;
    std::uint32_t status = 0;
};
#pragma pack(pop)

/** Bytes of a passenger's store key. */
constexpr std::size_t kKeyLen = 16;

/** Writes @p pid to @p out as 16 lowercase, zero-padded hex digits
 *  ("%016" PRIx64). */
void
keyInto(std::uint64_t pid, char *out)
{
    for (std::size_t pos = kKeyLen; pos-- > 0; pid >>= 4)
        out[pos] = "0123456789abcdef"[pid & 0xf];
}

/** A passenger's store key, held inline. */
struct PassengerKey
{
    std::array<char, kKeyLen> hex;

    operator std::string_view() const { return {hex.data(), hex.size()}; }
};

PassengerKey
keyFor(std::uint64_t pid)
{
    PassengerKey key;
    keyInto(pid, key.hex.data());
    return key;
}

/** Pre-seeded Citizens records, ids 1..kCitizens. */
constexpr std::uint64_t kCitizens = 200'000;
constexpr std::string_view kCitizenRecord = "citizen-ok";

/** Fig. 13's calls between tiers {caller, callee}, in connection
 *  order.  Each callee has one caller tier. */
constexpr std::pair<FlightTier, FlightTier> kCalls[] = {
    {FlightTier::Checkin, FlightTier::Flight},
    {FlightTier::Checkin, FlightTier::Baggage},
    {FlightTier::Checkin, FlightTier::Passport},
    {FlightTier::Checkin, FlightTier::Airport},
    {FlightTier::Passport, FlightTier::Citizens},
};

constexpr unsigned
idx(FlightTier t)
{
    return static_cast<unsigned>(t);
}

} // namespace

FlightApp::FlightApp(FlightConfig cfg)
    : _cfg(cfg), _sys(ic::IfaceKind::Upi),
      _rng(cfg.seed), _flightRng(cfg.seed ^ 0x666c69676874ull),
      _staffRng(cfg.seed ^ 0x7374616666ull)
{
    buildTiers();
    installHandlers();
}

void
FlightApp::buildTiers()
{
    nic::SoftConfig soft;
    soft.autoBatch = true; // latency-sensitive tiers: no batch waits

    // Fig. 13's tiers, indexed by FlightTier: name and worker threads
    // in the Optimized model.  The pools are the whole threading-model
    // switch.  Each tier owns its cores: dispatch on core 0, workers on
    // cores 1+.
    const std::pair<const char *, unsigned> tiers[kFlightTiers] = {
        {"checkin", 1},  {"flight", std::max(1u, _cfg.flightWorkers)},
        {"baggage", 0},  {"passport", 1},
        {"airport", 0},  {"citizens", 0},
    };
    const bool optimized = _cfg.model == ThreadingModel::Optimized;
    for (unsigned i = 0; i < kFlightTiers; ++i) {
        unsigned downstreams = 0;
        for (const auto &[caller, callee] : kCalls)
            downstreams += idx(caller) == i;
        const unsigned workers = optimized ? tiers[i].second : 0;
        _tiers[i] = std::make_unique<Tier>(_sys, tiers[i].first, downstreams,
                                           1 + workers, nic::NicConfig{},
                                           soft);
        if (workers > 0)
            _tiers[i]->useWorkerPool(workers);
    }

    // Reliability knobs (off by default; the storm benches set them).
    if (_cfg.checkinLegBudget > 0)
        tier(FlightTier::Checkin)
            .setTimeoutBudget(_cfg.checkinLegBudget, _cfg.checkinLegRetries);
    if (_cfg.flightShedQueue > 0)
        tier(FlightTier::Flight)
            .setShedPolicy(rpc::ShedPolicy{_cfg.flightShedQueue});

    // Stores: single-partition MICA caches behind the two DB tiers.
    _airportStore = std::make_unique<app::MicaKvs>(1, 16u << 20, 1u << 15);
    _citizensStore = std::make_unique<app::MicaKvs>(1, 32u << 20, 1u << 16);
    _citizensStore->partition(0).setMany(
        kCitizens, kKeyLen, kCitizenRecord.size(),
        [](std::uint64_t i, char *key, char *value) {
            keyInto(i + 1, key);
            std::memcpy(value, kCitizenRecord.data(), kCitizenRecord.size());
        });

    _airportBackend = std::make_unique<app::MicaBackend>(*_airportStore);
    _citizensBackend = std::make_unique<app::MicaBackend>(*_citizensStore);
    _airportSrv = std::make_unique<app::KvsServer>(
        tier(FlightTier::Airport).server(), *_airportBackend);
    _citizensSrv = std::make_unique<app::KvsServer>(
        tier(FlightTier::Citizens).server(), *_citizensBackend);

    // Downstream connections (static LB: each tier has one server flow).
    for (const auto &[caller, callee] : kCalls)
        _clientTo[idx(callee)] =
            &tier(caller).connectTo(tier(callee), nic::LbScheme::Static);
    _toAirport =
        std::make_unique<app::KvsClient>(*_clientTo[idx(FlightTier::Airport)]);
    _toCitizens = std::make_unique<app::KvsClient>(
        *_clientTo[idx(FlightTier::Citizens)]);

    // Front-ends: client-only nodes, each with its own core.
    nic::NicConfig fe_cfg;
    fe_cfg.numFlows = 1;
    auto front_end = [&](std::unique_ptr<rpc::CpuSet> &cpus, FlightTier to) {
        rpc::DaggerNode &node = _sys.addNode(fe_cfg, soft);
        cpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
        auto client = std::make_unique<rpc::RpcClient>(
            node, 0, cpus->core(0).thread(0));
        client->setConnection(_sys.connect(node, 0, tier(to).node(), 0,
                                           nic::LbScheme::Static));
        return client;
    };
    _passengerClient = front_end(_passengerCpus, FlightTier::Checkin);
    _staffClient = front_end(_staffCpus, FlightTier::Airport);
    _staffKvs = std::make_unique<app::KvsClient>(*_staffClient);
}

void
FlightApp::installHandlers()
{
    // Flight and Baggage: leaf compute.  Flight's is bimodal, the
    // bottleneck tier (§5.7); its draw comes from _costRng, the classic
    // interleaved stream under run(), its own stream in storm mode.
    for (FlightTier t : {FlightTier::Flight, FlightTier::Baggage})
        tier(t).serve(kProcess, [this, t](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            TierReq r{};
            if (!req.payloadAs(r)) {
                out.respond = false;
                return out;
            }
            if (t == FlightTier::Baggage)
                out.cost = _cfg.baggageCost;
            else if (_costRng->chance(_cfg.flightCheapFraction))
                out.cost = _cfg.flightCheapCost;
            else
                out.cost = _cfg.flightExpensiveCost;
            out.response =
                proto::PayloadBuf::ofPod(TierResp{r.passengerId, kOk});
            return out;
        });

    // Passport: nested call into the Citizens cache.  Under a timeout
    // budget a stranded lookup serves the passport check degraded
    // instead of hanging the tier.
    tier(FlightTier::Passport)
        .serveDeferred(kProcess, [this](const proto::RpcMessage &req,
                                        const Tier::Pending &pending) {
            TierReq r{};
            if (!req.payloadAs(r))
                return Tier::Deferred{};
            const std::uint64_t pid = r.passengerId;
            auto lookup = [this, pending, pid] {
                _toCitizens->getChecked(
                    keyFor(pid), [this, pending, pid](rpc::CallStatus st,
                                                      bool hit,
                                                      std::string_view) {
                        const std::uint32_t status =
                            st != rpc::CallStatus::Ok ? kDegraded
                            : hit                     ? kOk
                                                      : 0u;
                        TierResp resp{pid, status};
                        tier(FlightTier::Passport)
                            .reply(pending, &resp, sizeof(resp));
                    });
            };
            return Tier::Deferred{_cfg.passportCost, std::move(lookup)};
        });

    // Check-in: fan-out to Flight/Baggage/Passport, then register in
    // the Airport cache, then answer the front-end.  Legs are status
    // tracked: under a timeout budget an exhausted leg marks the
    // registration degraded instead of stalling it forever.
    tier(FlightTier::Checkin)
        .serveDeferred(kProcess, [this](const proto::RpcMessage &req,
                                        const Tier::Pending &pending) {
            TierReq r{};
            if (!req.payloadAs(r))
                return Tier::Deferred{};
            struct Fanout
            {
                int remaining;
                bool degraded;
                Tier::Pending pending;
                std::uint64_t pid;
            };
            auto state = std::make_shared<Fanout>(
                Fanout{3, false, pending, r.passengerId});
            // The leg continuation is built inside the fan-out so the
            // fan-out closure captures only what it needs and stays
            // within EventClosure's inline buffer on the worker pool.
            auto fanout = [this, state] {
                auto on_part = [this, state](rpc::CallStatus st,
                                             const proto::RpcMessage &m) {
                    TierResp part{};
                    if (st != rpc::CallStatus::Ok ||
                        (m.payloadAs(part) && part.status == kDegraded))
                        state->degraded = true;
                    if (--state->remaining > 0)
                        return;
                    // All three resolved: register in the Airport DB.
                    _toAirport->set(
                        keyFor(state->pid), "registered", [this, state](bool) {
                            TierResp resp{state->pid, state->degraded
                                                          ? kDegraded
                                                          : kOk};
                            tier(FlightTier::Checkin)
                                .reply(state->pending, &resp, sizeof(resp));
                        });
                };
                const TierReq fwd{state->pid};
                for (FlightTier leg : {FlightTier::Flight, FlightTier::Baggage,
                                       FlightTier::Passport})
                    _clientTo[idx(leg)]->callPodStatus(kProcess, fwd, on_part);
            };
            return Tier::Deferred{_cfg.checkinCost, std::move(fanout)};
        });
}

void
FlightApp::issuePassenger(sim::Tick t0)
{
    const std::uint64_t pid = _nextPassenger++;
    ++_issued;
    TierReq r{pid};
    _passengerClient->callPodStatus(
        kProcess, r,
        [this, t0](rpc::CallStatus st, const proto::RpcMessage &m) {
            if (st != rpc::CallStatus::Ok) {
                ++_stormTimeouts;
                return;
            }
            _e2e.record(_sys.now() - t0);
            ++_completed;
            TierResp resp{};
            if (m.payloadAs(resp) && resp.status == kDegraded)
                ++_completedDegraded;
        });
}

void
FlightApp::issueRegistration()
{
    if (_sys.eq().now() >= _stopAt)
        return;
    const double mean_gap_us = 1000.0 / _krps;
    auto fire = [this] {
        if (_sys.now() >= _stopAt)
            return;
        issuePassenger(_sys.now());
        issueRegistration();
    };
    _sys.eq().schedule(sim::usToTicks(_rng.exponential(mean_gap_us)),
                std::move(fire));
}

void
FlightApp::run(double krps, sim::Tick duration, sim::Tick drain)
{
    dagger_assert(krps > 0, "offered load must be positive");
    // Open-loop Poisson arrivals on the classic calibration: every
    // draw — arrival gaps, flight cost draws, staff traffic —
    // interleaves on the one _rng stream.
    _krps = krps;
    _stopAt = _sys.now() + duration;
    issueRegistration();
    startStaffDriver(_rng);
    _sys.runUntilTick(_stopAt + drain);
}

void
FlightApp::startStaffDriver(sim::Rng &rng)
{
    // Staff front-end: background async reads of Airport records (keys
    // drawn over the citizen id space), one read scheduling the next.
    // @p rng is the classic interleaved stream under run() and the
    // staff-owned stream in storm mode.
    if (_cfg.staffReadRate <= 0 || _sys.now() >= _stopAt)
        return;
    const double mean_gap_us = 1e6 / _cfg.staffReadRate;
    _sys.eq().schedule(
        sim::usToTicks(rng.exponential(mean_gap_us)), [this, &rng] {
            if (_sys.now() >= _stopAt)
                return;
            const std::uint64_t pid = 1 + rng.range(kCitizens);
            _staffKvs->get(keyFor(pid), [this](bool, std::string_view) {
                ++_staffReads;
            });
            startStaffDriver(rng);
        });
}

void
FlightApp::runStorm(const FlightStormSpec &spec)
{
    dagger_assert(!_storm, "runStorm called twice");
    // Storm mode draws from per-consumer streams: flight costs from
    // _flightRng, staff traffic from _staffRng, arrivals from the
    // generator's cohorts.  Registration ids are monotonic.
    _costRng = &_flightRng;
    _stopAt = _sys.now() + spec.duration;
    if (spec.passengerRetry.enabled())
        _passengerClient->setRetryPolicy(spec.passengerRetry);
    _storm = std::make_unique<OpenLoopGen>(
        _sys.eq(), _cfg.seed, spec, 1.0,
        [this](std::uint64_t, bool) { issuePassenger(_sys.now()); });
    startStaffDriver(_staffRng);

    _sys.runUntilTick(_stopAt + spec.drain);
}

Tier &
FlightApp::bottleneck()
{
    Tier *worst = _tiers[0].get();
    for (auto &t : _tiers)
        if (t->service().mean() > worst->service().mean())
            worst = t.get();
    return *worst;
}

} // namespace dagger::svc
