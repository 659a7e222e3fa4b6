#include "svc/socialnet.hh"

#include "sim/logging.hh"

namespace dagger::svc {

using baseline::Payload;
using baseline::SoftRpcNode;

namespace {

/** The one RPC every Dagger tier serves. */
constexpr proto::FnId kProcess = 1;

/** Caller id of the front-end (the tiers are 0..kSnTiers-1). */
constexpr unsigned kFrontEnd = kSnTiers;

/**
 * The graph's topology: each tier's one caller.  The front-end calls
 * Media, User, UniqueID and Text; Text calls UserMention and
 * UrlShorten.
 */
constexpr unsigned kCallerOf[kSnTiers] = {
    kFrontEnd, kFrontEnd, kFrontEnd, kFrontEnd,
    static_cast<unsigned>(SnTier::Text), static_cast<unsigned>(SnTier::Text),
};

/** Number of tiers @p caller calls. */
unsigned
callsFrom(unsigned caller)
{
    unsigned n = 0;
    for (unsigned c : kCallerOf)
        n += c == caller;
    return n;
}

} // namespace

const char *
snTierName(unsigned tier)
{
    switch (static_cast<SnTier>(tier)) {
      case SnTier::Media:
        return "s1:Media";
      case SnTier::User:
        return "s2:User";
      case SnTier::UniqueId:
        return "s3:UniqueID";
      case SnTier::Text:
        return "s4:Text";
      case SnTier::UserMention:
        return "s5:UserMention";
      case SnTier::UrlShorten:
        return "s6:UrlShorten";
    }
    return "?";
}

SocialNet::SocialNet(SocialNetConfig cfg) : _cfg(cfg), _rng(cfg.seed)
{
    build();
}

void
SocialNet::build()
{
    if (_cfg.transport == SnTransport::KernelTcp)
        buildKernelTcp();
    else
        buildDagger();

    for (unsigned t : {0u, 1u, 2u, 4u, 5u})
        serve(t, [this, t](Respond respond) { answer(t, respond); });

    // Text (s4) fans out to UserMention (s5) and UrlShorten (s6)
    // before responding, like the compose-post path in Fig. 1.
    serve(3, [this](Respond respond) {
        auto remaining = std::make_shared<int>(2);
        auto resp_holder = std::make_shared<Respond>(std::move(respond));
        auto on_done = [this, remaining, resp_holder] {
            if (--*remaining > 0)
                return;
            answer(3, *resp_holder);
        };
        callTier(4, sampleReqSize(4), on_done);
        callTier(5, sampleReqSize(5), on_done);
    });
}

void
SocialNet::buildKernelTcp()
{
    // Cores 0..5: one app core per tier; core 6: front-end.
    // Isolated mode: softirq processing on dedicated cores 7..10.
    // Colocated mode (Fig. 5 shaded): softirqs run on the SMT siblings
    // of the tier cores, i.e., on the same physical cores as the app.
    _cpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 11);
    for (unsigned t = 0; t < kSnTiers; ++t) {
        rpc::HwThread &app = _cpus->core(t).thread(0);
        // Fig. 5 setup: interrupt service routines are bound either to
        // the *same logical cores* as the application (shaded bars) or
        // to dedicated network cores (solid bars).
        rpc::HwThread *net = _cfg.colocatedNetworking
            ? &app                               // softirqs preempt app
            : &_cpus->core(7 + t % 4).thread(0); // dedicated net cores
        _soft[t] = std::make_unique<SoftRpcNode>(_sys.eq(), _cfg.stack,
                                                 app, net);
    }
    // The front-end never serves RPCs in this model, so it gets no
    // handler.
    rpc::HwThread &fe_app = _cpus->core(6).thread(0);
    _soft[kFrontEnd] = std::make_unique<SoftRpcNode>(
        _sys.eq(), _cfg.stack, fe_app,
        _cfg.colocatedNetworking ? &fe_app : &_cpus->core(7).thread(1));
    for (auto &node : _soft)
        node->setColocationSlowdown(_cfg.colocationSlowdown);
}

void
SocialNet::buildDagger()
{
    nic::SoftConfig soft;
    soft.autoBatch = true; // latency-sensitive tiers: no batch waits

    // One self-contained tier (own NIC, own dispatch core) per tier,
    // with one client flow per tier it calls.
    for (unsigned t = 0; t < kSnTiers; ++t)
        _tiers[t] = std::make_unique<Tier>(_sys, snTierName(t),
                                           callsFrom(t), 1u,
                                           nic::NicConfig{}, soft);

    // Front-end: a client-only node on one core, one flow per tier it
    // calls, statically balanced onto the tier's one server flow.
    nic::NicConfig fe_cfg;
    fe_cfg.numFlows = callsFrom(kFrontEnd);
    rpc::DaggerNode &fe = _sys.addNode(fe_cfg, soft);
    _cpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
    for (unsigned t = 0; t < kSnTiers; ++t) {
        if (kCallerOf[t] != kFrontEnd) {
            _clientTo[t] = &_tiers[kCallerOf[t]]->connectTo(*_tiers[t]);
            continue;
        }
        const auto flow = static_cast<unsigned>(_frontendClients.size());
        auto client = std::make_unique<rpc::RpcClient>(
            fe, flow, _cpus->core(0).thread(0));
        client->setConnection(_sys.connect(fe, flow, _tiers[t]->node(), 0,
                                           nic::LbScheme::Static));
        _clientTo[t] = client.get();
        _frontendClients.push_back(std::move(client));
    }
}

void
SocialNet::serve(unsigned tier, std::function<void(Respond)> handler)
{
    if (_cfg.transport == SnTransport::KernelTcp) {
        _soft[tier]->setHandler(
            [handler = std::move(handler)](const Payload &,
                                           SoftRpcNode::Responder respond) {
                handler(std::move(respond));
            });
        return;
    }
    // Dagger: every answer leaves through respondLater().  The
    // handler's compute is charged on the tier's dispatch thread first,
    // and the thread runs its work in order, so the response goes out
    // once the compute is done.
    Tier &t = *_tiers[tier];
    t.serverThread().registerHandler(
        kProcess, [&t, handler](const proto::RpcMessage &req) {
            handler([&t, conn = req.connId(), rpc = req.rpcId(),
                     fn = req.fnId()](Payload resp, sim::Tick cost) {
                t.dispatchThread().execute(cost, [] {});
                t.serverThread().respondLater(conn, rpc, fn, resp.data(),
                                              resp.size());
            });
            rpc::HandlerOutcome out;
            out.respond = false;
            return out;
        });
}

void
SocialNet::answer(unsigned tier, const Respond &respond)
{
    Payload resp(sampleRespSize());
    _allResp.record(resp.size());
    respond(std::move(resp), _cfg.tierCost[tier]);
}

std::size_t
SocialNet::sampleReqSize(unsigned tier)
{
    // Fig. 4 (right): Text's median RPC is 580 B; Media, User and
    // UniqueID never exceed 64 B; UserMention and UrlShorten sit in
    // between.
    switch (static_cast<SnTier>(tier)) {
      case SnTier::Text:
        return 64 + static_cast<std::size_t>(
                        std::min(_rng.exponential(745.0), 4000.0));
      case SnTier::UserMention:
        return 96 + static_cast<std::size_t>(
                        std::min(_rng.exponential(160.0), 1200.0));
      case SnTier::UrlShorten:
        return 80 + static_cast<std::size_t>(
                        std::min(_rng.exponential(130.0), 1200.0));
      case SnTier::Media:
      case SnTier::User:
      case SnTier::UniqueId:
        return 16 + _rng.range(49); // 16..64 B
    }
    return 64;
}

std::size_t
SocialNet::sampleRespSize()
{
    // Fig. 4 (left): >90% of responses are <= 64 B.
    if (_rng.chance(0.92))
        return 8 + _rng.range(57);
    return 64 + _rng.range(448);
}

void
SocialNet::callTier(unsigned tier, std::size_t req_bytes,
                    std::function<void()> done)
{
    _reqSize[tier].record(req_bytes);
    _allReq.record(req_bytes);
    const sim::Tick t0 = _sys.now();
    auto on_response = [this, tier, t0, done = std::move(done)] {
        _callLat[tier].record(_sys.now() - t0);
        done();
    };
    if (_cfg.transport == SnTransport::KernelTcp) {
        _soft[kCallerOf[tier]]->call(
            *_soft[tier], Payload(req_bytes),
            [on_response = std::move(on_response)](const Payload &,
                                                   sim::Tick) {
                on_response();
            });
        return;
    }
    const Payload req(req_bytes);
    _clientTo[tier]->callAsync(
        kProcess, req.data(), req.size(),
        [on_response = std::move(on_response)](const proto::RpcMessage &) {
            on_response();
        });
}

void
SocialNet::finishRequest(sim::Tick t0)
{
    _e2e.record(_sys.now() - t0);
    ++_completed;
    if (_inflight > 0)
        --_inflight;
}

void
SocialNet::composePost(sim::Tick t0, bool degraded)
{
    // Fan-out from the front-end: UniqueID, Media, User, Text (which
    // nests UserMention + UrlShorten).  In degraded mode (front-end
    // overload, see SnStormSpec::maxInflight) the Media leg is shed:
    // the post goes up without its media attachment.
    auto remaining = std::make_shared<int>(degraded ? 3 : 4);
    auto done = [this, remaining, t0] {
        if (--*remaining > 0)
            return;
        finishRequest(t0);
    };
    callTier(2, sampleReqSize(2), done); // UniqueID
    if (!degraded)
        callTier(0, sampleReqSize(0), done); // Media
    else
        ++_degradedServed;
    callTier(1, sampleReqSize(1), done); // User
    callTier(3, sampleReqSize(3), done); // Text (nests)
}

void
SocialNet::readTimeline(sim::Tick t0)
{
    // Read paths touch the User tier (then storage, modeled in-cost).
    callTier(1, sampleReqSize(1), [this, t0] { finishRequest(t0); });
}

void
SocialNet::issueRequest()
{
    if (_sys.eq().now() >= _stopAt)
        return;
    const double mean_gap_us = 1e6 / _qps;
    auto fire = [this] {
        if (_sys.eq().now() >= _stopAt)
            return;
        ++_issued;
        ++_inflight;
        const sim::Tick t0 = _sys.eq().now();
        const double mix = _rng.uniform();
        if (mix < _cfg.composeFraction)
            composePost(t0);
        else
            readTimeline(t0);
        issueRequest();
    };
    _sys.eq().schedule(sim::usToTicks(_rng.exponential(mean_gap_us)),
                 std::move(fire));
}

void
SocialNet::run(double qps, sim::Tick duration, sim::Tick drain)
{
    dagger_assert(qps > 0, "offered load must be positive");
    _qps = qps;
    _stopAt = _sys.eq().now() + duration;
    issueRequest();
    _sys.eq().runUntil(_stopAt + drain);
}

void
SocialNet::runStorm(const SnStormSpec &spec)
{
    dagger_assert(!_storm, "runStorm called twice");
    _stopAt = _sys.eq().now() + spec.duration;
    _maxInflight = spec.maxInflight;
    // §3.2 mix rides the workload's GET ratio: a GET arrival is a
    // timeline read, a SET is a compose post.
    _storm = std::make_unique<OpenLoopGen>(
        _sys.eq(), _cfg.seed, spec, 1.0 - _cfg.composeFraction,
        [this](std::uint64_t, bool is_get) {
            ++_issued;
            ++_inflight;
            const sim::Tick t0 = _sys.eq().now();
            if (is_get) {
                readTimeline(t0);
                return;
            }
            const bool degraded =
                _maxInflight > 0 && _inflight > _maxInflight;
            composePost(t0, degraded);
        });

    _sys.eq().runUntil(_stopAt + spec.drain);
}

const baseline::ServeBreakdown &
SocialNet::tierBreakdown(unsigned tier) const
{
    dagger_assert(_cfg.transport == SnTransport::KernelTcp,
                  "tierBreakdown is the kernel-TCP serve-side profile");
    dagger_assert(tier < kSnTiers, "bad tier ", tier);
    return _soft[tier]->served();
}

} // namespace dagger::svc
