#include "svc/socialnet.hh"

#include "sim/logging.hh"

namespace dagger::svc {

using baseline::Payload;
using baseline::SoftRpcNode;

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
    // Cores 0..5: one app core per tier; core 6: front-end.
    // Isolated mode: softirq processing on dedicated cores 7..10.
    // Colocated mode (Fig. 5 shaded): softirqs run on the SMT siblings
    // of the tier cores, i.e., on the same physical cores as the app.
    _cpus = std::make_unique<rpc::CpuSet>(_eq, 11);

    auto tier_cost = [&](unsigned t) -> sim::Tick {
        switch (static_cast<SnTier>(t)) {
          case SnTier::Media:
            return _cfg.mediaCost;
          case SnTier::User:
            return _cfg.userCost;
          case SnTier::UniqueId:
            return _cfg.uniqueIdCost;
          case SnTier::Text:
            return _cfg.textCost;
          case SnTier::UserMention:
            return _cfg.userMentionCost;
          case SnTier::UrlShorten:
            return _cfg.urlShortenCost;
        }
        return 0;
    };

    for (unsigned t = 0; t < kSnTiers; ++t) {
        rpc::HwThread &app = _cpus->core(t).thread(0);
        // Fig. 5 setup: interrupt service routines are bound either to
        // the *same logical cores* as the application (shaded bars) or
        // to dedicated network cores (solid bars).
        rpc::HwThread *net = _cfg.colocatedNetworking
            ? &app                               // softirqs preempt app
            : &_cpus->core(7 + t % 4).thread(0); // dedicated net cores
        _tiers[t] =
            std::make_unique<SoftRpcNode>(_eq, _cfg.stack, app, net);
        _tiers[t]->setColocationSlowdown(_cfg.colocationSlowdown);
        _reqSize[t] = sim::Histogram(snTierName(t));
    }
    rpc::HwThread &fe_app = _cpus->core(6).thread(0);
    _frontend = std::make_unique<SoftRpcNode>(
        _eq, _cfg.stack, fe_app,
        _cfg.colocatedNetworking ? &fe_app : &_cpus->core(7).thread(1));
    _frontend->setColocationSlowdown(_cfg.colocationSlowdown);

    // Leaf tiers: compute then respond.
    auto leaf_handler = [this, tier_cost](unsigned t) {
        return [this, t, tier_cost](const Payload &,
                                    SoftRpcNode::Responder respond) {
            Payload resp(sampleRespSize(t));
            _allResp.record(resp.size());
            respond(std::move(resp), tier_cost(t));
        };
    };
    for (unsigned t : {0u, 1u, 2u, 4u, 5u})
        _tiers[t]->setHandler(leaf_handler(t));

    // Text (s4) fans out to UserMention (s5) and UrlShorten (s6)
    // before responding, like the compose-post path in Fig. 1.
    _tiers[3]->setHandler([this, tier_cost](const Payload &,
                                            SoftRpcNode::Responder respond) {
        auto remaining = std::make_shared<int>(2);
        auto resp_holder =
            std::make_shared<SoftRpcNode::Responder>(std::move(respond));
        auto on_done = [this, remaining, resp_holder,
                        tier_cost](const Payload &, sim::Tick) {
            if (--*remaining > 0)
                return;
            Payload resp(sampleRespSize(3));
            _allResp.record(resp.size());
            (*resp_holder)(std::move(resp), tier_cost(3));
        };
        callTier(*_tiers[3], 4, sampleReqSize(4),
                 [on_done](const Payload &p) { on_done(p, 0); });
        callTier(*_tiers[3], 5, sampleReqSize(5),
                 [on_done](const Payload &p) { on_done(p, 0); });
    });

    // The front-end itself never serves RPCs in this model.
    _frontend->setHandler([](const Payload &, SoftRpcNode::Responder r) {
        r({}, 0);
    });
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
SocialNet::sampleRespSize(unsigned tier)
{
    // Fig. 4 (left): >90% of responses are <= 64 B.
    if (_rng.chance(0.92))
        return 8 + _rng.range(57);
    (void)tier;
    return 64 + _rng.range(448);
}

void
SocialNet::callTier(SoftRpcNode &from, unsigned tier, std::size_t req_bytes,
                    std::function<void(const Payload &)> cb)
{
    _reqSize[tier].record(req_bytes);
    _allReq.record(req_bytes);
    from.call(*_tiers[tier], Payload(req_bytes),
              [cb = std::move(cb)](const Payload &resp, sim::Tick) {
                  cb(resp);
              });
}

void
SocialNet::finishRequest(sim::Tick t0)
{
    _e2e.record(_eq.now() - t0);
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
    auto done = [this, remaining, t0](const Payload &) {
        if (--*remaining > 0)
            return;
        finishRequest(t0);
    };
    callTier(*_frontend, 2, sampleReqSize(2), done); // UniqueID
    if (!degraded)
        callTier(*_frontend, 0, sampleReqSize(0), done); // Media
    else
        ++_degradedServed;
    callTier(*_frontend, 1, sampleReqSize(1), done); // User
    callTier(*_frontend, 3, sampleReqSize(3), done); // Text (nests)
}

void
SocialNet::readTimeline(sim::Tick t0)
{
    // Read paths touch the User tier (then storage, modeled in-cost).
    callTier(*_frontend, 1, sampleReqSize(1), [this, t0](const Payload &) {
        finishRequest(t0);
    });
}

void
SocialNet::issueRequest()
{
    if (_eq.now() >= _stopAt)
        return;
    const double mean_gap_us = 1e6 / _qps;
    auto fire = [this] {
        if (_eq.now() >= _stopAt)
            return;
        ++_issued;
        ++_inflight;
        const sim::Tick t0 = _eq.now();
        const double mix = _rng.uniform();
        if (mix < _cfg.composeFraction)
            composePost(t0);
        else
            readTimeline(t0);
        issueRequest();
    };
    _eq.schedule(sim::usToTicks(_rng.exponential(mean_gap_us)),
                 std::move(fire));
}

void
SocialNet::run(double qps, sim::Tick duration, sim::Tick drain)
{
    dagger_assert(qps > 0, "offered load must be positive");
    _qps = qps;
    _stopAt = _eq.now() + duration;
    issueRequest();
    _eq.runUntil(_stopAt + drain);
}

void
SocialNet::runStorm(const SnStormSpec &spec)
{
    dagger_assert(spec.offeredQps > 0, "offered load must be positive");
    dagger_assert(!_storm, "runStorm called twice");
    _stopAt = _eq.now() + spec.duration;
    _maxInflight = spec.maxInflight;

    _storm = std::make_unique<app::OpenLoopGen>(_eq,
                                                _cfg.seed ^ 0x73746f726dull);
    app::TenantSpec tenant;
    tenant.name = "users";
    tenant.clients = spec.clients;
    tenant.cohorts = spec.cohorts;
    tenant.perClientRps =
        spec.offeredQps / static_cast<double>(spec.clients);
    // §3.2 mix rides the workload's GET ratio: a GET arrival is a
    // timeline read, a SET is a compose post.
    tenant.getRatio = 1.0 - _cfg.composeFraction;
    tenant.diurnal = spec.diurnal;
    // Timeline keys are not re-used by the model; keep the unused
    // per-cohort key machinery tiny (zeta init is O(keySpace)).
    tenant.keySpace = 1024;
    _storm->addTenant(tenant);
    _storm->start(_stopAt, [this](const app::OpenLoopCall &call) {
        ++_issued;
        ++_inflight;
        const sim::Tick t0 = _eq.now();
        if (call.op.isGet) {
            readTimeline(t0);
            return;
        }
        const bool degraded =
            _maxInflight > 0 && _inflight > _maxInflight;
        composePost(t0, degraded);
    });

    _eq.runUntil(_stopAt + spec.drain);
}

const baseline::ServeBreakdown &
SocialNet::tierBreakdown(unsigned tier) const
{
    dagger_assert(tier < kSnTiers, "bad tier ", tier);
    return _tiers[tier]->served();
}

} // namespace dagger::svc
