/**
 * @file
 * The Social Network characterization model (§3, Figs. 1, 3, 4, 5).
 *
 * A queueing-faithful model of the DeathStarBench Social Network
 * subset the paper profiles: six representative tiers (s1 Media, s2
 * User, s3 UniqueID, s4 Text, s5 UserMention, s6 UrlShorten) served
 * over a kernel-TCP + Thrift software stack (SoftRpcNode), with the
 * request mix of §3.2 (Compose Post / Read Home Timeline / Read User
 * Timeline) and per-tier RPC-size distributions matching Fig. 4
 * (Text's median RPC is 580 B; Media, User, and UniqueID never exceed
 * 64 B).
 *
 * Used by bench/fig03 (networking fraction of median/tail latency),
 * bench/fig04 (RPC size CDF), and bench/fig05 (interference between
 * network processing and application logic on shared cores).
 */

#ifndef DAGGER_SVC_SOCIALNET_HH
#define DAGGER_SVC_SOCIALNET_HH

#include <array>
#include <memory>

#include "app/open_loop.hh"
#include "baseline/soft_rpc_node.hh"
#include "rpc/cpu.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace dagger::svc {

/** The six profiled tiers, in the paper's s1..s6 order. */
enum class SnTier : unsigned {
    Media = 0,      // s1
    User = 1,       // s2
    UniqueId = 2,   // s3
    Text = 3,       // s4
    UserMention = 4,// s5
    UrlShorten = 5, // s6
};

constexpr unsigned kSnTiers = 6;

/** Tier display name ("s1: Media", ...). */
const char *snTierName(unsigned tier);

/** Configuration of the characterization deployment. */
struct SocialNetConfig
{
    /**
     * Fig. 5 knob: true = network interrupt processing shares the
     * application cores (shaded bars); false = dedicated net cores
     * (solid bars).
     */
    bool colocatedNetworking = false;

    /** Thrift-over-kernel-TCP software stack costs. */
    baseline::SoftStackParams stack{
        "LinuxTCP+Thrift",
        sim::usToTicks(14.0), // RPC send (Thrift serialization)
        sim::usToTicks(8.0),  // TCP send
        sim::usToTicks(9.0),  // TCP receive (softirq)
        sim::usToTicks(12.0), // RPC receive (deserialize + dispatch)
        sim::usToTicks(20.0), // wire
    };

    // Per-tier application compute (DeathStarBench-like: Text and
    // UserMention are compute-heavy, User and UniqueID are tiny).
    sim::Tick mediaCost = sim::usToTicks(500);
    sim::Tick userCost = sim::usToTicks(15);
    sim::Tick uniqueIdCost = sim::usToTicks(10);
    sim::Tick textCost = sim::usToTicks(1800);
    sim::Tick userMentionCost = sim::usToTicks(1400);
    sim::Tick urlShortenCost = sim::usToTicks(700);

    /**
     * CPU slowdown from interrupt context switches + cache pollution
     * when softirqs share the application cores (see
     * SoftRpcNode::setColocationSlowdown).
     */
    double colocationSlowdown = 1.35;

    // Request mix (§3.2).
    double composeFraction = 0.6; // remainder = timeline reads

    std::uint64_t seed = 0x736e6574ull;
};

/** Open-loop storm parameters (see app::OpenLoopGen). */
struct SnStormSpec
{
    std::uint64_t clients = 1'048'576; ///< simulated user population
    unsigned cohorts = 64;             ///< actors carrying it
    double offeredQps = 600.0;         ///< aggregate peak arrival rate
    sim::Tick duration = sim::msToTicks(200);
    sim::Tick drain = sim::msToTicks(50);
    app::DiurnalCurve diurnal;         ///< flat by default
    /**
     * Degraded-mode trigger: when more than this many requests are in
     * flight at the front-end, compose posts shed their Media leg and
     * complete degraded (0 = never degrade).  This is the §3 analogue
     * of the Flight tiers' timeout budgets: the software stack has no
     * per-call deadlines, so overload control happens at admission.
     */
    std::size_t maxInflight = 0;
};

/** The deployed model. */
class SocialNet
{
  public:
    explicit SocialNet(SocialNetConfig cfg = {});

    SocialNet(const SocialNet &) = delete;
    SocialNet &operator=(const SocialNet &) = delete;

    /** Drive an open-loop Poisson load of @p qps for @p duration. */
    void run(double qps, sim::Tick duration,
             sim::Tick drain = sim::msToTicks(50));

    /**
     * Drive a million-client open-loop storm (cohort actors, diurnal
     * curve, §3.2 mix via the tenant's GET ratio).  May be called once
     * per app, instead of run().
     */
    void runStorm(const SnStormSpec &spec);

    /** End-to-end request latency. */
    sim::Histogram &e2eLatency() { return _e2e; }

    /** Per-tier served breakdown (transport / rpc / app / total). */
    const baseline::ServeBreakdown &tierBreakdown(unsigned tier) const;

    /** Per-tier request/response wire sizes (bytes). */
    const sim::Histogram &requestSize(unsigned tier) const
    {
        return _reqSize[tier];
    }
    const sim::Histogram &responseSize(unsigned tier) const
    {
        return _respSize[tier];
    }

    /** Aggregate size histograms across all RPCs (Fig. 4 left). */
    const sim::Histogram &allRequestSizes() const { return _allReq; }
    const sim::Histogram &allResponseSizes() const { return _allResp; }

    std::uint64_t issued() const { return _issued; }
    std::uint64_t completed() const { return _completed; }
    /** Compose posts served without their Media leg (overload mode). */
    std::uint64_t degradedServed() const { return _degradedServed; }
    /** Requests issued but not yet completed. */
    std::uint64_t inflight() const { return _inflight; }
    sim::EventQueue &eq() { return _eq; }

  private:
    void build();
    void issueRequest();
    void composePost(sim::Tick t0, bool degraded = false);
    void readTimeline(sim::Tick t0);
    void finishRequest(sim::Tick t0);

    /** Issue one sized call and record size stats. */
    void callTier(baseline::SoftRpcNode &from, unsigned tier,
                  std::size_t req_bytes,
                  std::function<void(const baseline::Payload &)> cb);

    std::size_t sampleReqSize(unsigned tier);
    std::size_t sampleRespSize(unsigned tier);

    SocialNetConfig _cfg;
    sim::EventQueue _eq;
    std::unique_ptr<rpc::CpuSet> _cpus;
    sim::Rng _rng;

    std::array<std::unique_ptr<baseline::SoftRpcNode>, kSnTiers> _tiers;
    std::unique_ptr<baseline::SoftRpcNode> _frontend;

    std::array<sim::Histogram, kSnTiers> _reqSize;
    std::array<sim::Histogram, kSnTiers> _respSize;
    sim::Histogram _allReq{"all_req_bytes"};
    sim::Histogram _allResp{"all_resp_bytes"};
    sim::Histogram _e2e{"socialnet_e2e"};

    // Storm driver (runStorm only).
    std::unique_ptr<app::OpenLoopGen> _storm;

    std::uint64_t _issued = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _degradedServed = 0;
    std::uint64_t _inflight = 0;
    std::size_t _maxInflight = 0;
    double _qps = 0;
    sim::Tick _stopAt = 0;
};

} // namespace dagger::svc

#endif // DAGGER_SVC_SOCIALNET_HH
