/**
 * @file
 * Extension: the Social Network graph of §3, served over Dagger.
 *
 * Section 3 motivates Dagger by showing that over kernel TCP + Thrift
 * the light tiers spend up to 80% of their latency in networking.
 * The paper never closes that loop explicitly; this bench does: it
 * runs svc::SocialNet twice with default configs, once per transport.
 * Both runs share the graph (six tiers, their compute, the compose
 * fan-out), the Fig. 4 size laws, the §3.2 mix and the seed; only the
 * transport differs — kernel TCP, or Dagger with one virtualized NIC
 * per tier (Fig. 14).  The light tiers' networking share collapses,
 * and the end-to-end latency drops by the former networking budget.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"
#include "svc/socialnet.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

/** Per-tier networking share and e2e median of one transport's run. */
struct SideResult
{
    std::array<double, svc::kSnTiers> share{};
    double e2e_p50_us = 0;
};

constexpr double kQps = 200;

/**
 * TCP side: networking share = (transport + rpc) / (transport + rpc +
 * app), from the serve-side breakdown the §3 profiler records.
 */
SideResult
runTcp()
{
    svc::SocialNet tcp;
    tcp.run(kQps, sim::msToTicks(400));
    SideResult r;
    for (unsigned t = 0; t < svc::kSnTiers; ++t) {
        const auto &b = tcp.tierBreakdown(t);
        const double net = b.transport.mean() + b.rpc.mean();
        r.share[t] = net / (net + b.app.mean());
    }
    r.e2e_p50_us = sim::ticksToUs(tcp.e2eLatency().percentile(50));
    return r;
}

/**
 * Dagger side: networking share = (caller RTT - tier compute) / caller
 * RTT.  Text's compute also covers the longer of its two nested calls.
 */
SideResult
runDagger()
{
    svc::SocialNetConfig cfg;
    cfg.transport = svc::SnTransport::Dagger;
    svc::SocialNet dagger(cfg);
    dagger.run(kQps, sim::msToTicks(400));
    const auto &cost = cfg.tierCost;
    SideResult r;
    for (unsigned t = 0; t < svc::kSnTiers; ++t) {
        const double rtt = dagger.callLatency(t).mean();
        const double app = static_cast<double>(cost[t]) +
            (t == static_cast<unsigned>(svc::SnTier::Text)
                 ? static_cast<double>(std::max(cost[4], cost[5]))
                 : 0.0);
        r.share[t] = std::max(0.0, (rtt - app) / rtt);
    }
    r.e2e_p50_us = sim::ticksToUs(dagger.e2eLatency().percentile(50));
    return r;
}

void
run(BenchContext &ctx)
{
    ctx.seed(svc::SocialNetConfig{}.seed);
    ctx.config("qps", kQps);
    ctx.config("measure_ms", 400.0);

    std::vector<std::function<SideResult()>> scenarios = {
        [] { return runTcp(); },
        [] { return runDagger(); },
    };
    const std::vector<SideResult> sides =
        ctx.runner().run(std::move(scenarios));
    const SideResult &tcp = sides[0];
    const SideResult &dag = sides[1];

    tableHeader("Extension: Social Network tiers over kernel TCP vs "
                "over Dagger (QPS=200)",
                "tier           net share over TCP    net share over "
                "Dagger");
    for (unsigned t = 0; t < svc::kSnTiers; ++t) {
        std::printf("%-15s %16.0f%% %22.0f%%\n", svc::snTierName(t),
                    100 * tcp.share[t], 100 * dag.share[t]);
        ctx.point()
            .tag("tier", svc::snTierName(t))
            .value("tcp_net_share_pct", 100 * tcp.share[t])
            .value("dagger_net_share_pct", 100 * dag.share[t]);
    }

    const double tcp_e2e = tcp.e2e_p50_us;
    const double dagger_e2e = dag.e2e_p50_us;
    std::printf("e2e p50: %.0f us over TCP vs %.0f us over Dagger "
                "(%.2fx)\n",
                tcp_e2e, dagger_e2e, tcp_e2e / dagger_e2e);
    ctx.point()
        .tag("tier", "e2e")
        .value("tcp_p50_us", tcp_e2e)
        .value("dagger_p50_us", dagger_e2e)
        .value("speedup_x", tcp_e2e / dagger_e2e);

    const unsigned user = static_cast<unsigned>(svc::SnTier::User);
    const double tcp_user_share = tcp.share[user];
    const double dagger_user_share = dag.share[user];
    ctx.check("User tier: networking-dominated over TCP (~70%+)",
              tcp_user_share > 0.6);
    ctx.check("User tier: networking share collapses over Dagger",
              dagger_user_share < 0.35 &&
                  dagger_user_share < tcp_user_share / 2);
    ctx.check("end-to-end latency improves over Dagger",
              dagger_e2e < 0.98 * tcp_e2e);

    ctx.anchor("tcp_user_net_share_pct", 80.0, 100 * tcp_user_share,
               0.35);
}

} // namespace

DAGGER_BENCH_MAIN("ext_socialnet_on_dagger", run)
