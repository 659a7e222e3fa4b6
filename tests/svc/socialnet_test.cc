/**
 * @file
 * Social Network characterization-model tests (§3): per-tier
 * breakdowns, RPC size distributions, interference experiment shape,
 * and the same graph over the Dagger transport.
 */

#include <gtest/gtest.h>

#include "svc/socialnet.hh"

namespace {

using namespace dagger;
using namespace dagger::svc;
using sim::msToTicks;

TEST(SocialNet, RequestsCompleteAtLowLoad)
{
    SocialNet sn;
    sn.run(/*qps=*/200, msToTicks(150));
    EXPECT_GT(sn.issued(), 10u);
    EXPECT_EQ(sn.completed(), sn.issued());
    EXPECT_GT(sn.e2eLatency().count(), 0u);
}

TEST(SocialNet, AllTiersServeRequests)
{
    SocialNet sn;
    sn.run(300, msToTicks(200));
    for (unsigned t = 0; t < kSnTiers; ++t)
        EXPECT_GT(sn.tierBreakdown(t).total.count(), 0u)
            << snTierName(t);
}

TEST(SocialNet, LightTiersAreNetworkingDominated)
{
    // §3.1: "up to 80% for the light in terms of computation User and
    // UniqueID tiers", while Text/UserMention are compute-heavy.
    SocialNet sn;
    sn.run(200, msToTicks(250));
    auto net_fraction = [&](unsigned t) {
        const auto &b = sn.tierBreakdown(t);
        const double net = b.transport.mean() + b.rpc.mean();
        return net / (net + b.app.mean());
    };
    const double user = net_fraction(1);      // s2
    const double unique_id = net_fraction(2); // s3
    const double text = net_fraction(3);      // s4
    EXPECT_GT(user, 0.6);
    EXPECT_GT(unique_id, 0.6);
    EXPECT_LT(text, 0.25);
    EXPECT_GT(user, text);
}

TEST(SocialNet, NetworkingFractionGrowsWithLoad)
{
    auto tail_rpc_at = [](double qps) {
        SocialNet sn;
        sn.run(qps, msToTicks(300));
        return sn.tierBreakdown(3).rpc.percentile(99); // Text tier
    };
    // Queueing inflates the RPC component at high load (§3.1).
    EXPECT_GT(tail_rpc_at(700), 2 * tail_rpc_at(100));
}

TEST(SocialNet, RpcSizesMatchFig4)
{
    SocialNet sn;
    sn.run(400, msToTicks(300));

    // Text's median RPC is ~580B (Fig. 4 right).
    const auto text_median = sn.requestSize(3).percentile(50);
    EXPECT_NEAR(static_cast<double>(text_median), 580.0, 200.0);

    // Media, User, UniqueID never exceed 64 B.
    for (unsigned t : {0u, 1u, 2u})
        EXPECT_LE(sn.requestSize(t).max(), 64u) << snTierName(t);

    // Aggregate: ~75% of requests below 512 B; >90% of responses <=64B.
    EXPECT_LE(sn.allRequestSizes().percentile(75), 512u);
    EXPECT_LE(sn.allResponseSizes().percentile(90), 64u + 8u);
}

TEST(SocialNet, ColocationHurtsTailLatency)
{
    // Fig. 5: sharing cores between network processing and app logic
    // degrades latency, and the gap widens with load.
    SocialNetConfig isolated;
    isolated.colocatedNetworking = false;
    SocialNet iso(isolated);
    iso.run(600, msToTicks(300));

    SocialNetConfig shared;
    shared.colocatedNetworking = true;
    SocialNet col(shared);
    col.run(600, msToTicks(300));

    EXPECT_GT(col.e2eLatency().percentile(99),
              iso.e2eLatency().percentile(99));
    EXPECT_GE(col.e2eLatency().percentile(50),
              iso.e2eLatency().percentile(50));
}

SocialNetConfig
daggerConfig()
{
    SocialNetConfig cfg;
    cfg.transport = SnTransport::Dagger;
    return cfg;
}

TEST(SocialNet, DaggerRequestsCompleteExactlyOnce)
{
    SocialNet sn(daggerConfig());
    sn.run(/*qps=*/200, msToTicks(150));
    EXPECT_GT(sn.issued(), 10u);
    EXPECT_EQ(sn.completed(), sn.issued());
    EXPECT_EQ(sn.inflight(), 0u);
    EXPECT_EQ(sn.e2eLatency().count(), sn.completed());
}

TEST(SocialNet, GraphShapeHoldsOnBothTransports)
{
    for (SnTransport transport :
         {SnTransport::KernelTcp, SnTransport::Dagger}) {
        SocialNetConfig cfg;
        cfg.transport = transport;
        SocialNet sn(cfg);
        sn.run(200, msToTicks(200));
        const std::uint64_t composes = sn.requestSize(3).count();
        ASSERT_GT(composes, 0u);
        ASSERT_LT(composes, sn.issued()); // some timeline reads too
        // Compose fan-out: UniqueID, Media and Text once per post,
        // and Text nests one UserMention and one UrlShorten call.
        for (unsigned t : {0u, 2u, 4u, 5u})
            EXPECT_EQ(sn.requestSize(t).count(), composes) << snTierName(t);
        // User: one call per compose plus one per timeline read.
        EXPECT_EQ(sn.requestSize(1).count(), sn.issued());
        // Every call was answered exactly once at its caller.
        for (unsigned t = 0; t < kSnTiers; ++t)
            EXPECT_EQ(sn.callLatency(t).count(), sn.requestSize(t).count())
                << snTierName(t);
    }
}

TEST(SocialNet, DaggerCollapsesLightTierNetworkingShare)
{
    // The light tiers' networking share over Dagger, (caller RTT -
    // compute) / caller RTT, sits below their kernel-TCP serve-side
    // share (§3 -> §5: only the transport changed).
    SocialNet tcp;
    tcp.run(200, msToTicks(250));
    SocialNetConfig cfg = daggerConfig();
    SocialNet dagger(cfg);
    dagger.run(200, msToTicks(250));
    for (unsigned t : {1u, 2u}) { // s2 User, s3 UniqueID
        const auto &b = tcp.tierBreakdown(t);
        const double net = b.transport.mean() + b.rpc.mean();
        const double tcp_share = net / (net + b.app.mean());
        const double rtt = dagger.callLatency(t).mean();
        const double dagger_share =
            (rtt - static_cast<double>(cfg.tierCost[t])) / rtt;
        EXPECT_GT(dagger_share, 0.0) << snTierName(t);
        EXPECT_LT(dagger_share, tcp_share) << snTierName(t);
    }
}

TEST(SocialNetDeath, TierBreakdownIsKernelTcpOnly)
{
    SocialNet sn(daggerConfig());
    EXPECT_DEATH(sn.tierBreakdown(1), "kernel-TCP");
}

TEST(SocialNet, TierNamesMatchPaperLabels)
{
    EXPECT_STREQ(snTierName(0), "s1:Media");
    EXPECT_STREQ(snTierName(3), "s4:Text");
    EXPECT_STREQ(snTierName(5), "s6:UrlShorten");
}

} // namespace
