/**
 * @file
 * Tier-framework tests: flow provisioning, downstream wiring, worker
 * pools, tracing, chained tiers over virtualized NICs.
 */

#include <gtest/gtest.h>

#include "svc/tier.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using namespace dagger::svc;
using sim::usToTicks;

constexpr proto::FnId kFn = 1;

TEST(Tier, ProvisionsServerPlusClientFlows)
{
    DaggerSystem sys;
    Tier mid(sys, "mid", 2, 1);
    EXPECT_EQ(mid.node().numFlows(), 3u); // 1 server + 2 clients
    EXPECT_EQ(mid.name(), "mid");
    EXPECT_EQ(mid.server().size(), 1u);
}

TEST(Tier, ConnectToWiresDownstream)
{
    DaggerSystem sys;
    Tier front(sys, "front", 1, 1);
    Tier back(sys, "back", 0, 1);
    back.serverThread().registerHandler(
        kFn, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(100);
            return out;
        });

    auto &client = front.connectTo(back);
    int done = 0;
    std::uint64_t v = 9;
    client.callPod(kFn, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 9u);
        ++done;
    });
    sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(done, 1);
}

TEST(TierDeath, RunsOutOfClientFlows)
{
    DaggerSystem sys;
    Tier front(sys, "front", 1, 1);
    Tier back(sys, "back", 0, 1);
    front.connectTo(back);
    EXPECT_DEATH(front.connectTo(back), "no free client flows");
}

TEST(Tier, WorkerPoolMovesHandlerOffDispatch)
{
    DaggerSystem sys;
    Tier front(sys, "front", 1, 1);
    Tier back(sys, "back", 0, 2);
    back.useWorkerPool(1u);
    ASSERT_NE(back.workerPool(), nullptr);

    back.serverThread().registerHandler(
        kFn, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = usToTicks(5);
            return out;
        });
    auto &client = front.connectTo(back);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        std::uint64_t v = i;
        client.callPod(kFn, v, [&](const proto::RpcMessage &) { ++done; });
    }
    sys.eq().runFor(sim::msToTicks(1));
    EXPECT_EQ(done, 10);
    EXPECT_EQ(back.workerPool()->submitted(), 10u);
    // Handler time (5us each) landed on the worker, not the dispatch
    // thread.
    EXPECT_GT(back.ownCore(1).thread(0).busyTicks(), usToTicks(45));
    EXPECT_LT(back.dispatchThread().busyTicks(), usToTicks(20));
}

TEST(Tier, ThreeTierChainOverVirtualizedNics)
{
    DaggerSystem sys;
    Tier a(sys, "a", 1, 1);
    Tier b(sys, "b", 1, 1);
    Tier c(sys, "c", 0, 1);

    c.serverThread().registerHandler(kFn, [](const proto::RpcMessage &req) {
        HandlerOutcome out;
        out.response = req.payload();
        out.cost = sim::nsToTicks(50);
        return out;
    });

    auto &b_to_c = b.connectTo(c);
    // b: forwards to c, responds when c answers.
    b.serverThread().registerHandler(
        kFn, [&](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.respond = false;
            out.cost = sim::nsToTicks(80);
            const auto conn = req.connId();
            const auto rpc = req.rpcId();
            const auto fn = req.fnId();
            std::uint64_t fwd = 0;
            req.payloadAs(fwd);
            b_to_c.callPod(kFn, fwd,
                           [&, conn, rpc, fn](const proto::RpcMessage &r) {
                               std::uint64_t val = 0;
                               r.payloadAs(val);
                               const std::uint64_t doubled = val * 2;
                               b.serverThread().respondLater(
                                   conn, rpc, fn, &doubled,
                                   sizeof(doubled));
                           });
            return out;
        });

    auto &a_to_b = a.connectTo(b);
    std::uint64_t answer = 0;
    std::uint64_t v = 21;
    a_to_b.callPod(kFn, v, [&](const proto::RpcMessage &resp) {
        resp.payloadAs(answer);
    });
    sys.eq().runFor(usToTicks(200));
    EXPECT_EQ(answer, 42u);
    // Three NIC instances share the fabric.
    EXPECT_EQ(sys.numNodes(), 3u);
}

TEST(Tier, TracerAggregatesSpans)
{
    Tracer tracer;
    tracer.record("fast", usToTicks(1));
    tracer.record("slow", usToTicks(100));
    tracer.record("slow.wall", usToTicks(500)); // excluded from ranking
    EXPECT_EQ(tracer.bottleneck(), "slow");
    EXPECT_EQ(tracer.span("fast").count(), 1u);
    EXPECT_EQ(tracer.all().size(), 3u);
}

} // namespace
