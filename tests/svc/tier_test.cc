/**
 * @file
 * Tier-framework tests: flow provisioning, downstream wiring, worker
 * pools, the two handler shapes under both threading models, the
 * service histogram, chained tiers over virtualized NICs.
 */

#include <gtest/gtest.h>

#include <vector>

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

    back.serve(kFn, [](const proto::RpcMessage &req) {
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

/**
 * A deferred echo: records each handler call and parks its Pending;
 * the test decides when to reply.
 */
struct DeferredEcho
{
    Tier &tier;
    sim::Tick cost;
    std::vector<Tier::Pending> pending;
    int calls = 0;
    int worked = 0;

    void
    install()
    {
        tier.serveDeferred(
            kFn, [this](const proto::RpcMessage &, const Tier::Pending &p) {
                ++calls;
                pending.push_back(p);
                return Tier::Deferred{cost, [this] { ++worked; }};
            });
    }

    void
    replyAll()
    {
        // A Simple reply resumes the dispatch loop, which may run the
        // next handler (and append to pending) before reply returns.
        const std::vector<Tier::Pending> now = std::move(pending);
        pending.clear();
        const std::uint64_t v = 1;
        for (const Tier::Pending &p : now)
            tier.reply(p, &v, sizeof(v));
    }
};

TEST(Tier, SimpleDeferredBlocksDispatchUntilReply)
{
    DaggerSystem sys;
    Tier front(sys, "front", 1, 1);
    Tier back(sys, "back", 0, 1);
    DeferredEcho echo{back, usToTicks(3), {}};
    echo.install();
    auto &client = front.connectTo(back);
    int done = 0;
    for (std::uint64_t v = 0; v < 2; ++v)
        client.callPod(kFn, v, [&](const proto::RpcMessage &) { ++done; });

    sys.eq().runFor(usToTicks(200));
    // The first request's work ran; the second is still in the RX
    // ring behind the blocked dispatch loop.
    EXPECT_EQ(echo.calls, 1);
    EXPECT_EQ(echo.worked, 1);
    EXPECT_EQ(done, 0);

    echo.replyAll();
    sys.eq().runFor(usToTicks(200));
    EXPECT_EQ(echo.calls, 2);
    EXPECT_EQ(done, 1);

    echo.replyAll();
    sys.eq().runFor(usToTicks(200));
    EXPECT_EQ(done, 2);
    // The deferred cost ran on the dispatch thread.
    EXPECT_GE(back.dispatchThread().busyTicks(), usToTicks(6));
}

TEST(Tier, OptimizedDeferredKeepsDispatchFree)
{
    DaggerSystem sys;
    Tier front(sys, "front", 1, 1);
    Tier back(sys, "back", 0, 2);
    back.useWorkerPool(1u);
    DeferredEcho echo{back, usToTicks(50), {}};
    echo.install();
    auto &client = front.connectTo(back);
    int done = 0;
    for (std::uint64_t v = 0; v < 4; ++v)
        client.callPod(kFn, v, [&](const proto::RpcMessage &) { ++done; });

    sys.eq().runFor(usToTicks(500));
    // No reply yet, yet every request was dispatched and its work ran
    // on the worker.
    EXPECT_EQ(echo.calls, 4);
    EXPECT_EQ(echo.worked, 4);
    EXPECT_EQ(back.workerPool()->submitted(), 4u);
    EXPECT_GE(back.ownCore(1).thread(0).busyTicks(), usToTicks(200));
    EXPECT_LT(back.dispatchThread().busyTicks(), usToTicks(20));

    echo.replyAll();
    sys.eq().runFor(usToTicks(200));
    EXPECT_EQ(done, 4);
}

TEST(Tier, ServiceHistogramRecordsEachChargedCost)
{
    DaggerSystem sys;
    Tier front(sys, "front", 2, 1);
    Tier leaf(sys, "leaf", 0, 1);
    Tier deferred(sys, "deferred", 0, 1);
    leaf.serve(kFn, [](const proto::RpcMessage &req) {
        HandlerOutcome out;
        out.response = req.payload();
        out.cost = usToTicks(7);
        return out;
    });
    DeferredEcho echo{deferred, usToTicks(11), {}};
    echo.install();
    auto &to_leaf = front.connectTo(leaf);
    auto &to_deferred = front.connectTo(deferred);
    for (std::uint64_t v = 0; v < 3; ++v) {
        to_leaf.callPod(kFn, v);
        to_deferred.callPod(kFn, v);
        sys.eq().runFor(usToTicks(100));
        echo.replyAll();
    }
    sys.eq().runFor(usToTicks(100));

    EXPECT_EQ(leaf.service().count(), 3u);
    EXPECT_EQ(leaf.service().min(), usToTicks(7));
    EXPECT_EQ(leaf.service().max(), usToTicks(7));
    EXPECT_EQ(deferred.service().count(), 3u);
    EXPECT_EQ(deferred.service().min(), usToTicks(11));
    EXPECT_EQ(deferred.service().max(), usToTicks(11));
    EXPECT_EQ(front.service().count(), 0u);
}

} // namespace
