/**
 * @file
 * RpcClient tests: one client per NIC flow calling concurrently into
 * an RpcThreadedServer (§4.2), completion accounting, best-effort
 * mode and the timeout/retry policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fault_injector.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

struct FlowsRig
{
    static constexpr unsigned kFlows = 4;

    FlowsRig() : sys(ic::IfaceKind::Upi), cpus(sys.eq(), kFlows + 2)
    {
        nic::NicConfig cfg;
        cfg.numFlows = kFlows;
        cnode = &sys.addNode(cfg);
        snode = &sys.addNode(cfg);

        server = std::make_unique<RpcThreadedServer>(*snode);
        for (unsigned f = 0; f < kFlows; ++f)
            server->addThread(f, cpus.core(1 + f).thread(0));
        server->registerHandler(1, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(40);
            return out;
        });

        for (unsigned f = 0; f < kFlows; ++f) {
            auto &cli = *clients.emplace_back(std::make_unique<RpcClient>(
                *cnode, f, cpus.core(0).thread(f % 2)));
            cli.setConnection(
                sys.connect(*cnode, f, *snode, f, nic::LbScheme::Static));
        }
    }

    RpcClient &client(unsigned f) { return *clients.at(f); }

    DaggerSystem sys;
    CpuSet cpus;
    DaggerNode *cnode;
    DaggerNode *snode;
    std::unique_ptr<RpcThreadedServer> server;
    std::vector<std::unique_ptr<RpcClient>> clients;
};

TEST(RpcClient, ConcurrentCallsAcrossFlowsAllComplete)
{
    FlowsRig rig;
    std::uint64_t done = 0;
    for (int i = 0; i < 40; ++i) {
        std::uint64_t v = i;
        rig.client(i % FlowsRig::kFlows)
            .callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    }
    rig.sys.eq().runFor(usToTicks(300));
    EXPECT_EQ(done, 40u);
    // Every client completed its share; every server thread served its
    // static flow.
    for (unsigned f = 0; f < FlowsRig::kFlows; ++f) {
        EXPECT_EQ(rig.client(f).responses(), 10u);
        EXPECT_EQ(rig.server->serverThread(f).processed(), 10u);
    }
}

// A call with no continuation still completes: it is counted once in
// responses(), latency() and the system's completions, its pending
// entry is reclaimed, and its response is released rather than kept.
TEST(RpcClient, CallsWithoutCallbackCompleteExactlyOnce)
{
    FlowsRig rig;
    for (int i = 0; i < 20; ++i) {
        std::uint64_t v = i;
        rig.client(i % FlowsRig::kFlows).callPod(1, v);
    }
    rig.sys.eq().runFor(usToTicks(300));
    for (unsigned f = 0; f < FlowsRig::kFlows; ++f) {
        RpcClient &cli = rig.client(f);
        EXPECT_EQ(cli.sent(), 5u);
        EXPECT_EQ(cli.responses(), 5u);
        EXPECT_EQ(cli.latency().count(), 5u);
        EXPECT_EQ(cli.pendingCalls(), 0u);
        EXPECT_EQ(cli.orphanResponses(), 0u);
        EXPECT_EQ(cli.lateResponses(), 0u);
        // A plausible RTT, not a zero or a stale clock.
        EXPECT_GT(cli.latency().percentile(50), usToTicks(1.0));
        EXPECT_LT(cli.latency().percentile(50), usToTicks(10.0));
    }
    EXPECT_EQ(rig.sys.reliability().completions, 20u);
    // Nothing completes a second time once the system is idle.
    rig.sys.eq().runFor(usToTicks(300));
    EXPECT_EQ(rig.sys.reliability().completions, 20u);
}

TEST(RpcClient, FlowsAreIndependentUnderImbalance)
{
    FlowsRig rig;
    // Flood flow 0 only; flow 3 stays fast.
    std::uint64_t done0 = 0, done3 = 0;
    for (int i = 0; i < 200; ++i) {
        std::uint64_t v = i;
        rig.client(0).callPod(
            1, v, [&](const proto::RpcMessage &) { ++done0; });
    }
    std::uint64_t v3 = 7;
    rig.client(3).callPod(
        1, v3, [&](const proto::RpcMessage &) { ++done3; });
    rig.sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(done3, 1u); // not stuck behind flow 0's backlog
    rig.sys.eq().runFor(usToTicks(500));
    EXPECT_EQ(done0, 200u);
}

// Regression: setBestEffort(true) must not wedge response processing
// for good.  The pre-fix toggle cleared the rx notify hook but never
// reinstalled it (and could leave _rxScheduled latched), so after
// switching best-effort back off no response was ever processed again.
TEST(RpcClient, BestEffortToggleRestoresResponseProcessing)
{
    FlowsRig rig;
    RpcClient &cli = rig.client(0);

    cli.setBestEffort(true);
    for (int i = 0; i < 5; ++i) {
        std::uint64_t v = i;
        cli.callPod(1, v); // fire-and-forget; responses pile up
    }
    rig.sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(cli.responses(), 0u); // nothing tracked, nothing drained

    cli.setBestEffort(false);
    rig.sys.eq().runFor(usToTicks(100));
    // The piled-up best-effort responses drained (as orphans: they
    // were never tracked)...
    EXPECT_EQ(cli.orphanResponses(), 5u);

    // ...and, critically, a new tracked call completes.
    std::uint64_t done = 0;
    std::uint64_t v = 77;
    cli.callPod(1, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 77u);
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(cli.responses(), 1u);
}

TEST(RpcClient, RetryResendsLostRequestAndCompletesOk)
{
    FlowsRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.snode->id()));
    fi.scriptDrop(1); // lose the first copy of the request

    RpcClient &cli = rig.client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(30);
    policy.maxRetries = 3;
    cli.setRetryPolicy(policy);

    std::uint64_t ok = 0;
    std::uint64_t v = 21;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::Ok);
                          std::uint64_t out = 0;
                          ASSERT_TRUE(resp.payloadAs(out));
                          EXPECT_EQ(out, 21u);
                          ++ok;
                      });
    rig.sys.eq().runFor(usToTicks(300));

    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cli.retriesSent(), 1u);
    EXPECT_EQ(cli.timeouts(), 0u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    // The system-wide reliability counters saw the retry + completion.
    const std::string json = rig.sys.metrics().renderJson();
    EXPECT_NE(json.find("\"rpc.reliability.retries\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"rpc.reliability.timeouts\": 0"),
              std::string::npos);
}

TEST(RpcClient, RetryBudgetExhaustionSurfacesTimedOut)
{
    FlowsRig rig;
    net::FaultSpec spec;
    spec.dropP = 1.0; // a dead link: nothing reaches the server
    net::FaultInjector fi(rig.sys.eq(), spec);
    fi.install(rig.sys.tor().attach(rig.snode->id()));

    RpcClient &cli = rig.client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 2;
    cli.setRetryPolicy(policy);

    std::uint64_t timed_out = 0;
    std::uint64_t v = 3;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::TimedOut);
                          EXPECT_EQ(resp.payloadLen(), 0u); // empty
                          ++timed_out;
                      });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(timed_out, 1u); // fired exactly once, not per retry
    EXPECT_EQ(cli.timeouts(), 1u);
    EXPECT_EQ(cli.retriesSent(), 2u);
    EXPECT_EQ(cli.pendingCalls(), 0u); // reclaimed, no silent orphan
}

TEST(RpcClient, LateResponseAfterTimeoutIsAccountedNotOrphaned)
{
    FlowsRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.cnode->id()));
    fi.scriptDelay(1, usToTicks(100)); // hold the response way too long

    RpcClient &cli = rig.client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 0; // no resends: time out on first expiry
    cli.setRetryPolicy(policy);

    std::uint64_t timed_out = 0;
    std::uint64_t v = 9;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &) {
                          if (st == CallStatus::TimedOut)
                              ++timed_out;
                      });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(timed_out, 1u);
    // The response eventually arrived — after the call completed as
    // timed out.  It is accounted as late, never as an unknown orphan,
    // and the continuation did not fire a second time.
    EXPECT_EQ(cli.lateResponses(), 1u);
    EXPECT_EQ(cli.orphanResponses(), 0u);
}

TEST(RpcClient, ExponentialBackoffStretchesRetryGaps)
{
    FlowsRig rig;
    net::FaultSpec spec;
    spec.dropP = 1.0;
    net::FaultInjector fi(rig.sys.eq(), spec);
    fi.install(rig.sys.tor().attach(rig.snode->id()));

    RpcClient &cli = rig.client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(10);
    policy.maxRetries = 3;
    policy.backoff = 2.0;
    policy.maxTimeout = usToTicks(25); // cap bites on the last gap
    cli.setRetryPolicy(policy);

    sim::Tick finished = 0;
    std::uint64_t v = 1;
    cli.callPodStatus(1, v,
                      [&](CallStatus, const proto::RpcMessage &) {
                          finished = rig.sys.eq().now();
                      });
    rig.sys.eq().runFor(usToTicks(500));

    // Gaps: 10, 20, 25 (capped from 40), 25 (capped from 80) -> 80us,
    // measured from when the first copy reached the TX ring (the
    // timeout clock starts at sentAt, not at issue time), so the total
    // is 80us plus the sub-microsecond first-send CPU cost.
    EXPECT_GT(finished, usToTicks(80));
    EXPECT_LT(finished, usToTicks(81));
    EXPECT_EQ(cli.retriesSent(), 3u);
    EXPECT_EQ(cli.timeouts(), 1u);
}

} // namespace
