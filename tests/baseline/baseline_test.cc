/**
 * @file
 * Baseline-stack tests: parameter sanity against the published Table 3
 * anchors, echo RTT/throughput behaviour, breakdown accounting, and
 * many overlapping (and nested) calls each getting their own response.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "baseline/soft_rpc_node.hh"
#include "baseline/soft_stack.hh"
#include "rpc/cpu.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dagger;
using namespace dagger::baseline;
using sim::EventQueue;
using sim::Tick;
using sim::usToTicks;

// A closure carrying a call's payload and callback does not fit
// EventClosure, so it does not compile: that is why SoftRpcNode parks
// each call in a slot table.
struct Fat
{
    Payload payload;
    SoftRpcNode::Callback cb;
    void operator()() const {}
};
static_assert(!std::is_constructible_v<sim::EventClosure, Fat>);

/** A payload no other id produces: the id, then bytes derived from it.
 *  Lengths vary from 8 to 103 B, so both inline and heap buffers
 *  occur. */
Payload
tagged(std::uint32_t id)
{
    std::vector<std::uint8_t> bytes(8 + id % 96);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(id * 31 + i);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[i] = static_cast<std::uint8_t>(id >> (8 * i));
    return Payload(bytes.data(), bytes.size());
}

/** @p p with one byte @p b appended. */
Payload
withSuffix(const Payload &p, std::uint8_t b)
{
    std::vector<std::uint8_t> bytes(p.data(), p.data() + p.size());
    bytes.push_back(b);
    return Payload(bytes.data(), bytes.size());
}

TEST(SoftStackParams, Table3ThroughputAnchors)
{
    // Single-core Mrps implied by CPU costs vs Table 3.
    EXPECT_NEAR(paramsFor(SoftStack::DpdkIx).coreMrps(), 1.5, 0.15);
    EXPECT_NEAR(paramsFor(SoftStack::RdmaFasst).coreMrps(), 4.8, 0.5);
    EXPECT_NEAR(paramsFor(SoftStack::Erpc).coreMrps(), 4.96, 0.5);
    // Kernel TCP is far slower than any bypass stack.
    EXPECT_LT(paramsFor(SoftStack::LinuxTcp).coreMrps(), 0.5);
}

TEST(SoftStackParams, NamesStable)
{
    EXPECT_STREQ(stackName(SoftStack::DpdkIx), "IX");
    EXPECT_STREQ(stackName(SoftStack::Erpc), "eRPC");
    EXPECT_STREQ(stackName(SoftStack::RdmaFasst), "FaSST");
    EXPECT_STREQ(stackName(SoftStack::NetDimm), "NetDIMM");
}

struct EchoRig
{
    explicit EchoRig(SoftStack stack)
        : cpus(eq, 2),
          client(eq, paramsFor(stack), cpus.core(0).thread(0)),
          server(eq, paramsFor(stack), cpus.core(1).thread(0))
    {
        server.setHandler(
            [](const Payload &req, SoftRpcNode::Responder respond) {
                respond(Payload(req), sim::nsToTicks(50));
            });
    }

    EventQueue eq;
    rpc::CpuSet cpus;
    SoftRpcNode client;
    SoftRpcNode server;
};

Tick
medianEchoRtt(SoftStack stack)
{
    EchoRig rig(stack);
    sim::Histogram rtt;
    for (int i = 0; i < 32; ++i) {
        rig.eq.scheduleAt(usToTicks(i * 40), [&] {
            rig.client.call(rig.server, Payload(64),
                            [&](const Payload &, Tick t) {
                                rtt.record(t);
                            });
        });
    }
    rig.eq.runUntil(usToTicks(3000));
    EXPECT_EQ(rtt.count(), 32u);
    return rtt.percentile(50);
}

TEST(SoftRpcNode, RttAnchorsMatchTable3Shape)
{
    const Tick ix = medianEchoRtt(SoftStack::DpdkIx);
    const Tick fasst = medianEchoRtt(SoftStack::RdmaFasst);
    const Tick erpc = medianEchoRtt(SoftStack::Erpc);
    // Table 3: IX 11.4us >> FaSST 2.8us > eRPC 2.3us.
    EXPECT_NEAR(sim::ticksToUs(ix), 11.4, 2.5);
    EXPECT_NEAR(sim::ticksToUs(fasst), 2.8, 0.8);
    EXPECT_NEAR(sim::ticksToUs(erpc), 2.3, 0.7);
    EXPECT_GT(ix, fasst);
    EXPECT_GT(fasst, erpc);
}

TEST(SoftRpcNode, EchoPreservesPayload)
{
    // 128 calls leave at once; each completion issues one more while
    // the rest are still in flight, so freed slots are reused under
    // live ones.  Every call must get back its own payload.
    constexpr std::uint32_t kFirst = 128;
    EchoRig rig(SoftStack::Erpc);
    std::vector<int> answered(2 * kFirst, 0);
    std::function<void(std::uint32_t)> issue = [&](std::uint32_t id) {
        rig.client.call(rig.server, tagged(id),
                        [&, id](const Payload &resp, Tick) {
                            EXPECT_EQ(resp, tagged(id)) << "call " << id;
                            ++answered[id];
                            if (id < kFirst)
                                issue(id + kFirst);
                        });
    };
    for (std::uint32_t id = 0; id < kFirst; ++id)
        issue(id);
    rig.eq.runUntil(usToTicks(5000));
    EXPECT_EQ(answered, std::vector<int>(2 * kFirst, 1));
    EXPECT_EQ(rig.server.handled(), 2 * kFirst);
}

TEST(SoftRpcNode, ServedBreakdownAddsUp)
{
    EchoRig rig(SoftStack::LinuxTcp);
    rig.client.call(rig.server, Payload(64), [](const Payload &, Tick) {});
    rig.eq.runUntil(usToTicks(500));
    const auto &b = rig.server.served();
    ASSERT_EQ(b.total.count(), 1u);
    // (t3-t2) + (t4-t3) + (t6-t5-app) + (t5-t4) + app == t6-t2.
    const double sum = b.transport.mean() + b.rpc.mean() + b.app.mean();
    EXPECT_DOUBLE_EQ(sum, b.total.mean());
    // Transport time reflects the configured TCP receive cost.
    EXPECT_NEAR(b.transport.mean(),
                static_cast<double>(
                    paramsFor(SoftStack::LinuxTcp).transportRecvCpu),
                static_cast<double>(
                    paramsFor(SoftStack::LinuxTcp).transportRecvCpu) *
                    0.2);
}

TEST(SoftRpcNode, DeferredRespondersSupportNestedCalls)
{
    // 64 overlapping front-end calls; the mid tier fans each out to
    // three leaves with different handler costs, so legs of different
    // calls return interleaved, and answers once all three are back.
    // Each leaf appends its index to the request it saw.
    constexpr std::uint32_t kCalls = 64;
    constexpr std::uint8_t kLeaves = 3;
    EventQueue eq;
    rpc::CpuSet cpus(eq, 2 + kLeaves);
    const auto params = paramsFor(SoftStack::Erpc);
    SoftRpcNode frontend(eq, params, cpus.core(0).thread(0));
    SoftRpcNode mid(eq, params, cpus.core(1).thread(0));
    std::vector<std::unique_ptr<SoftRpcNode>> leaves;
    for (std::uint8_t k = 0; k < kLeaves; ++k) {
        leaves.push_back(std::make_unique<SoftRpcNode>(
            eq, params, cpus.core(2 + k).thread(0)));
        leaves[k]->setHandler(
            [k](const Payload &req, SoftRpcNode::Responder r) {
                r(withSuffix(req, k), sim::nsToTicks(100 + 400 * k));
            });
    }

    struct FanOut
    {
        Payload request;
        SoftRpcNode::Responder respond;
        unsigned pending = kLeaves;
    };
    mid.setHandler([&](const Payload &req, SoftRpcNode::Responder r) {
        auto f = std::make_shared<FanOut>(FanOut{req, std::move(r)});
        for (std::uint8_t k = 0; k < kLeaves; ++k) {
            mid.call(*leaves[k], Payload(req),
                     [f, k](const Payload &resp, Tick) {
                         EXPECT_EQ(resp, withSuffix(f->request, k));
                         if (--f->pending == 0)
                             f->respond(Payload(f->request),
                                        sim::nsToTicks(50));
                     });
        }
    });

    std::vector<int> answered(kCalls, 0);
    for (std::uint32_t id = 0; id < kCalls; ++id) {
        frontend.call(mid, tagged(id), [&, id](const Payload &resp, Tick) {
            EXPECT_EQ(resp, tagged(id)) << "call " << id;
            ++answered[id];
        });
    }
    eq.runUntil(usToTicks(5000));
    EXPECT_EQ(answered, std::vector<int>(kCalls, 1));
    for (const auto &leaf : leaves)
        EXPECT_EQ(leaf->handled(), kCalls);
}

TEST(SoftRpcNode, QueueingInflatesRpcComponentUnderLoad)
{
    // Saturate the server's app thread: RPC-layer wait (queueing for
    // the app thread) should dominate, as §3.1 observes.
    EchoRig rig(SoftStack::LinuxTcp);
    for (int i = 0; i < 200; ++i) {
        rig.eq.scheduleAt(usToTicks(i * 2), [&] {
            rig.client.call(rig.server, Payload(64),
                            [](const Payload &, Tick) {});
        });
    }
    rig.eq.runUntil(usToTicks(30000));
    const auto &b = rig.server.served();
    EXPECT_GT(b.rpc.percentile(99), b.transport.percentile(99));
    EXPECT_GT(b.rpc.percentile(99), 2 * b.rpc.percentile(5));
}

} // namespace
