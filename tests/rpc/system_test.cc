/**
 * @file
 * DaggerSystem-level tests: connection lifecycle, send-cost model
 * plumbing, SRQ sharing, orphan responses, stats reporting.
 */

#include <gtest/gtest.h>

#include "rpc/client.hh"
#include "rpc/report.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

struct SysRig
{
    SysRig() : sys(ic::IfaceKind::Upi), cpus(sys.eq(), 2)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 1;
        cnode = &sys.addNode(cfg);
        snode = &sys.addNode(cfg);
        client = std::make_unique<RpcClient>(*cnode, 0,
                                             cpus.core(0).thread(0));
        server = std::make_unique<RpcThreadedServer>(*snode);
        server->addThread(0, cpus.core(1).thread(0));
        server->registerHandler(1, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(20);
            return out;
        });
    }

    DaggerSystem sys;
    CpuSet cpus;
    DaggerNode *cnode;
    DaggerNode *snode;
    std::unique_ptr<RpcClient> client;
    std::unique_ptr<RpcThreadedServer> server;
};

TEST(DaggerSystem, DisconnectStopsTraffic)
{
    SysRig rig;
    auto conn = rig.sys.connect(*rig.cnode, 0, *rig.snode, 0);
    rig.client->setConnection(conn);
    std::uint64_t done = 0;
    std::uint64_t v = 1;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.sys.eq().runFor(usToTicks(100));
    ASSERT_EQ(done, 1u);

    rig.sys.disconnect(conn);
    rig.client->callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(done, 1u); // second call never completed
    EXPECT_EQ(rig.cnode->nicDev().monitor().dropsNoConnection.value(), 1u);
}

TEST(DaggerSystem, ConnectionIdsAreSequentialAndDistinct)
{
    SysRig rig;
    auto a = rig.sys.connect(*rig.cnode, 0, *rig.snode, 0);
    auto b = rig.sys.connect(*rig.cnode, 0, *rig.snode, 0);
    EXPECT_NE(a, b);
    EXPECT_EQ(b, a + 1);
}

TEST(DaggerSystem, SendCpuCostTracksInterfaceAndBatch)
{
    DaggerSystem upi(ic::IfaceKind::Upi);
    nic::SoftConfig b1;
    b1.batchSize = 1;
    nic::SoftConfig b4;
    b4.batchSize = 4;
    auto &n1 = upi.addNode({}, b1);
    auto &n4 = upi.addNode({}, b4);
    EXPECT_GT(upi.sendCpuCost(n1), upi.sendCpuCost(n4));

    DaggerSystem mmio(ic::IfaceKind::MmioWrite);
    auto &nm = mmio.addNode({}, b1);
    EXPECT_GT(mmio.sendCpuCost(nm), upi.sendCpuCost(n1));
}

TEST(DaggerSystem, SrqSharedClientChargesLockCost)
{
    // Two logical connections over one client (SRQ): lock cost makes
    // the shared client's per-send CPU strictly larger, observable as
    // lower saturation throughput.
    auto run = [](bool shared) {
        SysRig rig;
        rig.client->setConnection(
            rig.sys.connect(*rig.cnode, 0, *rig.snode, 0));
        rig.client->setSharedByThreads(shared);
        int done = 0;
        std::function<void()> fire = [&] {
            std::uint64_t v = 1;
            rig.client->callPod(1, v,
                                [&](const proto::RpcMessage &) {
                                    ++done;
                                    fire();
                                });
        };
        for (int w = 0; w < 32; ++w)
            fire();
        rig.sys.eq().runFor(sim::msToTicks(3));
        return done;
    };
    EXPECT_GT(run(false), run(true));
}

TEST(DaggerSystem, OrphanResponsesCounted)
{
    SysRig rig;
    // Two clients alternate on the same flow: the second client's
    // responses arrive at a ring the first client polls -> orphans.
    rig.client->setConnection(
        rig.sys.connect(*rig.cnode, 0, *rig.snode, 0));
    // Craft an orphan by injecting a response for an unknown rpc id.
    proto::RpcMessage fake(rig.client->connection(), 4242, 1,
                           proto::MsgType::Response, "x", 1);
    rig.cnode->flow(0).rx.deliver(fake.toFrames());
    rig.sys.eq().runFor(usToTicks(50));
    EXPECT_EQ(rig.client->orphanResponses(), 1u);
}

TEST(DaggerSystem, ReportContainsKeyCounters)
{
    SysRig rig;
    rig.client->setConnection(
        rig.sys.connect(*rig.cnode, 0, *rig.snode, 0));
    for (int i = 0; i < 5; ++i) {
        std::uint64_t v = i;
        rig.client->callPod(1, v);
    }
    rig.sys.eq().runFor(usToTicks(200));

    const std::string report = reportSystemJson(rig.sys);
    EXPECT_NE(report.find("\"time_us\""), std::string::npos);
    EXPECT_NE(report.find("\"tor.forwarded\""), std::string::npos);
    EXPECT_NE(report.find("\"node0.nic."), std::string::npos);
    EXPECT_NE(report.find("\"node1.nic."), std::string::npos);
    EXPECT_NE(report.find("\"node0.nic.conn_cache.hit_rate\""),
              std::string::npos);
    EXPECT_NE(report.find("\"node0.nic.hcc.hit_rate\""), std::string::npos);
    // The per-NIC rpc counters reflect the five round trips.
    EXPECT_NE(report.find("\"node0.nic.rpcs_out\": 5,"), std::string::npos);
}

TEST(DaggerSystemDeath, DisconnectUnknownConnection)
{
    SysRig rig;
    EXPECT_DEATH(rig.sys.disconnect(999), "unknown connection");
}

} // namespace
