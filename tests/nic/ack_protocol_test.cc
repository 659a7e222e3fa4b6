/**
 * @file
 * AckProtocol tests: acknowledgement flow, retransmission after
 * drops, retry exhaustion, transparency to the RPC layer and to the
 * Packet Monitor.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "net/fault_injector.hh"
#include "nic/ack_protocol.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

struct AckRig
{
    /**
     * @param mtu_frames protocol fragmentation MTU (0 = no fragmenting)
     * @param reliable   enable the AckProtocol on both NICs; without it
     *                   clientAck and serverAck stay null
     */
    explicit AckRig(std::size_t mtu_frames = 0, bool reliable = true)
        : sys(ic::IfaceKind::Upi), cpus(sys.eq(), 2)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 1;
        nic::SoftConfig soft;
        soft.autoBatch = true;

        clientNode = &sys.addNode(cfg, soft);
        serverNode = &sys.addNode(cfg, soft);

        if (reliable) {
            clientAck = &clientNode->nicDev().enableAck(usToTicks(20), 4,
                                                        mtu_frames);
            serverAck = &serverNode->nicDev().enableAck(usToTicks(20), 4,
                                                        mtu_frames);
        }

        client = std::make_unique<RpcClient>(*clientNode, 0,
                                             cpus.core(0).thread(0));
        client->setConnection(sys.connect(*clientNode, 0, *serverNode, 0,
                                          nic::LbScheme::Static));
        server = std::make_unique<RpcThreadedServer>(*serverNode);
        server->addThread(0, cpus.core(1).thread(0));
        server->registerHandler(1, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(40);
            return out;
        });
    }

    DaggerSystem sys;
    CpuSet cpus;
    DaggerNode *clientNode;
    DaggerNode *serverNode;
    nic::AckProtocol *clientAck = nullptr;
    nic::AckProtocol *serverAck = nullptr;
    std::unique_ptr<RpcClient> client;
    std::unique_ptr<RpcThreadedServer> server;
};

TEST(AckProtocol, TransparentOnLosslessNetwork)
{
    AckRig rig;
    std::uint64_t done = 0;
    for (int i = 0; i < 20; ++i) {
        std::uint64_t v = i;
        rig.client->callPod(1, v,
                            [&](const proto::RpcMessage &) { ++done; });
    }
    rig.sys.eq().runFor(usToTicks(500));
    EXPECT_EQ(done, 20u);
    // Every data packet was acked; nothing pending or retransmitted.
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
    EXPECT_EQ(rig.serverAck->unacked(), 0u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 0u);
    EXPECT_EQ(rig.clientAck->acksReceived(), 20u); // requests acked
    EXPECT_EQ(rig.serverAck->acksReceived(), 20u); // responses acked
}

TEST(AckProtocol, RetriesThenGivesUpOnPersistentLoss)
{
    AckRig rig;
    // Persistent loss: the server's link swallows every copy of the
    // request; the client retries up to its budget, then records the
    // loss and cleans up.
    net::FaultSpec spec;
    spec.dropP = 1.0;
    net::FaultInjector fi(rig.sys.eq(), spec);
    fi.install(rig.sys.tor().attach(rig.serverNode->id()));
    std::uint64_t done = 0;
    std::uint64_t v = 7;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.sys.eq().runFor(usToTicks(500));
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 4u); // max retries
    EXPECT_EQ(rig.clientAck->lost(), 1u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u); // gave up cleanly
    EXPECT_EQ(fi.droppedCount(), 5u);        // the request, 4 resends
}

TEST(AckProtocol, RecoversFromTransientLoss)
{
    AckRig rig;
    // Drop the first two copies of the request; the second
    // retransmission gets through and the RPC completes end to end.
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.serverNode->id()));
    fi.scriptDrop(1);
    fi.scriptDrop(2);
    std::uint64_t done = 0;
    std::uint64_t v = 9;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 9u);
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(500));
    EXPECT_EQ(done, 1u);
    EXPECT_GE(rig.clientAck->retransmissions(), 2u);
    EXPECT_EQ(rig.clientAck->lost(), 0u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
}

TEST(AckProtocol, AckArrivesBeforeRetransmitTimer)
{
    AckRig rig;
    std::uint64_t v = 1;
    rig.client->callPod(1, v);
    // Run less than the 20us timer: the ACK (RTT ~2us) beats it.
    rig.sys.eq().runFor(usToTicks(10));
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 0u);
}

TEST(AckProtocol, AckFramesDoNotReachTheRpcLayer)
{
    AckRig rig;
    std::uint64_t done = 0;
    for (int i = 0; i < 10; ++i) {
        std::uint64_t v = i;
        rig.client->callPod(1, v,
                            [&](const proto::RpcMessage &) { ++done; });
    }
    rig.sys.eq().runFor(usToTicks(300));
    EXPECT_EQ(done, 10u);
    // The server processed exactly the data RPCs (ACKs consumed by
    // the protocol before the pipeline).
    EXPECT_EQ(rig.server->totalProcessed(), 10u);
    EXPECT_EQ(rig.serverNode->nicDev().monitor().malformed.value(), 0u);
}

TEST(AckProtocol, CountsAcksSymmetrically)
{
    AckRig rig;
    std::uint64_t v = 3;
    rig.client->callPod(1, v);
    rig.sys.eq().runFor(usToTicks(100));
    // One request (server acks it) + one response (client acks it).
    EXPECT_EQ(rig.serverAck->acksSent(), 1u);
    EXPECT_EQ(rig.clientAck->acksSent(), 1u);
    EXPECT_EQ(rig.clientAck->acksReceived(), 1u);
    EXPECT_EQ(rig.serverAck->acksReceived(), 1u);
}

// Regression (at-most-once): an ACK that is delayed — not lost — past
// the retransmit timer triggers a resend the receiver must re-ACK but
// NOT re-deliver.  The pre-fix protocol forwarded the duplicate to the
// RPC pipeline, so the server handler ran twice per call.
TEST(AckProtocol, DelayedAckTriggersRetransmitButNoDuplicateDelivery)
{
    AckRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.clientNode->id()));
    // First packet to arrive at the client is the request's ACK;
    // hold it past the 20us retransmit timer.
    fi.scriptDelay(1, usToTicks(30));

    std::uint64_t done = 0;
    std::uint64_t v = 11;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(done, 1u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 1u);
    // The duplicate was re-ACKed, never re-delivered.
    EXPECT_EQ(rig.server->totalProcessed(), 1u);
    EXPECT_GE(rig.serverAck->dupSuppressed(), 1u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
    EXPECT_EQ(rig.serverAck->unacked(), 0u);
}

// Regression (pending-key collision): with per-packet sequence keys a
// multi-fragment RPC keeps one retransmission entry per fragment; the
// pre-fix key (conn, rpc, type) made fragments overwrite each other,
// so one fragment's ACK cleared them all and a dropped middle fragment
// was never retransmitted.
TEST(AckProtocol, DroppedMiddleFragmentRetransmitsAndDeliversOnce)
{
    AckRig rig(/*mtu_frames=*/1); // every frame is its own packet
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.serverNode->id()));
    fi.scriptDrop(2); // the middle fragment of the 3-packet request

    struct Big
    {
        std::array<std::uint8_t, 120> bytes; // 3 frames of payload
    } big;
    for (std::size_t i = 0; i < big.bytes.size(); ++i)
        big.bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);

    std::uint64_t done = 0;
    rig.client->callPod(1, big, [&](const proto::RpcMessage &resp) {
        Big out{};
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out.bytes, big.bytes); // intact after reassembly
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(done, 1u);
    // Only the dropped fragment was resent, and the message was
    // delivered exactly once.
    EXPECT_EQ(rig.clientAck->retransmissions(), 1u);
    EXPECT_EQ(rig.clientAck->lost(), 0u);
    EXPECT_EQ(rig.server->totalProcessed(), 1u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
    EXPECT_EQ(rig.serverAck->unacked(), 0u);
}

// ACK loss (not data loss): the data got through, its ACK did not.
// The retransmitted copy must be deduplicated — exactly one delivery.
TEST(AckProtocol, LostAckRetransmitIsDeduplicated)
{
    AckRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.clientNode->id()));
    // First packet to arrive at the client is the request's ACK.
    fi.scriptDrop(1);

    std::uint64_t done = 0;
    std::uint64_t v = 5;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 5u);
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(done, 1u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 1u);
    EXPECT_EQ(rig.serverAck->dupSuppressed(), 1u);
    EXPECT_EQ(rig.server->totalProcessed(), 1u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u);
}

// Persistent ACK loss: the receiver keeps delivering (once) and
// re-ACKing, but the sender never hears it — the retry budget runs
// out, the loss is recorded, and the pending entry is reclaimed.
TEST(AckProtocol, AckLossExhaustionReportsLostAndReclaimsPending)
{
    AckRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.clientNode->id()));
    // The client's link carries the request's ACK, the response, then
    // one re-ACK per retransmit: drop every packet but the response.
    for (std::uint64_t nth : {1, 3, 4, 5, 6})
        fi.scriptDrop(nth);

    std::uint64_t done = 0;
    std::uint64_t v = 6;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.sys.eq().runFor(usToTicks(500));

    // The data (and the response) went through exactly once...
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(rig.server->totalProcessed(), 1u);
    EXPECT_EQ(rig.serverAck->dupSuppressed(), 4u); // every retransmit
    // ...but the sender, deaf to ACKs, exhausted its budget.
    EXPECT_EQ(rig.clientAck->retransmissions(), 4u);
    EXPECT_EQ(rig.clientAck->lost(), 1u);
    EXPECT_EQ(rig.clientAck->unacked(), 0u); // reclaimed
    EXPECT_EQ(rig.clientAck->acksReceived(), 0u);
    EXPECT_EQ(fi.droppedCount(), 5u);
}

// A corrupted frame must fail the ingress checksum gate *before* the
// ACK, so the sender sees a loss and retransmits a clean copy.
TEST(AckProtocol, CorruptedFrameLooksLikeLossAndRecovers)
{
    AckRig rig;
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.serverNode->id()));
    fi.scriptCorrupt(1); // flip a payload byte of the request

    std::uint64_t done = 0;
    std::uint64_t v = 8;
    rig.client->callPod(1, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 8u); // the clean retransmission won
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(500));

    EXPECT_EQ(done, 1u);
    EXPECT_EQ(rig.serverAck->corruptDropped(), 1u);
    EXPECT_EQ(rig.clientAck->retransmissions(), 1u);
    EXPECT_EQ(rig.server->totalProcessed(), 1u);
}

// The Packet Monitor counts RPC messages, not wire packets: ACKs,
// fragments and retransmissions live below it.  A lossy run with
// fragmenting reliability on both NICs must read exactly what the same
// calls read with no loss and no reliability.
TEST(NicMonitor, ReliabilityTrafficIsNotCountedAsRpcs)
{
    struct Big
    {
        std::array<std::uint8_t, 4 * proto::kFramePayload> bytes; // 4 frames
    };
    // {rpcsOut, bytesOut, rpcsIn, bytesIn}
    auto counts = [](const nic::DaggerNic &dev) {
        const nic::PacketMonitor &m = dev.monitor();
        return std::array<std::uint64_t, 4>{
            m.rpcsOut.value(), m.bytesOut.value(), m.rpcsIn.value(),
            m.bytesIn.value()};
    };
    auto echo = [](AckRig &rig) {
        std::uint64_t done = 0;
        for (int i = 0; i < 6; ++i) {
            Big big;
            big.bytes.fill(static_cast<std::uint8_t>(i + 1));
            rig.client->callPod(1, big,
                                [&](const proto::RpcMessage &) { ++done; });
        }
        rig.sys.eq().runFor(usToTicks(500));
        EXPECT_EQ(done, 6u);
    };

    AckRig plain(/*mtu_frames=*/0, /*reliable=*/false);
    echo(plain);

    AckRig lossy(/*mtu_frames=*/2); // each 4-frame message is 2 packets
    net::FaultInjector fi(lossy.sys.eq());
    fi.install(lossy.sys.tor().attach(lossy.serverNode->id()));
    fi.scriptDrop(2); // the second fragment of the first request
    echo(lossy);

    EXPECT_EQ(fi.droppedCount(), 1u);
    EXPECT_GE(lossy.clientAck->retransmissions(), 1u);
    EXPECT_GT(lossy.clientAck->acksSent(), 0u);
    EXPECT_GT(lossy.serverAck->acksSent(), 0u);
    EXPECT_EQ(counts(plain.clientNode->nicDev())[0], 6u);
    EXPECT_EQ(counts(lossy.clientNode->nicDev()),
              counts(plain.clientNode->nicDev()));
    EXPECT_EQ(counts(lossy.serverNode->nicDev()),
              counts(plain.serverNode->nicDev()));
}

// Regression (hash quality): the pre-fix mix shifted the 32-bit conn
// id left by 34 into a 64-bit lane, so connection ids differing only
// in their top two bits hashed identically (0x40000000 << 34
// overflows to zero).  All four high-bit variants must now differ.
TEST(AckProtocol, KeyHashMixesHighConnectionIdBits)
{
    const std::uint32_t conns[] = {0x00000000u, 0x40000000u, 0x80000000u,
                                   0xc0000000u};
    std::set<std::size_t> hashes;
    for (std::uint32_t conn : conns)
        hashes.insert(nic::AckProtocol::hashKey(conn, 1));
    EXPECT_EQ(hashes.size(), 4u);
    // And the sequence number contributes too.
    EXPECT_NE(nic::AckProtocol::hashKey(1, 1),
              nic::AckProtocol::hashKey(1, 2));
}

} // namespace
