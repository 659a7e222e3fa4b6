/**
 * @file
 * Two-node rig for request-steering tests: a one-flow client NIC and
 * a server NIC with several flows and no server threads, so each
 * request stays in the RX ring the server NIC steered it to.
 */

#ifndef DAGGER_TESTS_NIC_STEERING_RIG_HH
#define DAGGER_TESTS_NIC_STEERING_RIG_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "rpc/client.hh"
#include "rpc/system.hh"

namespace dagger::test {

struct SteeringRig
{
    explicit SteeringRig(unsigned server_flows = 4)
        : sys(ic::IfaceKind::Upi), cpus(sys.eq(), 1)
    {
        nic::SoftConfig soft;
        soft.batchSize = 1; // post every request as it arrives
        nic::NicConfig client_cfg;
        client_cfg.numFlows = 1;
        nic::NicConfig server_cfg;
        server_cfg.numFlows = server_flows;
        clientNode = &sys.addNode(client_cfg, soft);
        serverNode = &sys.addNode(server_cfg, soft);
        client = std::make_unique<rpc::RpcClient>(*clientNode, 0,
                                                  cpus.core(0).thread(0));
    }

    /** Open a connection whose server-side tuple is (@p server_flow,
     *  @p lb). */
    proto::ConnId
    connect(nic::LbScheme lb, unsigned server_flow = 0)
    {
        return sys.connect(*clientNode, 0, *serverNode, server_flow, lb);
    }

    nic::DaggerNic &serverNic() { return serverNode->nicDev(); }

    /**
     * Send one request of @p len bytes at @p data on @p conn and
     * return the server flow whose RX ring it reached, or -1 if it
     * reached none.  The request's bytes are checked on arrival.
     */
    int
    send(proto::ConnId conn, const void *data, std::size_t len)
    {
        client->setConnection(conn);
        client->callOneWay(1, data, len);
        sys.runFor(sim::usToTicks(20));
        int landed = -1;
        for (unsigned f = 0; f < serverNode->numFlows(); ++f) {
            proto::RpcMessage msg;
            while (serverNode->flow(f).rx.popMessage(msg)) {
                EXPECT_EQ(landed, -1) << "one request, two arrivals";
                EXPECT_EQ(msg.payload().size(), len);
                landed = static_cast<int>(f);
            }
        }
        return landed;
    }

    /** send() with the bytes of POD @p value as the payload. */
    template <typename T>
    int
    sendPod(proto::ConnId conn, const T &value)
    {
        return send(conn, &value, sizeof(T));
    }

    rpc::DaggerSystem sys;
    rpc::CpuSet cpus;
    rpc::DaggerNode *clientNode;
    rpc::DaggerNode *serverNode;
    std::unique_ptr<rpc::RpcClient> client;
};

} // namespace dagger::test

#endif // DAGGER_TESTS_NIC_STEERING_RIG_HH
