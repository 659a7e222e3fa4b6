/**
 * @file
 * Report tests: the MetricRegistry-driven reportSystem() must
 * reproduce the legacy hand-walked text byte for byte, and the JSON
 * report must export the hidden detail metrics too.
 *
 * The "legacy" renderer below is a verbatim re-implementation of the
 * pre-registry report code, kept here as the reference the generic
 * registry walk is diffed against.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "ic/cci_fabric.hh"
#include "net/tor_switch.hh"
#include "nic/dagger_nic.hh"
#include "rpc/client.hh"
#include "rpc/report.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

void
line(std::ostringstream &os, const std::string &key, std::uint64_t value)
{
    os << "  " << key;
    for (std::size_t i = key.size(); i < 28; ++i)
        os << ' ';
    os << value << "\n";
}

void
lineF(std::ostringstream &os, const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    os << "  " << key;
    for (std::size_t i = key.size(); i < 28; ++i)
        os << ' ';
    os << buf << "\n";
}

/** The pre-registry reportNic(), walked by hand. */
std::string
legacyReportNic(DaggerNode &node)
{
    std::ostringstream os;
    nic::DaggerNic &dev = node.nicDev();
    const auto &mon = dev.monitor();
    os << "nic" << node.id() << " (" << ic::ifaceName(dev.config().iface)
       << ", " << dev.config().numFlows << " flows)\n";
    line(os, "rpcs_out", mon.rpcsOut.value());
    line(os, "rpcs_in", mon.rpcsIn.value());
    line(os, "frames_fetched", mon.framesFetched.value());
    line(os, "frames_posted", mon.framesPosted.value());
    line(os, "bytes_out", mon.bytesOut.value());
    line(os, "bytes_in", mon.bytesIn.value());
    line(os, "drops_no_connection", mon.dropsNoConnection.value());
    line(os, "drops_no_slot", mon.dropsNoSlot.value());
    line(os, "malformed", mon.malformed.value());
    line(os, "timeout_flushes", mon.timeoutFlushes.value());
    line(os, "fetch_batch_p50", mon.fetchBatch.percentile(50));
    lineF(os, "conn_cache_hit_rate",
          dev.connectionManager().hits() +
                  dev.connectionManager().misses() ==
              0
              ? 0.0
              : static_cast<double>(dev.connectionManager().hits()) /
                    static_cast<double>(dev.connectionManager().hits() +
                                        dev.connectionManager().misses()));
    lineF(os, "hcc_hit_rate", dev.hcc().hitRate());
    for (unsigned f = 0; f < node.numFlows(); ++f)
        line(os, "flow" + std::to_string(f) + "_rx_drops",
             node.flow(f).rx.drops());
    return os.str();
}

/** The pre-registry reportSystem(), walked by hand. */
std::string
legacyReportSystem(DaggerSystem &sys)
{
    std::ostringstream os;
    const sim::Tick now = sys.eq().now();
    os << "=== dagger system report @ " << sim::ticksToUs(now)
       << " us simulated ===\n";
    lineF(os, "ccip_to_nic_utilization",
          sys.fabric().toNicChannel().utilization(now));
    lineF(os, "ccip_to_host_utilization",
          sys.fabric().toHostChannel().utilization(now));
    line(os, "ccip_lines_to_nic",
         sys.fabric().toNicChannel().linesServiced());
    line(os, "ccip_lines_to_host",
         sys.fabric().toHostChannel().linesServiced());
    line(os, "tor_forwarded", sys.tor().forwarded());
    line(os, "tor_dropped", sys.tor().dropped());
    line(os, "events_executed", sys.eq().executed());
    for (std::size_t n = 0; n < sys.numNodes(); ++n)
        os << legacyReportNic(sys.node(n));
    return os.str();
}

struct ReportRig
{
    ReportRig() : sys(ic::IfaceKind::Upi), cpus(sys.eq(), 2)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 2;
        cnode = &sys.addNode(cfg);
        snode = &sys.addNode(cfg);
        client = std::make_unique<RpcClient>(*cnode, 0,
                                             cpus.core(0).thread(0));
        client->setConnection(sys.connect(*cnode, 0, *snode, 0));
        server = std::make_unique<RpcThreadedServer>(*snode);
        server->addThread(0, cpus.core(1).thread(0));
        server->registerHandler(1, [](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(20);
            return out;
        });
    }

    void
    traffic(int n)
    {
        for (int i = 0; i < n; ++i) {
            std::uint64_t v = static_cast<std::uint64_t>(i);
            client->callPod(1, v);
        }
        sys.eq().runFor(usToTicks(300));
    }

    DaggerSystem sys;
    CpuSet cpus;
    DaggerNode *cnode;
    DaggerNode *snode;
    std::unique_ptr<RpcClient> client;
    std::unique_ptr<RpcThreadedServer> server;
};

TEST(Report, RegistryWalkMatchesLegacyByteForByte)
{
    ReportRig rig;
    rig.traffic(7);
    EXPECT_EQ(reportSystem(rig.sys), legacyReportSystem(rig.sys));
}

TEST(Report, RegistryWalkMatchesLegacyOnIdleSystem)
{
    // Zero traffic exercises the 0/0 hit-rate and empty-histogram paths.
    ReportRig rig;
    EXPECT_EQ(reportSystem(rig.sys), legacyReportSystem(rig.sys));
}

TEST(Report, PerNicReportIsTheScopedWalk)
{
    ReportRig rig;
    rig.traffic(3);
    EXPECT_EQ(reportNic(rig.sys.node(0)), legacyReportNic(rig.sys.node(0)));
    EXPECT_EQ(reportNic(rig.sys.node(1)), legacyReportNic(rig.sys.node(1)));
    EXPECT_EQ(reportNic(rig.sys.node(0)),
              rig.sys.metrics().renderText("node0"));
}

TEST(Report, JsonExportsHiddenDetailMetrics)
{
    ReportRig rig;
    rig.traffic(5);
    const std::string json = reportSystemJson(rig.sys);
    EXPECT_NE(json.find("\"time_us\""), std::string::npos);
    // Text-visible metrics appear under their hierarchical names...
    EXPECT_NE(json.find("\"node0.nic.rpcs_out\""), std::string::npos);
    EXPECT_NE(json.find("\"tor.forwarded\""), std::string::npos);
    // ...and so do detail metrics the text report never printed.
    EXPECT_NE(json.find("\"node0.nic.post_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"fabric.port0.fetch_txns\""), std::string::npos);
    EXPECT_NE(json.find("\"node0.flow1.tx.pushed_frames\""),
              std::string::npos);
    // Histograms export the full summary object.
    EXPECT_NE(json.find("\"node0.nic.fetch_batch\": {\"count\""),
              std::string::npos);
}

} // namespace
