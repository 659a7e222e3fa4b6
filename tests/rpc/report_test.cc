/**
 * @file
 * Report tests: every value reportSystemJson() exports must equal the
 * component accessor it is registered for, and the export must carry
 * the detail metrics alongside the headline ones.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
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

/**
 * Parse reportSystemJson()'s "metrics" object into name -> raw value
 * token.  Histogram summaries flatten to "<name>.<field>".
 */
std::map<std::string, std::string>
parseMetrics(const std::string &json)
{
    std::map<std::string, std::string> out;
    const char *const open = "\"metrics\": {";
    std::size_t i = json.find(open);
    if (i == std::string::npos)
        return out;
    i += std::strlen(open);
    std::string histogram; // "<name>." while inside a histogram object
    while (i < json.size()) {
        const char c = json[i];
        if (c == ' ' || c == '\n' || c == ',') {
            ++i;
        } else if (c == '}') {
            if (histogram.empty())
                break;
            histogram.clear();
            ++i;
        } else if (c == '"') {
            const std::size_t end = json.find('"', i + 1);
            const std::string key = json.substr(i + 1, end - i - 1);
            i = json.find_first_not_of(" :", end + 1);
            if (json[i] == '{') {
                histogram = key + ".";
                ++i;
                continue;
            }
            const std::size_t stop = json.find_first_of(",}\n", i);
            out[histogram + key] = json.substr(i, stop - i);
            i = stop;
        } else {
            ADD_FAILURE() << "unexpected '" << c << "' at offset " << i;
            break;
        }
    }
    return out;
}

/**
 * Read every headline statistic straight from its component and
 * compare it with the parsed JSON export, so a registration that
 * points at the wrong member fails here.
 */
void
expectJsonMatchesComponents(DaggerSystem &sys)
{
    const auto metrics = parseMetrics(reportSystemJson(sys));
    const auto value = [&metrics](const std::string &name) {
        const auto it = metrics.find(name);
        return it == metrics.end() ? "<missing " + name + ">" : it->second;
    };
    const auto u = [](std::uint64_t v) { return std::to_string(v); };
    const auto d = [](double v) { return sim::jsonNumber(v); };

    const sim::Tick now = sys.eq().now();
    EXPECT_EQ(value("fabric.to_nic.utilization"),
              d(sys.fabric().toNicChannel().utilization(now)));
    EXPECT_EQ(value("fabric.to_host.utilization"),
              d(sys.fabric().toHostChannel().utilization(now)));
    EXPECT_EQ(value("fabric.to_nic.lines"),
              u(sys.fabric().toNicChannel().linesServiced()));
    EXPECT_EQ(value("fabric.to_host.lines"),
              u(sys.fabric().toHostChannel().linesServiced()));
    EXPECT_EQ(value("tor.forwarded"), u(sys.tor().forwarded()));
    EXPECT_EQ(value("tor.dropped"), u(sys.tor().dropped()));
    EXPECT_EQ(value("events_executed"), u(sys.eq().executed()));

    for (std::size_t n = 0; n < sys.numNodes(); ++n) {
        DaggerNode &node = sys.node(n);
        nic::DaggerNic &dev = node.nicDev();
        const auto &mon = dev.monitor();
        const std::string p = "node" + std::to_string(n) + ".";
        EXPECT_EQ(value(p + "nic.rpcs_out"), u(mon.rpcsOut.value()));
        EXPECT_EQ(value(p + "nic.rpcs_in"), u(mon.rpcsIn.value()));
        EXPECT_EQ(value(p + "nic.frames_fetched"),
                  u(mon.framesFetched.value()));
        EXPECT_EQ(value(p + "nic.frames_posted"),
                  u(mon.framesPosted.value()));
        EXPECT_EQ(value(p + "nic.bytes_out"), u(mon.bytesOut.value()));
        EXPECT_EQ(value(p + "nic.bytes_in"), u(mon.bytesIn.value()));
        EXPECT_EQ(value(p + "nic.drops_no_connection"),
                  u(mon.dropsNoConnection.value()));
        EXPECT_EQ(value(p + "nic.drops_no_slot"),
                  u(mon.dropsNoSlot.value()));
        EXPECT_EQ(value(p + "nic.malformed"), u(mon.malformed.value()));
        EXPECT_EQ(value(p + "nic.timeout_flushes"),
                  u(mon.timeoutFlushes.value()));
        EXPECT_EQ(value(p + "nic.fetch_batch.p50"),
                  u(mon.fetchBatch.percentile(50)));
        const auto &cm = dev.connectionManager();
        const std::uint64_t lookups = cm.hits() + cm.misses();
        EXPECT_EQ(value(p + "nic.conn_cache.hit_rate"),
                  d(lookups == 0 ? 0.0
                                 : static_cast<double>(cm.hits()) /
                                       static_cast<double>(lookups)));
        EXPECT_EQ(value(p + "nic.hcc.hit_rate"), d(dev.hcc().hitRate()));
        for (unsigned f = 0; f < node.numFlows(); ++f)
            EXPECT_EQ(value(p + "flow" + std::to_string(f) + ".rx.drops"),
                      u(node.flow(f).rx.drops()));
    }
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

TEST(Report, JsonMatchesComponentAccessors)
{
    ReportRig rig;
    rig.traffic(7);
    ASSERT_GT(rig.sys.node(0).nicDev().monitor().rpcsOut.value(), 0u);
    expectJsonMatchesComponents(rig.sys);
}

TEST(Report, JsonMatchesComponentAccessorsOnIdleSystem)
{
    // Zero traffic exercises the 0/0 hit-rate and empty-histogram paths.
    ReportRig rig;
    expectJsonMatchesComponents(rig.sys);
}

TEST(Report, JsonExportsHiddenDetailMetrics)
{
    ReportRig rig;
    rig.traffic(5);
    const std::string json = reportSystemJson(rig.sys);
    EXPECT_NE(json.find("\"time_us\""), std::string::npos);
    // Headline metrics appear under their hierarchical names...
    EXPECT_NE(json.find("\"node0.nic.rpcs_out\""), std::string::npos);
    EXPECT_NE(json.find("\"tor.forwarded\""), std::string::npos);
    // ...and so do the per-port, per-ring and post-path detail metrics.
    EXPECT_NE(json.find("\"node0.nic.post_batch\""), std::string::npos);
    EXPECT_NE(json.find("\"fabric.port0.fetch_txns\""), std::string::npos);
    EXPECT_NE(json.find("\"node0.flow1.tx.pushed_frames\""),
              std::string::npos);
    // Histograms export the full summary object.
    EXPECT_NE(json.find("\"node0.nic.fetch_batch\": {\"count\""),
              std::string::npos);
}

} // namespace
