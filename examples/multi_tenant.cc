/**
 * @file
 * NIC virtualization demo (§6, Fig. 14): several independent tenants
 * share one physical FPGA through per-tenant Dagger NIC instances,
 * arbitrated round-robin on the CCI-P bus and switched by the ToR
 * model.  Shows per-tenant isolation of connections, flows, and
 * statistics, plus fair bus sharing under contention.
 *
 * Build & run:  ./build/examples/multi_tenant
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "rpc/client.hh"
#include "rpc/report.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

int
main()
{
    using namespace dagger;
    constexpr unsigned kTenants = 3;
    constexpr int kRpcsPerTenant = 5000;

    rpc::DaggerSystem sys(ic::IfaceKind::Upi);
    rpc::CpuSet cpus(sys.eq(), 2 * kTenants);

    nic::NicConfig cfg;
    cfg.numFlows = 1;
    nic::SoftConfig soft;
    soft.batchSize = 4;

    struct Tenant
    {
        rpc::DaggerNode *client_node;
        rpc::DaggerNode *server_node;
        std::unique_ptr<rpc::RpcClient> client;
        std::unique_ptr<rpc::RpcThreadedServer> server;
        std::uint64_t done = 0;
    };
    std::vector<Tenant> tenants(kTenants);

    for (unsigned t = 0; t < kTenants; ++t) {
        Tenant &tn = tenants[t];
        // Each tenant gets its own pair of NIC instances on the same
        // physical FPGA ("virtual but physical" NICs).
        tn.client_node = &sys.addNode(cfg, soft);
        tn.server_node = &sys.addNode(cfg, soft);
        tn.client = std::make_unique<rpc::RpcClient>(
            *tn.client_node, 0, cpus.core(2 * t).thread(0));
        tn.client->setConnection(
            sys.connect(*tn.client_node, 0, *tn.server_node, 0));
        tn.server = std::make_unique<rpc::RpcThreadedServer>(
            *tn.server_node);
        tn.server->addThread(0, cpus.core(2 * t + 1).thread(0));
        tn.server->registerHandler(1, [](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            out.response = req.payload();
            out.cost = sim::nsToTicks(60);
            return out;
        });
    }

    // All tenants hammer the shared fabric simultaneously.
    for (unsigned t = 0; t < kTenants; ++t) {
        Tenant &tn = tenants[t];
        // Closed loop, window 8 per tenant.
        struct Driver : std::enable_shared_from_this<Driver>
        {
            Tenant *tn;
            int remaining;
            void
            fire()
            {
                if (remaining <= 0)
                    return;
                --remaining;
                std::uint64_t payload = 42;
                auto self = shared_from_this();
                tn->client->callPod(
                    1, payload, [self](const proto::RpcMessage &) {
                        ++self->tn->done;
                        self->fire();
                    });
            }
        };
        auto driver = std::make_shared<Driver>();
        driver->tn = &tn;
        driver->remaining = kRpcsPerTenant;
        for (int w = 0; w < 8; ++w)
            sys.eq().schedule(0, [driver] { driver->fire(); });
    }

    sys.eq().runFor(sim::msToTicks(200));

    std::printf("multi-tenant fabric: %u tenants, shared CCI-P arbiter\n",
                kTenants);
    bool ok = true;
    for (unsigned t = 0; t < kTenants; ++t) {
        const Tenant &tn = tenants[t];
        std::printf("  tenant %u: %llu/%d RPCs, median RTT %.2f us, "
                    "NIC drops %llu\n",
                    t, static_cast<unsigned long long>(tn.done),
                    kRpcsPerTenant,
                    sim::ticksToUs(tn.client->latency().percentile(50)),
                    static_cast<unsigned long long>(
                        tn.server_node->nicDev().monitor().drops()));
        ok = ok && tn.done == kRpcsPerTenant;
    }

    // Arbiter fairness: grants across ports should be near-equal.
    const auto &grants = sys.fabric().toNicChannel().grants();
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (auto g : grants) {
        lo = std::min(lo, g);
        hi = std::max(hi, g);
    }
    std::printf("  CCI-P arbiter grants per port: min=%llu max=%llu\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
    std::printf("\n%s", rpc::reportSystemJson(sys).c_str());
    return ok ? 0 : 1;
}
