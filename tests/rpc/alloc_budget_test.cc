/**
 * @file
 * Steady-state heap budget of the RPC data path.  Dagger moves every
 * RPC as 64 B frames through fixed rings and a fixed request buffer;
 * the model's queues and frame bursts likewise reuse their storage
 * once warm.  This executable replaces the global operator new to
 * count calls, drives the two echo rigs that stress different paths
 * (one-frame UPI calls, 86-frame doorbell-batched calls) past warm-up,
 * and holds operator new calls per completed RPC under a budget.  The
 * software baseline (SoftRpcNode, Table 3's eRPC row) gets a budget
 * too: it parks each call in a slot table instead of threading it
 * through heap-allocated callbacks.
 *
 * The budgets sit a little above what the current paths measure
 * (docs/PERF.md, "Allocation-free frame path" and "One closure
 * path"); per-hop deques, frame vectors and per-hop std::function
 * chains cost several times more, so a regression to them fails here.
 * It is its own executable because replacing operator new is
 * process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "baseline/soft_rpc_node.hh"
#include "bench/harness.hh"

namespace {

std::atomic<std::uint64_t> gNewCalls{0};

void *
countedAlloc(std::size_t n)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dagger;

/** operator new calls per response while @p run_for advances a warm
 *  rig by 2 ms; @p responses counts the responses so far. */
template <typename RunFor, typename Responses>
double
newCallsPerResponse(RunFor run_for, Responses responses)
{
    const std::uint64_t done0 = responses();
    const std::uint64_t new0 = gNewCalls.load(std::memory_order_relaxed);

    run_for(sim::msToTicks(2));

    const std::uint64_t calls =
        gNewCalls.load(std::memory_order_relaxed) - new0;
    const std::uint64_t done = responses() - done0;
    EXPECT_GT(done, 100u) << "the rig made no progress";
    return static_cast<double>(calls) / static_cast<double>(done);
}

/** operator new calls per RPC completed after warm-up. */
double
newCallsPerRpc(const bench::EchoRig::Options &opt, unsigned window)
{
    bench::EchoRig rig(opt);
    rig.saturate(window, sim::msToTicks(1), sim::msToTicks(1));
    return newCallsPerResponse(
        [&](sim::Tick t) { rig.system().runFor(t); },
        [&] {
            std::uint64_t done = 0;
            for (unsigned t = 0; t < opt.threads; ++t)
                done += rig.client(t).responses();
            return done;
        });
}

TEST(AllocBudget, CountsOperatorNew)
{
    // A direct call: new-expressions may be elided, calls may not.
    const std::uint64_t before = gNewCalls.load();
    void *p = ::operator new(16);
    ::operator delete(p);
    EXPECT_EQ(gNewCalls.load() - before, 1u);
}

TEST(AllocBudget, SixtyFourByteUpiEcho)
{
    bench::EchoRig::Options opt;
    opt.iface = ic::IfaceKind::Upi;
    opt.threads = 4;
    opt.payload = 48;
    const double per_rpc = newCallsPerRpc(opt, 32);
    std::printf("64 B UPI echo: %.2f operator new calls per RPC\n", per_rpc);
    EXPECT_LE(per_rpc, 1.5);
}

TEST(AllocBudget, FourKbDoorbellBatchEcho)
{
    bench::EchoRig::Options opt;
    opt.iface = ic::IfaceKind::DoorbellBatch;
    opt.threads = 2;
    opt.payload = 4096;
    opt.txRingEntries = 2048;
    opt.rxRingEntries = 2048;
    const double per_rpc = newCallsPerRpc(opt, 8);
    std::printf("4 KB doorbell echo: %.2f operator new calls per RPC\n",
                per_rpc);
    EXPECT_LE(per_rpc, 17.0);
}

TEST(AllocBudget, SoftRpcNodeErpcEcho)
{
    sim::EventQueue eq;
    rpc::CpuSet cpus(eq, 2);
    const auto params = baseline::paramsFor(baseline::SoftStack::Erpc);
    baseline::SoftRpcNode client(eq, params, cpus.core(0).thread(0));
    baseline::SoftRpcNode server(eq, params, cpus.core(1).thread(0));
    server.setHandler([](const baseline::Payload &req,
                         baseline::SoftRpcNode::Responder respond) {
        respond(baseline::Payload(req), sim::nsToTicks(30));
    });
    // Closed loop, window 24, 48 B payloads (one frame, held inline).
    std::uint64_t done = 0;
    std::function<void()> fire = [&] {
        client.call(server, baseline::Payload(48),
                    [&](const baseline::Payload &, sim::Tick) {
                        ++done;
                        fire();
                    });
    };
    for (int w = 0; w < 24; ++w)
        fire();
    eq.runFor(sim::msToTicks(1));
    const double per_rpc = newCallsPerResponse(
        [&](sim::Tick t) { eq.runFor(t); }, [&] { return done; });
    std::printf("SoftRpcNode eRPC echo: %.2f operator new calls per RPC\n",
                per_rpc);
    EXPECT_LE(per_rpc, 0.25);
}

} // namespace
