/**
 * @file
 * Steady-state heap budget of the RPC data path.  Dagger moves every
 * RPC as 64 B frames through fixed rings and a fixed request buffer;
 * the model's queues and frame bursts likewise reuse their storage
 * once warm.  This executable replaces the global operator new to
 * count calls, drives the two echo rigs that stress different paths
 * (one-frame UPI calls, 86-frame doorbell-batched calls) past warm-up,
 * and holds operator new calls per completed RPC under a budget.
 *
 * The budgets sit a little above what the current frame path measures
 * (docs/PERF.md, "Allocation-free frame path"); per-hop deques and
 * frame vectors cost several times more, so a regression to them
 * fails here.  It is its own executable because replacing operator new
 * is process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

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

/** operator new calls per RPC completed after warm-up. */
double
newCallsPerRpc(const bench::EchoRig::Options &opt, unsigned window)
{
    bench::EchoRig rig(opt);
    rig.saturate(window, sim::msToTicks(1), sim::msToTicks(1));
    auto responses = [&] {
        std::uint64_t done = 0;
        for (unsigned t = 0; t < opt.threads; ++t)
            done += rig.client(t).responses();
        return done;
    };
    const std::uint64_t done0 = responses();
    const std::uint64_t new0 = gNewCalls.load(std::memory_order_relaxed);

    rig.system().runFor(sim::msToTicks(2));

    const std::uint64_t calls =
        gNewCalls.load(std::memory_order_relaxed) - new0;
    const std::uint64_t done = responses() - done0;
    EXPECT_GT(done, 100u) << "the rig made no progress";
    return static_cast<double>(calls) / static_cast<double>(done);
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

} // namespace
