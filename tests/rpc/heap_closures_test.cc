/**
 * @file
 * Allocation-free dispatch on the steady-state RPC path: once an echo
 * rig is past warm-up, no scheduled event may carry a closure too big
 * for EventClosure's inline buffer.  EngineStats::heapClosures counts
 * every such event, so it must stop growing.  Covered on the two echo
 * shapes that stress different paths: one-frame UPI calls (per-RPC
 * client, server and CCI closures) and 86-frame doorbell-batched calls
 * (per-frame CCI transactions).
 */

#include <gtest/gtest.h>

#include "bench/harness.hh"

namespace {

using namespace dagger;

void
expectFlatAfterWarmup(const bench::EchoRig::Options &opt, unsigned window)
{
    bench::EchoRig rig(opt);
    rig.saturate(window, sim::msToTicks(1), sim::msToTicks(1));
    const std::uint64_t warm = rig.system().engineStats().heapClosures;
    std::uint64_t done0 = 0;
    for (unsigned t = 0; t < opt.threads; ++t)
        done0 += rig.client(t).responses();

    rig.system().runFor(sim::msToTicks(2));

    std::uint64_t done1 = 0;
    for (unsigned t = 0; t < opt.threads; ++t)
        done1 += rig.client(t).responses();
    EXPECT_GT(done1 - done0, 100u) << "the rig made no progress";
    EXPECT_EQ(rig.system().engineStats().heapClosures, warm)
        << "steady-state events fell back to heap closures";
}

TEST(HeapClosures, FlatAfterWarmupOn64ByteUpiEcho)
{
    bench::EchoRig::Options opt;
    opt.iface = ic::IfaceKind::Upi;
    opt.threads = 4;
    opt.payload = 48;
    expectFlatAfterWarmup(opt, 32);
}

TEST(HeapClosures, FlatAfterWarmupOn4KbDoorbellBatchEcho)
{
    bench::EchoRig::Options opt;
    opt.iface = ic::IfaceKind::DoorbellBatch;
    opt.threads = 2;
    opt.payload = 4096;
    opt.txRingEntries = 2048;
    opt.rxRingEntries = 2048;
    expectFlatAfterWarmup(opt, 8);
}

TEST(HeapClosures, CountsOversizedClosuresOnly)
{
    sim::EventQueue eq;
    int ran = 0;
    eq.schedule(1, [&ran] { ++ran; });
    struct Fat
    {
        int *ran;
        std::uint8_t pad[sim::EventClosure::kInlineBytes];
        void operator()() const { ++*ran; }
    };
    static_assert(!sim::EventClosure::fitsInline<Fat>());
    eq.schedule(2, Fat{&ran, {}});
    eq.runAll();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.stats().heapClosures, 1u);
}

} // namespace
