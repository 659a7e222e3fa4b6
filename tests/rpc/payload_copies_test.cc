/**
 * @file
 * Zero-copy steady-state accounting: across a full echo pipeline
 * (client API -> TX ring -> NIC fetch -> switch -> RX -> reassembly ->
 * server handler -> response path -> completion), the payload bytes
 * are copied O(1) times per RPC — at the client API edge — no matter
 * how many frames the message spans or how many hops the frames take.
 * Handle passes, by contrast, scale with the hop/frame count.
 *
 * The proto::payloadStats() counters are per-thread and monotonic;
 * every measurement below is a delta across one run.  A system's
 * sim.payload.* gauges count only the payload work of its own thread
 * since the system was built.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <utility>

#include "bench/harness.hh"
#include "proto/payload.hh"

namespace {

using namespace dagger;

struct RunStats
{
    double bytesPerRpc = 0;
    double passesPerRpc = 0;
    std::uint64_t completions = 0;
};

/** Run a closed-loop echo at @p payload bytes and return per-RPC deltas. */
RunStats
runEcho(std::size_t payload)
{
    bench::EchoRig::Options opt;
    opt.threads = 1;
    opt.payload = payload;
    const unsigned window = 8;

    bench::EchoRig rig(opt);
    const proto::PayloadStats before = proto::payloadStats();
    rig.saturate(window, sim::msToTicks(1), sim::msToTicks(4));
    const proto::PayloadStats after = proto::payloadStats();

    RunStats out;
    out.completions = rig.client(0).responses();
    EXPECT_GT(out.completions, 100u) << payload;
    out.bytesPerRpc =
        static_cast<double>(after.bytesCopied - before.bytesCopied) /
        static_cast<double>(out.completions);
    out.passesPerRpc =
        static_cast<double>(after.handlePasses - before.handlePasses) /
        static_cast<double>(out.completions);
    return out;
}

TEST(PayloadCopies, OneCopyPerRpcAtTheApiEdge)
{
    // 96 B payload = 2 frames.  The only counted copy is the client's
    // PayloadBuf construction (96 B per call); reassembly adopts the
    // buffer and the echo handler passes the handle back.  In-flight
    // calls at measurement end give the small upper slack.
    const RunStats r = runEcho(96);
    EXPECT_GE(r.bytesPerRpc, 96.0);
    EXPECT_LE(r.bytesPerRpc, 96.0 * 1.1);
}

TEST(PayloadCopies, CopiesScaleWithPayloadNotWithFrameCount)
{
    // 960 B spans 20 frames vs 96 B spanning 2: ten times the frames
    // and the same pipeline depth must cost exactly ten times the
    // copied bytes (still the one API-edge copy) — if any hop copied
    // per frame, this ratio would blow past 10.
    const RunStats small = runEcho(96);
    const RunStats large = runEcho(960);
    const double ratio = large.bytesPerRpc / small.bytesPerRpc;
    EXPECT_GT(ratio, 9.0);
    EXPECT_LT(ratio, 11.0);

    // Handle passes are where the hops show up: a 20-frame message is
    // sliced into 10x the views, so passes/RPC must grow with frame
    // count while bytes/RPC stayed put.
    EXPECT_GT(large.passesPerRpc, small.passesPerRpc * 2.0);
}

TEST(PayloadCopies, HandlePassesDominateCopiesOnTheHotPath)
{
    // Steady state moves handles, not bytes: passes per RPC must be
    // several per hop (frames + message-level handle copies), and the
    // per-RPC copied bytes must stay within the payload-size bound
    // proved above — together these pin the zero-copy invariant.
    const RunStats r = runEcho(480); // 10 frames
    EXPECT_GT(r.passesPerRpc, 4.0);
    EXPECT_LE(r.bytesPerRpc, 480.0 * 1.1);
}

/** A system's sim.payload.{bytes_copied,handle_passes} gauges. */
std::pair<std::uint64_t, std::uint64_t>
payloadGauges(const rpc::DaggerSystem &sys)
{
    std::pair<std::uint64_t, std::uint64_t> out{};
    for (const auto &e : sys.metrics().entries()) {
        if (e.name == "sim.payload.bytes_copied")
            out.first = e.intGauge();
        else if (e.name == "sim.payload.handle_passes")
            out.second = e.intGauge();
    }
    return out;
}

TEST(DaggerSystem, PayloadGaugesCountOnlyTheirOwnThread)
{
    bench::EchoRig::Options opt;
    opt.payload = 480;
    const auto run = [](bench::EchoRig &rig) {
        rig.saturate(8, sim::msToTicks(0.2), sim::msToTicks(1));
    };

    bench::EchoRig a(opt);
    run(a);
    const auto a_gauges = payloadGauges(a.system());
    EXPECT_GT(a_gauges.first, 0u);
    EXPECT_GT(a_gauges.second, 0u);

    // The same deployment on another thread leaves A's gauges alone.
    std::pair<std::uint64_t, std::uint64_t> b_gauges{};
    std::thread worker([&] {
        bench::EchoRig b(opt);
        run(b);
        b_gauges = payloadGauges(b.system());
    });
    worker.join();
    EXPECT_EQ(payloadGauges(a.system()), a_gauges);

    // A system built after A's run starts from zero and counts exactly
    // its own run: the same numbers B counted on its thread.
    bench::EchoRig c(opt);
    EXPECT_EQ(payloadGauges(c.system()),
              (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    run(c);
    EXPECT_EQ(payloadGauges(c.system()), b_gauges);
}

} // namespace
