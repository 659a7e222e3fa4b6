/**
 * @file
 * Interconnect channel + fabric tests: serialization, round-robin
 * arbiter fairness, outstanding-window limits, and every interface
 * profile pinned to the paper constants.
 */

#include <array>

#include <gtest/gtest.h>

#include "ic/cci_fabric.hh"
#include "ic/channel.hh"
#include "ic/cost_model.hh"
#include "sim/event_queue.hh"

namespace {

using namespace dagger;
using namespace dagger::ic;
using sim::EventQueue;
using sim::nsToTicks;
using sim::Tick;

/** A serviced callback that ignores completions. */
void
ignoreServiced(unsigned, std::uint32_t)
{}

TEST(Channel, SingleTransactionTiming)
{
    EventQueue eq;
    Tick done_at = 0;
    std::uint32_t done_tag = 0;
    Channel ch(eq, nsToTicks(10), nsToTicks(20), 1,
               [&](unsigned, std::uint32_t tag) {
                   done_at = eq.now();
                   done_tag = tag;
               });
    ch.request(0, 4, 7);
    eq.runAll();
    EXPECT_EQ(done_tag, 7u);
    // 20 overhead + 4 lines * 10.
    EXPECT_EQ(done_at, nsToTicks(60));
    EXPECT_EQ(ch.linesServiced(), 4u);
    EXPECT_EQ(ch.txnsServiced(), 1u);
    EXPECT_EQ(ch.busyTicks(), nsToTicks(60));
}

TEST(Channel, BackToBackTransactionsSerialize)
{
    EventQueue eq;
    std::vector<Tick> done;
    Channel ch(eq, nsToTicks(10), 0, 1,
               [&](unsigned, std::uint32_t) { done.push_back(eq.now()); });
    for (std::uint32_t i = 0; i < 3; ++i)
        ch.request(0, 1, i);
    eq.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], nsToTicks(10));
    EXPECT_EQ(done[1], nsToTicks(20));
    EXPECT_EQ(done[2], nsToTicks(30));
}

TEST(Channel, RoundRobinIsFairUnderContention)
{
    EventQueue eq;
    Channel ch(eq, nsToTicks(10), 0, 3, ignoreServiced);
    // Saturate all three ports.
    for (unsigned p = 0; p < 3; ++p)
        for (std::uint32_t i = 0; i < 100; ++i)
            ch.request(p, 1, i);
    eq.runAll();
    const auto &g = ch.grants();
    EXPECT_EQ(g[0], 100u);
    EXPECT_EQ(g[1], 100u);
    EXPECT_EQ(g[2], 100u);
    // And the interleaving must be round-robin: check via busy time.
    EXPECT_EQ(ch.busyTicks(), nsToTicks(3000));
}

TEST(Channel, AddPortGrowsArbiter)
{
    EventQueue eq;
    int done = 0;
    unsigned done_port = 0;
    Channel ch(eq, nsToTicks(1), 0, 1, [&](unsigned port, std::uint32_t) {
        ++done;
        done_port = port;
    });
    EXPECT_EQ(ch.addPort(), 1u);
    EXPECT_EQ(ch.addPort(), 2u);
    ch.request(2, 1, 0);
    eq.runAll();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(done_port, 2u);
}

/** Every field of one profileFor() row, in picoseconds. */
struct ProfileRow
{
    IfaceKind kind;
    Tick lineService;
    Tick txnOverhead;
    unsigned maxOutstanding;
    Tick fetchLatency;
    Tick postLatency;
    Tick bookkeepLatency;
    Tick cpuPerRequest;
    Tick cpuPerBatch;
    Tick llcPollExtra;
    Tick ownershipBounceCost;
    /** sendCpu(B) for B = 1..16. */
    std::array<Tick, 16> sendCpu;
};

/** A send cost that batching does not amortize. */
std::array<Tick, 16>
flat(Tick cost)
{
    std::array<Tick, 16> a;
    a.fill(cost);
    return a;
}

TEST(IfaceProfile, PinsEveryFieldAndSendCpuForEveryKind)
{
    // Literal values from the UpiCost/PcieCost paper constants.
    const ProfileRow rows[] = {
        // MMIO: 700 ns delivery, 185 ns of MMIO stores per request.
        {IfaceKind::MmioWrite, 8000, 60000, 128, 700000, 300000, 300000,
         185000, 0, 0, 0, flat(185000)},
        // Doorbell: 400 ns doorbell + 450 ns DMA read; 45 ns ring write
        // + 165 ns MMIO per request.
        {IfaceKind::Doorbell, 8000, 60000, 128, 850000, 300000, 300000,
         210000, 0, 0, 0, flat(210000)},
        // Batched doorbell: 45 + 10 ns per request, 165 ns per batch.
        {IfaceKind::DoorbellBatch, 8000, 60000, 128, 850000, 300000,
         300000, 55000, 165000, 0, 0,
         {220000, 137500, 110000, 96250, 88000, 82500, 78571, 75625, 73333,
          71500, 70000, 68750, 67692, 66785, 66000, 65312}},
        // UPI: 400 ns fetch and bookkeeping (§4.4); 42 ns write per
        // request, 64 ns bookkeeping per batch; the only poll-mode terms.
        {IfaceKind::Upi, 11900, 8000, 128, 400000, 120000, 400000, 42000,
         64000, 50000, 25000,
         {106000, 74000, 63333, 58000, 54800, 52666, 51142, 50000, 49111,
          48400, 47818, 47333, 46923, 46571, 46266, 46000}},
        // CXL: 180 ns direct device write, no bookkeeping, no polling.
        {IfaceKind::Cxl, 11900, 8000, 128, 180000, 120000, 0, 55000, 0, 0,
         0, flat(55000)},
    };
    for (const ProfileRow &row : rows) {
        SCOPED_TRACE(ifaceName(row.kind));
        const IfaceProfile p = profileFor(row.kind);
        EXPECT_EQ(p.lineService, row.lineService);
        EXPECT_EQ(p.txnOverhead, row.txnOverhead);
        EXPECT_EQ(p.maxOutstanding, row.maxOutstanding);
        EXPECT_EQ(p.fetchLatency, row.fetchLatency);
        EXPECT_EQ(p.postLatency, row.postLatency);
        EXPECT_EQ(p.bookkeepLatency, row.bookkeepLatency);
        EXPECT_EQ(p.cpuPerRequest, row.cpuPerRequest);
        EXPECT_EQ(p.cpuPerBatch, row.cpuPerBatch);
        EXPECT_EQ(p.llcPollExtra, row.llcPollExtra);
        EXPECT_EQ(p.ownershipBounceCost, row.ownershipBounceCost);
        for (unsigned b = 1; b <= 16; ++b)
            EXPECT_EQ(p.sendCpu(b), row.sendCpu[b - 1]) << "B=" << b;
    }
}

TEST(CciFabric, PcieDoorbellLatencyExceedsUpi)
{
    const Tick upi = profileFor(IfaceKind::Upi).fetchLatency;
    EXPECT_GT(profileFor(IfaceKind::Doorbell).fetchLatency, upi);
    EXPECT_GT(profileFor(IfaceKind::MmioWrite).fetchLatency, upi);
}

TEST(CostModel, CpuCostOrderingMatchesFig10)
{
    // Per-request CPU cost must yield the Fig. 10 per-core throughput
    // ordering: MMIO ~ doorbell < doorbell batched < UPI.
    const Tick mmio = profileFor(IfaceKind::MmioWrite).sendCpu(1);
    const Tick db = profileFor(IfaceKind::Doorbell).sendCpu(1);
    const Tick db11 = profileFor(IfaceKind::DoorbellBatch).sendCpu(11);
    const Tick upi1 = profileFor(IfaceKind::Upi).sendCpu(1);
    const Tick upi4 = profileFor(IfaceKind::Upi).sendCpu(4);
    EXPECT_GT(mmio, db11);
    EXPECT_GT(db, db11);
    EXPECT_GT(upi1, upi4);
    EXPECT_LT(upi4, db11);
}

TEST(CostModel, BatchingMonotonicallyReducesDoorbellCost)
{
    const IfaceProfile dbb = profileFor(IfaceKind::DoorbellBatch);
    Tick prev = dbb.sendCpu(1);
    for (unsigned b = 2; b <= 16; ++b) {
        const Tick cur = dbb.sendCpu(b);
        EXPECT_LE(cur, prev) << "b=" << b;
        prev = cur;
    }
}

TEST(CostModel, IfaceNamesAreStable)
{
    EXPECT_STREQ(ifaceName(IfaceKind::Upi), "UPI");
    EXPECT_STREQ(ifaceName(IfaceKind::MmioWrite), "MMIO");
    EXPECT_STREQ(ifaceName(IfaceKind::Doorbell), "Doorbell");
    EXPECT_STREQ(ifaceName(IfaceKind::DoorbellBatch), "DoorbellBatch");
}

TEST(CciFabric, FetchLatencyIncludesPropagation)
{
    EventQueue eq;
    const IfaceProfile upi = profileFor(IfaceKind::Upi);
    CciFabric fabric(eq, upi);
    Tick done_at = 0;
    fabric.port(0).fetch(1, [&] { done_at = eq.now(); });
    eq.runAll();
    // channel (txnOverhead + 1 line) + 400ns fetch latency.
    EXPECT_EQ(done_at, upi.txnOverhead + upi.lineService + upi.fetchLatency);
}

TEST(CciFabric, LlcPollModeAddsLatency)
{
    EventQueue eq;
    const IfaceProfile upi = profileFor(IfaceKind::Upi);
    CciFabric f1(eq, upi);
    Tick local = 0, llc = 0;
    f1.port(0).fetch(1, [&] { local = eq.now(); });
    eq.runAll();
    EventQueue eq2;
    CciFabric f2(eq2, upi);
    f2.port(0).setPollMode(PollMode::Llc);
    f2.port(0).fetch(1, [&] { llc = eq2.now(); });
    eq2.runAll();
    EXPECT_EQ(llc, local + upi.llcPollExtra);
}

TEST(CciFabric, OutstandingWindowLimitsPipelining)
{
    EventQueue eq;
    IfaceProfile upi = profileFor(IfaceKind::Upi);
    upi.maxOutstanding = 2;
    CciFabric fabric(eq, upi);
    int completions = 0;
    for (int i = 0; i < 5; ++i)
        fabric.port(0).fetch(1, [&] { ++completions; });
    // Two issued, three stalled behind the window.
    EXPECT_EQ(fabric.port(0).stalls(), 3u);
    eq.runAll();
    EXPECT_EQ(completions, 5);
}

TEST(CciFabric, ArbiterSharesFairlyBetweenTwoNics)
{
    EventQueue eq;
    CciFabric fabric(eq, profileFor(IfaceKind::Upi), 2);
    int a = 0, b = 0;
    for (int i = 0; i < 200; ++i) {
        fabric.port(0).fetch(1, [&] { ++a; });
        fabric.port(1).fetch(1, [&] { ++b; });
    }
    eq.runAll();
    EXPECT_EQ(a, 200);
    EXPECT_EQ(b, 200);
    EXPECT_EQ(fabric.toNicChannel().grants()[0],
              fabric.toNicChannel().grants()[1]);
}

} // namespace
