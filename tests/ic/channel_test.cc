/**
 * @file
 * Interconnect channel + fabric tests: serialization, round-robin
 * arbiter fairness, outstanding-window limits, cost-model shapes.
 */

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

TEST(CciFabric, FetchLatencyIncludesPropagation)
{
    EventQueue eq;
    UpiCost upi;
    CciFabric fabric(eq, IfaceKind::Upi, 1, upi);
    Tick done_at = 0;
    fabric.port(0).fetch(1, [&] { done_at = eq.now(); });
    eq.runAll();
    // channel (txnOverhead + 1 line) + 400ns fetch latency.
    EXPECT_EQ(done_at, upi.txnOverhead + upi.lineService + upi.fetchLatency);
}

TEST(CciFabric, LlcPollModeAddsLatency)
{
    EventQueue eq;
    UpiCost upi;
    CciFabric f1(eq, IfaceKind::Upi, 1, upi);
    Tick local = 0, llc = 0;
    f1.port(0).fetch(1, [&] { local = eq.now(); });
    eq.runAll();
    EventQueue eq2;
    CciFabric f2(eq2, IfaceKind::Upi, 1, upi);
    f2.port(0).setPollMode(PollMode::Llc);
    f2.port(0).fetch(1, [&] { llc = eq2.now(); });
    eq2.runAll();
    EXPECT_EQ(llc, local + upi.llcPollExtra);
}

TEST(CciFabric, OutstandingWindowLimitsPipelining)
{
    EventQueue eq;
    UpiCost upi;
    upi.maxOutstanding = 2;
    CciFabric fabric(eq, IfaceKind::Upi, 1, upi);
    int completions = 0;
    for (int i = 0; i < 5; ++i)
        fabric.port(0).fetch(1, [&] { ++completions; });
    // Two issued, three stalled behind the window.
    EXPECT_EQ(fabric.port(0).stalls(), 3u);
    eq.runAll();
    EXPECT_EQ(completions, 5);
}

TEST(CciFabric, PcieDoorbellLatencyExceedsUpi)
{
    UpiCost upi;
    PcieCost pcie;
    EXPECT_GT(hostTxBaseLatency(IfaceKind::Doorbell, upi, pcie),
              hostTxBaseLatency(IfaceKind::Upi, upi, pcie));
    EXPECT_GT(hostTxBaseLatency(IfaceKind::MmioWrite, upi, pcie),
              hostTxBaseLatency(IfaceKind::Upi, upi, pcie));
}

TEST(CostModel, CpuCostOrderingMatchesFig10)
{
    UpiCost upi;
    PcieCost pcie;
    // Per-request CPU cost must yield the Fig. 10 per-core throughput
    // ordering: MMIO ~ doorbell < doorbell batched < UPI.
    const Tick mmio = hostTxCpuCost(IfaceKind::MmioWrite, 1, upi, pcie);
    const Tick db = hostTxCpuCost(IfaceKind::Doorbell, 1, upi, pcie);
    const Tick db11 = hostTxCpuCost(IfaceKind::DoorbellBatch, 11, upi, pcie);
    const Tick upi1 = hostTxCpuCost(IfaceKind::Upi, 1, upi, pcie);
    const Tick upi4 = hostTxCpuCost(IfaceKind::Upi, 4, upi, pcie);
    EXPECT_GT(mmio, db11);
    EXPECT_GT(db, db11);
    EXPECT_GT(upi1, upi4);
    EXPECT_LT(upi4, db11);
}

TEST(CostModel, BatchingMonotonicallyReducesDoorbellCost)
{
    UpiCost upi;
    PcieCost pcie;
    Tick prev = hostTxCpuCost(IfaceKind::DoorbellBatch, 1, upi, pcie);
    for (unsigned b = 2; b <= 16; ++b) {
        Tick cur = hostTxCpuCost(IfaceKind::DoorbellBatch, b, upi, pcie);
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

TEST(CciFabric, ArbiterSharesFairlyBetweenTwoNics)
{
    EventQueue eq;
    CciFabric fabric(eq, IfaceKind::Upi, 2);
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
