/**
 * @file
 * Connection Manager tests: direct-mapped behaviour, the three read
 * ports, DRAM backing and miss penalties (§4.2).
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "nic/connection_manager.hh"
#include "sim/rng.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;

NicConfig
smallCfg(bool backing = false)
{
    NicConfig cfg;
    cfg.connCacheEntries = 8;
    cfg.connCacheDramBacking = backing;
    return cfg;
}

TEST(ConnectionManager, OpenLookupClose)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    ConnTuple t{2, 7, LbScheme::Static};
    ASSERT_TRUE(cm.open(5, t));
    auto got = cm.lookup(5, CmReader::OutgoingFlow);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, t);
    cm.close(5);
    EXPECT_FALSE(cm.lookup(5, CmReader::OutgoingFlow).has_value());
}

TEST(ConnectionManager, UnknownConnectionMisses)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    EXPECT_FALSE(cm.lookup(42, CmReader::IncomingFlow).has_value());
    EXPECT_EQ(cm.misses(), 1u);
    EXPECT_EQ(cm.hits(), 0u);
}

TEST(ConnectionManager, DirectMappedConflictWithoutBackingFails)
{
    NicConfig cfg = smallCfg(false);
    ConnectionManager cm(cfg);
    ASSERT_TRUE(cm.open(1, ConnTuple{0, 1, LbScheme::RoundRobin}));
    // 1 and 9 collide in an 8-entry table.
    EXPECT_FALSE(cm.open(9, ConnTuple{1, 2, LbScheme::RoundRobin}));
    // Original survives.
    EXPECT_TRUE(cm.lookup(1, CmReader::Manager).has_value());
}

TEST(ConnectionManager, DramBackingResolvesConflicts)
{
    NicConfig cfg = smallCfg(true);
    ConnectionManager cm(cfg);
    ASSERT_TRUE(cm.open(1, ConnTuple{0, 1, LbScheme::RoundRobin}));
    ASSERT_TRUE(cm.open(9, ConnTuple{1, 2, LbScheme::RoundRobin}));
    EXPECT_EQ(cm.evictions(), 1u);

    // Conn 1 was evicted to DRAM; lookup refills with a penalty.
    sim::Tick penalty = 0;
    auto got = cm.lookup(1, CmReader::IncomingFlow, penalty);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->destAddr, 1u);
    EXPECT_EQ(penalty, cfg.connMissPenalty);

    // Now conn 9 got displaced; a hit on 1 is free.
    penalty = 0;
    got = cm.lookup(1, CmReader::IncomingFlow, penalty);
    EXPECT_EQ(penalty, 0u);
    EXPECT_TRUE(got.has_value());
}

TEST(ConnectionManager, ReaderPortsAreCounted)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    cm.open(3, ConnTuple{});
    cm.lookup(3, CmReader::OutgoingFlow);
    cm.lookup(3, CmReader::IncomingFlow);
    cm.lookup(3, CmReader::IncomingFlow);
    const auto &acc = cm.readerAccesses();
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::OutgoingFlow)], 1u);
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::IncomingFlow)], 2u);
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::Manager)], 1u);
}

TEST(ConnectionManager, ManyConnectionsWithBackingAllReachable)
{
    NicConfig cfg = smallCfg(true);
    ConnectionManager cm(cfg);
    for (proto::ConnId id = 1; id <= 64; ++id)
        ASSERT_TRUE(cm.open(id, ConnTuple{id % 4, 9, LbScheme::Static}));
    EXPECT_EQ(cm.backingConnections(), 64u);
    for (proto::ConnId id = 1; id <= 64; ++id) {
        auto got = cm.lookup(id, CmReader::OutgoingFlow);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(got->srcFlow, id % 4);
    }
}

/**
 * Reference model for the oracle test below: a hand-rolled
 * direct-mapped table with its own counters, written independently of
 * mem::DirectMappedCache.  Same open/lookup/close contract as
 * ConnectionManager (minus the conflict warning).
 */
class ReferenceCm
{
  public:
    explicit ReferenceCm(const NicConfig &cfg)
        : _cfg(cfg), _table(cfg.connCacheEntries)
    {}

    bool
    open(proto::ConnId id, const ConnTuple &tuple)
    {
        ++_readerAccesses[static_cast<std::size_t>(CmReader::Manager)];
        Slot &s = _table[index(id)];
        if (s.valid && s.id != id) {
            if (!_cfg.connCacheDramBacking)
                return false;
            ++_evictions;
            _backing[s.id] = s.tuple;
        }
        s.valid = true;
        s.id = id;
        s.tuple = tuple;
        if (_cfg.connCacheDramBacking)
            _backing[id] = tuple;
        return true;
    }

    void
    close(proto::ConnId id)
    {
        ++_readerAccesses[static_cast<std::size_t>(CmReader::Manager)];
        Slot &s = _table[index(id)];
        if (s.valid && s.id == id)
            s.valid = false;
        _backing.erase(id);
    }

    std::optional<ConnTuple>
    lookup(proto::ConnId id, CmReader reader, sim::Tick &penalty)
    {
        ++_readerAccesses[static_cast<std::size_t>(reader)];
        penalty = 0;
        Slot &s = _table[index(id)];
        if (s.valid && s.id == id) {
            ++_hits;
            return s.tuple;
        }
        ++_misses;
        if (!_cfg.connCacheDramBacking)
            return std::nullopt;
        auto it = _backing.find(id);
        if (it == _backing.end())
            return std::nullopt;
        penalty = _cfg.connMissPenalty;
        const ConnTuple tuple = it->second;
        if (s.valid && s.id != id) {
            ++_evictions;
            _backing[s.id] = s.tuple;
        }
        s.valid = true;
        s.id = id;
        s.tuple = tuple;
        return tuple;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::size_t backingConnections() const { return _backing.size(); }

    std::size_t
    cachedConnections() const
    {
        std::size_t n = 0;
        for (const Slot &s : _table)
            n += s.valid;
        return n;
    }

    const std::array<std::uint64_t, 3> &
    readerAccesses() const
    {
        return _readerAccesses;
    }

  private:
    struct Slot
    {
        bool valid = false;
        proto::ConnId id = 0;
        ConnTuple tuple;
    };

    std::size_t
    index(proto::ConnId id) const
    {
        return static_cast<std::size_t>(id) & (_table.size() - 1);
    }

    const NicConfig &_cfg;
    std::vector<Slot> _table;
    std::unordered_map<proto::ConnId, ConnTuple> _backing;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::array<std::uint64_t, 3> _readerAccesses{};
};

/** Number of non-overlapping occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(ConnectionManager, MatchesReferenceOnRandomStreams)
{
    for (const std::size_t entries : {1u, 4u, 1024u}) {
        for (const bool backing : {false, true}) {
            NicConfig cfg;
            cfg.connCacheEntries = entries;
            cfg.connCacheDramBacking = backing;
            ConnectionManager cm(cfg);
            ReferenceCm ref(cfg);
            // Ids over about twice the slots, so slots conflict.
            const std::uint64_t ids = 2 * entries + 6;
            sim::Rng rng(entries * 2 + backing);
            std::size_t refused = 0;
            testing::internal::CaptureStderr();
            for (int step = 0; step < 20000; ++step) {
                SCOPED_TRACE(testing::Message()
                             << "entries " << entries << " backing "
                             << backing << " step " << step);
                const auto id = static_cast<proto::ConnId>(
                    1 + rng.range(ids));
                const std::uint64_t op = rng.range(10);
                if (op < 3) {
                    const ConnTuple t{
                        static_cast<unsigned>(rng.range(4)),
                        static_cast<net::NodeId>(rng.range(16)),
                        static_cast<LbScheme>(rng.range(3))};
                    const bool ok = ref.open(id, t);
                    ASSERT_EQ(cm.open(id, t), ok);
                    refused += !ok;
                } else if (op < 4) {
                    ref.close(id);
                    cm.close(id);
                } else {
                    const auto reader =
                        static_cast<CmReader>(rng.range(3));
                    sim::Tick want_penalty = 1;
                    sim::Tick got_penalty = 2;
                    const auto want = ref.lookup(id, reader, want_penalty);
                    ASSERT_EQ(cm.lookup(id, reader, got_penalty), want);
                    ASSERT_EQ(got_penalty, want_penalty);
                }
                ASSERT_EQ(cm.hits(), ref.hits());
                ASSERT_EQ(cm.misses(), ref.misses());
                ASSERT_EQ(cm.evictions(), ref.evictions());
                ASSERT_EQ(cm.cachedConnections(), ref.cachedConnections());
                ASSERT_EQ(cm.backingConnections(),
                          ref.backingConnections());
                ASSERT_EQ(cm.readerAccesses(), ref.readerAccesses());
            }
            const std::string warnings =
                testing::internal::GetCapturedStderr();
            // Every refused open warned, once.
            EXPECT_EQ(countOf(warnings, "connection cache conflict"),
                      refused);
            EXPECT_EQ(refused > 0, !backing && entries < ids);
            EXPECT_GT(cm.hits(), 0u);
            EXPECT_GT(cm.misses(), 0u);
            EXPECT_EQ(cm.evictions() > 0, backing);
        }
    }
}

TEST(ConnectionManagerDeath, NonPowerOfTwoCacheRejected)
{
    NicConfig cfg;
    cfg.connCacheEntries = 12;
    EXPECT_DEATH(ConnectionManager cm(cfg), "power of two");
}

} // namespace
