/**
 * @file
 * MetricRegistry / MetricScope tests: registration, hierarchical
 * naming, duplicate-name detection, and the JSON renderer.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace {

using dagger::sim::Counter;
using dagger::sim::Histogram;
using dagger::sim::MetricRegistry;
using dagger::sim::MetricScope;

TEST(MetricRegistry, RegistersAllKindsInOrder)
{
    MetricRegistry reg;
    Counter c;
    c.inc(7);
    Histogram h;
    h.record(100);

    reg.addCounter("a.count", c);
    reg.addIntGauge("a.ints", [] { return std::uint64_t{42}; });
    reg.addGauge("a.ratio", [] { return 0.5; });
    reg.addHistogram("a.lat", h);

    ASSERT_EQ(reg.entries().size(), 4u);
    EXPECT_EQ(reg.entries()[0].name, "a.count");
    EXPECT_EQ(reg.entries()[1].name, "a.ints");
    EXPECT_EQ(reg.entries()[2].name, "a.ratio");
    EXPECT_EQ(reg.entries()[3].name, "a.lat");
    EXPECT_TRUE(reg.has("a.ratio"));
    EXPECT_FALSE(reg.has("a.rati"));
    EXPECT_FALSE(reg.has("a.ratio.x"));
}

TEST(MetricRegistry, ScopeJoinsDottedNames)
{
    MetricRegistry reg;
    Counter c;
    MetricScope root(reg, "");
    MetricScope node = root.sub("node0");
    MetricScope nic = node.sub("nic");
    EXPECT_EQ(node.prefix(), "node0");
    EXPECT_EQ(nic.prefix(), "node0.nic");

    root.counter("events", c);
    nic.counter("rpcs_out", c);
    nic.sub("conn_cache").counter("hits", c);

    EXPECT_TRUE(reg.has("events"));
    EXPECT_TRUE(reg.has("node0.nic.rpcs_out"));
    EXPECT_TRUE(reg.has("node0.nic.conn_cache.hits"));
}

TEST(MetricRegistry, JsonRendererExportsEverything)
{
    MetricRegistry reg;
    Counter c;
    c.inc(3);
    Histogram h;
    h.record(8);
    h.record(8);

    reg.addCounter("a.c", c);
    reg.addGauge("a.g", [] { return 1.5; });
    reg.addHistogram("a.h", h);

    const std::string json = reg.renderJson();
    EXPECT_NE(json.find("\"a.c\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"a.g\": 1.5"), std::string::npos);
    EXPECT_NE(json.find("\"a.h\": {\"count\": 2, \"min\": 8, \"max\": 8"),
              std::string::npos);

    // Non-finite gauges must not produce invalid JSON.
    MetricRegistry reg2;
    reg2.addGauge("bad", [] { return 0.0 / 0.0; });
    EXPECT_NE(reg2.renderJson().find("\"bad\": null"), std::string::npos);
}

TEST(MetricRegistryDeathTest, DuplicateNamePanics)
{
    MetricRegistry reg;
    Counter c;
    reg.addCounter("dup", c);
    EXPECT_DEATH(reg.addCounter("dup", c), "duplicate metric name");
}

TEST(MetricRegistryDeathTest, EmptyNamePanics)
{
    MetricRegistry reg;
    Counter c;
    EXPECT_DEATH(reg.addCounter("", c), "metric needs a name");
}

} // namespace
