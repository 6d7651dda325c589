/**
 * @file
 * Bus routing and bus-monitor probe tests.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/trace_engine.hh"
#include "hw/bus.hh"
#include "hw/bus_monitor.hh"
#include "hw/dram.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

struct BusFixture : testing::Test
{
    BusFixture() : dram(1 * MiB)
    {
        bus.setTraceEngine(&engine);
        bus.attach(&dram, DRAM_BASE, dram.size(), "dram");
    }

    probe::TraceEngine engine;
    Bus bus;
    Dram dram;
};

} // namespace

TEST_F(BusFixture, RoutesToMappedDevice)
{
    const auto data = fromHex("cafebabe");
    bus.write(DRAM_BASE + 0x40, data.data(), data.size(),
              BusInitiator::CpuCache);

    std::vector<std::uint8_t> back(4);
    bus.read(DRAM_BASE + 0x40, back.data(), back.size(),
             BusInitiator::CpuCache);
    EXPECT_EQ(back, data);
    EXPECT_EQ(dram.raw()[0x40], 0xca);
}

TEST_F(BusFixture, CoversReportsMappedRanges)
{
    EXPECT_TRUE(bus.covers(DRAM_BASE, 1));
    EXPECT_TRUE(bus.covers(DRAM_BASE + 1 * MiB - 4, 4));
    EXPECT_FALSE(bus.covers(DRAM_BASE + 1 * MiB - 4, 8));
    EXPECT_FALSE(bus.covers(0x1000, 4));
}

TEST_F(BusFixture, UnmappedAccessPanics)
{
    std::uint8_t buf[4];
    EXPECT_DEATH(bus.read(0x100, buf, 4, BusInitiator::Dma), "unmapped");
}

TEST_F(BusFixture, OverlappingMappingPanics)
{
    Dram other(64 * KiB);
    EXPECT_DEATH(bus.attach(&other, DRAM_BASE + 0x1000, other.size(),
                            "overlap"),
                 "overlaps");
}

TEST_F(BusFixture, ObserversSeeEveryTransaction)
{
    BusMonitor monitor;
    monitor.attach(engine);

    const auto data = fromHex("0011223344556677");
    bus.write(DRAM_BASE, data.data(), data.size(), BusInitiator::Dma);
    std::uint8_t buf[8];
    bus.read(DRAM_BASE, buf, 8, BusInitiator::CpuCache);

    ASSERT_EQ(monitor.trace().size(), 2u);
    EXPECT_TRUE(monitor.trace()[0].isWrite);
    EXPECT_EQ(monitor.trace()[0].initiator, BusInitiator::Dma);
    EXPECT_FALSE(monitor.trace()[1].isWrite);
    EXPECT_EQ(monitor.bytesObserved(), 16u);
    EXPECT_EQ(toHex(monitor.trace()[0].data), toHex(data));
}

TEST_F(BusFixture, DetachedObserverSeesNothing)
{
    BusMonitor monitor;
    monitor.attach(engine);
    monitor.detach();

    std::uint8_t buf[4] = {};
    bus.write(DRAM_BASE, buf, 4, BusInitiator::CpuCache);
    EXPECT_TRUE(monitor.trace().empty());
}

TEST_F(BusFixture, AddressOnlyProbeCapturesNoPayloads)
{
    BusMonitor monitor(/*capture_payloads=*/false);
    monitor.attach(engine);

    const auto secret = fromHex("abadcafe01020304");
    bus.write(DRAM_BASE, secret.data(), secret.size(),
              BusInitiator::CpuCache);

    ASSERT_EQ(monitor.trace().size(), 1u);
    EXPECT_TRUE(monitor.trace()[0].data.empty());
}

TEST_F(BusFixture, InFlightPayloadsPreserveOrder)
{
    // The payloads stream through the matcher as they cross: a needle
    // split across two transactions is found, the same bytes in the
    // other order are not, and the address-only probe keeps no payload.
    StreamMatcher matcher({fromHex("aabb"), fromHex("bbaa")});
    BusMonitor monitor(/*capture_payloads=*/false, &matcher);
    monitor.attach(engine);

    const auto a = fromHex("aaaa");
    const auto b = fromHex("bbbb");
    bus.write(DRAM_BASE, a.data(), a.size(), BusInitiator::CpuCache);
    bus.write(DRAM_BASE + 2, b.data(), b.size(), BusInitiator::CpuCache);
    EXPECT_TRUE(matcher.found(0));
    EXPECT_FALSE(matcher.found(1));
    ASSERT_EQ(monitor.trace().size(), 2u);
    EXPECT_TRUE(monitor.trace()[0].data.empty());
    EXPECT_TRUE(monitor.trace()[1].data.empty());

    monitor.detach();
    bus.write(DRAM_BASE, a.data(), a.size(), BusInitiator::CpuCache);
    EXPECT_FALSE(matcher.found(1)); // "bbbb" + "aaaa" was never seen
}
