/**
 * @file
 * FaultSchedule DSL tests: grammar coverage for every fault kind,
 * default and explicit parameters, comments/blank lines/CRLF input,
 * range validation, and the parse ⇄ format round-trip the fuzzer's
 * reproducer files depend on.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"

using namespace sentry;
using namespace sentry::fault;

TEST(FaultSchedule, ParsesEveryKindWithDefaults)
{
    const FaultSchedule sched = parseFaultSchedule(
        "fault dram_bit_flip after 10\n"
        "fault iram_bit_flip after 2\n"
        "fault bus_dup_write after 3\n"
        "fault bus_delay after 4\n"
        "fault lockdown_glitch after 5\n"
        "fault kcryptd_stall after 6\n"
        "fault power_glitch after 7\n"
        "fault dma_burst after 8\n");
    ASSERT_EQ(sched.faults.size(), 8u);
    EXPECT_EQ(sched.faults[0].kind, FaultKind::DramBitFlip);
    EXPECT_EQ(sched.faults[0].after, 10u);
    EXPECT_EQ(sched.faults[0].every, 0u); // one-shot by default
    EXPECT_EQ(sched.faults[0].count, 1u);
    EXPECT_EQ(sched.faults[3].kind, FaultKind::BusDelay);
    EXPECT_EQ(sched.faults[3].cycles, 64u);
    EXPECT_EQ(sched.faults[6].kind, FaultKind::PowerGlitch);
    EXPECT_DOUBLE_EQ(sched.faults[6].seconds, 0.001);
    EXPECT_EQ(sched.faults[7].bytes, 4096u);
}

TEST(FaultSchedule, ParsesExplicitParameters)
{
    const FaultSchedule sched = parseFaultSchedule(
        "fault dram_bit_flip after 100 every 50 count 7\n"
        "fault bus_delay after 1 every 2 cycles 512\n"
        "fault kcryptd_stall after 3 seconds 0.25\n"
        "fault dma_burst after 4 bytes 65536\n");
    ASSERT_EQ(sched.faults.size(), 4u);
    EXPECT_EQ(sched.faults[0].every, 50u);
    EXPECT_EQ(sched.faults[0].count, 7u);
    EXPECT_EQ(sched.faults[1].cycles, 512u);
    EXPECT_DOUBLE_EQ(sched.faults[2].seconds, 0.25);
    EXPECT_EQ(sched.faults[3].bytes, 65536u);
    // Source lines are recorded for diagnostics.
    EXPECT_EQ(sched.faults[0].line, 1u);
    EXPECT_EQ(sched.faults[3].line, 4u);
}

TEST(FaultSchedule, CommentsBlanksAndCrlfAreAccepted)
{
    const FaultSchedule sched = parseFaultSchedule(
        "# FaultSim schedule\r\n"
        "\r\n"
        "   \t \n"
        "fault iram_bit_flip after 5 count 2\r\n"
        "# trailing comment\n");
    ASSERT_EQ(sched.faults.size(), 1u);
    EXPECT_EQ(sched.faults[0].kind, FaultKind::IramBitFlip);
    EXPECT_EQ(sched.faults[0].line, 4u);
}

TEST(FaultSchedule, EmptyTextIsAnEmptySchedule)
{
    EXPECT_TRUE(parseFaultSchedule("").empty());
    EXPECT_TRUE(parseFaultSchedule("# only comments\n\n").empty());
}

TEST(FaultSchedule, RejectsMalformedStatements)
{
    // Unknown kind.
    EXPECT_THROW(parseFaultSchedule("fault meteor_strike after 1\n"),
                 FaultParseError);
    // Missing the mandatory trigger.
    EXPECT_THROW(parseFaultSchedule("fault dram_bit_flip\n"),
                 FaultParseError);
    // `after` counts from 1.
    EXPECT_THROW(parseFaultSchedule("fault dram_bit_flip after 0\n"),
                 FaultParseError);
    // `every` must be >= 1 when present.
    EXPECT_THROW(
        parseFaultSchedule("fault dram_bit_flip after 1 every 0\n"),
        FaultParseError);
    // power_glitch is step-scoped and one-shot: no `every`.
    EXPECT_THROW(
        parseFaultSchedule("fault power_glitch after 1 every 2\n"),
        FaultParseError);
    // Statements must start with `fault`.
    EXPECT_THROW(parseFaultSchedule("glitch lockdown after 1\n"),
                 FaultParseError);
    // Numbers start with a digit: no sign.
    EXPECT_THROW(parseFaultSchedule("fault dram_bit_flip after +3\n"),
                 FaultParseError);
    // A kind takes only its own magnitude: a bus delay has no count.
    try {
        parseFaultSchedule("fault bus_delay after 3 count 5\n");
        FAIL() << "expected FaultParseError";
    } catch (const FaultParseError &e) {
        EXPECT_EQ(e.line(), 1u);
    }

    // The error carries the offending line number.
    try {
        parseFaultSchedule("fault dram_bit_flip after 1\n"
                           "fault bogus after 1\n");
        FAIL() << "expected FaultParseError";
    } catch (const FaultParseError &e) {
        EXPECT_EQ(e.line(), 2u);
    }
}

TEST(FaultSchedule, RejectsOutOfRangeMagnitudes)
{
    EXPECT_THROW(
        parseFaultSchedule("fault dram_bit_flip after 1 count 100000\n"),
        FaultParseError);
    EXPECT_THROW(
        parseFaultSchedule("fault kcryptd_stall after 1 seconds 7200\n"),
        FaultParseError);
    EXPECT_THROW(
        parseFaultSchedule("fault power_glitch after 1 seconds nan\n"),
        FaultParseError);
    EXPECT_THROW(
        parseFaultSchedule("fault dma_burst after 1 bytes 999999999\n"),
        FaultParseError);
}

TEST(FaultSchedule, FormatParsesBackToAnEquivalentSchedule)
{
    const char *text = "fault dram_bit_flip after 123 every 45 count 6\n"
                       "fault bus_delay after 7 cycles 89\n"
                       "fault kcryptd_stall after 10 every 11 "
                       "seconds 0.125\n"
                       "fault power_glitch after 3 seconds 0.05\n"
                       "fault dma_burst after 2 bytes 8192\n";
    const FaultSchedule first = parseFaultSchedule(text);
    const FaultSchedule second =
        parseFaultSchedule(formatFaultSchedule(first));

    ASSERT_EQ(second.faults.size(), first.faults.size());
    for (std::size_t i = 0; i < first.faults.size(); ++i) {
        const FaultSpec &a = first.faults[i];
        const FaultSpec &b = second.faults[i];
        EXPECT_EQ(b.kind, a.kind) << i;
        EXPECT_EQ(b.after, a.after) << i;
        EXPECT_EQ(b.every, a.every) << i;
        EXPECT_EQ(b.count, a.count) << i;
        EXPECT_EQ(b.cycles, a.cycles) << i;
        EXPECT_DOUBLE_EQ(b.seconds, a.seconds) << i;
        EXPECT_EQ(b.bytes, a.bytes) << i;
    }
}

TEST(FaultSchedule, KindNamesMatchTheGrammar)
{
    EXPECT_STREQ(faultKindName(FaultKind::DramBitFlip), "dram_bit_flip");
    EXPECT_STREQ(faultKindName(FaultKind::BusDuplicateWrite),
                 "bus_dup_write");
    EXPECT_STREQ(faultKindName(FaultKind::LockdownGlitch),
                 "lockdown_glitch");
    EXPECT_STREQ(faultKindName(FaultKind::KcryptdStall), "kcryptd_stall");
    EXPECT_STREQ(faultKindName(FaultKind::PowerGlitch), "power_glitch");
    EXPECT_STREQ(faultKindName(FaultKind::DmaBurst), "dma_burst");
}
