/**
 * @file
 * bench_fleet's ten-verb attack gauntlet as a test scenario: two apps,
 * a lock, the seven live verbs, then the three cold-boot verbs (which
 * end the device).
 */

#ifndef SENTRY_TESTS_GAUNTLET_HH
#define SENTRY_TESTS_GAUNTLET_HH

#include <string>

#include "fleet/scenario.hh"

namespace sentry::test
{

/**
 * The gauntlet. With @p backgroundApp a third, background app is
 * spawned and paged through the locked cache while locked; that needs
 * a platform with cache locking.
 */
inline fleet::Scenario
tenVerbGauntlet(bool backgroundApp = false)
{
    const std::string text =
        std::string("audits every_step\n"
                    "spawn wallet sensitive heap 128KiB\n"
                    "spawn leaky heap 64KiB\n") +
        (backgroundApp ? "spawn mail sensitive background heap 64KiB\n"
                       : "") +
        "touch wallet 32KiB\n"
        "lock\n" +
        (backgroundApp ? "touch mail 32KiB\n" : "") +
        "sleep 100ms\n"
        "attack dma\n"
        "attack bus_monitor\n"
        "attack code_injection\n"
        "attack prime_probe\n"
        "attack evict_reload\n"
        "attack rowhammer\n"
        "attack tz_side_channel\n"
        "attack cold_boot\n"
        "attack os_reboot\n"
        "attack 2s_reset frozen\n";
    return fleet::parseScenario(text, "gauntlet");
}

} // namespace sentry::test

#endif // SENTRY_TESTS_GAUNTLET_HH
