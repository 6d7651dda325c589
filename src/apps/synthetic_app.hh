/**
 * @file
 * A synthetic sensitive application driven by an AppProfile: it owns a
 * process with a heap VMA and a DMA-region VMA, populates them with
 * recognisable plaintext (so attacks have something to find), and
 * replays the paper's workload phases — resume-after-unlock and the
 * scripted foreground run.
 */

#ifndef SENTRY_APPS_SYNTHETIC_APP_HH
#define SENTRY_APPS_SYNTHETIC_APP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "apps/app_profile.hh"
#include "os/kernel.hh"

namespace sentry::apps
{

/** One instantiated sensitive app. */
class SyntheticApp
{
  public:
    /** Create the process and map its VMAs in @p kernel. */
    SyntheticApp(os::Kernel &kernel, const AppProfile &profile);

    /**
     * Attach to an existing process created by an earlier SyntheticApp
     * (typically on a forked device, where the process and its VMAs
     * arrive via the snapshot). Recovers the profile from the process
     * name and the heap/DMA bases from the mapped VMAs; fatal when the
     * process was not built by this class.
     */
    SyntheticApp(os::Kernel &kernel, os::Process &process);

    /** @return the underlying process. */
    os::Process &process() { return *process_; }

    /** @return the profile. */
    const AppProfile &profile() const { return profile_; }

    /**
     * Fill the heap with app data laced with @p secret every few pages
     * (the e-mails/photos/web-history an attacker wants).
     */
    void populate(std::span<const std::uint8_t> secret);

    /**
     * Resume after unlock: touch the resume working set.
     * @return simulated seconds taken.
     */
    double resume();

    /**
     * Run the scripted workload: touches scriptTouchedBytes spread over
     * scriptSeconds of foreground compute.
     * @return total simulated seconds (compute + decryption overhead).
     */
    double runScript();

    /** @return heap VMA base (tests poke specific pages). */
    VirtAddr heapBase() const { return heapBase_; }

  private:
    os::Kernel &kernel_;
    AppProfile profile_;
    os::Process *process_;
    VirtAddr heapBase_ = 0;
    VirtAddr dmaBase_ = 0;
};

} // namespace sentry::apps

#endif // SENTRY_APPS_SYNTHETIC_APP_HH
