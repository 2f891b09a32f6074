// A fixed host-speed reference kernel. It does the kind of work the
// simulator does per event -- pop and push a binary heap of 1,024 pending
// events, write a 64-byte record, scattered reads and writes over a 4 MiB
// table -- but uses nothing from src/ and allocates nothing while timed.
// An untimed pass over its table and records comes first, so the cache
// state the simulator left behind does not reach the timed part either.
// Timing it between simulation runs measures how fast the shared host runs
// at that moment: on a 4-core x86 container host its time tracked the
// simulator's with correlation 0.86 while both drifted by up to 1.5x over
// tens of seconds.
#pragma once

namespace perfbench {

/// Host seconds the kernel took to process its 250,000 events.
[[nodiscard]] double reference_kernel_seconds();

/// The kernel's time on a quiet host: about the fastest seen inside the
/// benchmark process on the 2.1 GHz 4-core x86 container the bounds were
/// tuned on. Normalised host seconds are host seconds x
/// kReferenceQuietSeconds / kernel seconds measured alongside, i.e. the
/// seconds that quiet host would have taken.
inline constexpr double kReferenceQuietSeconds = 0.019;

}  // namespace perfbench
