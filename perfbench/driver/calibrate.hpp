// Machine-speed probe: a fixed burst of integer and cache work shared by
// `lanes` threads, independent of the program under test. The benchmark
// times it between units of work to track how fast the machine currently
// runs.
#pragma once

namespace perfbench {

/// Median wall time in seconds of five bursts.
double calibrate(int lanes);

/// Keeps every lane busy with probes for about a second. After a mostly
/// idle stretch (set-up) the first probes run up to 4x slow; timing starts
/// only once the machine is back at speed.
void warm_up(int lanes);

}  // namespace perfbench
