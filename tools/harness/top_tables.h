// Top-style tables over the kernel's statistics snapshots, printed on
// stdout: the most contended lock names (lock_registry::snapshot()) and
// the largest kmon metrics (kmon::registry::snapshot()). The kernel keeps
// the counts; rendering them is the tools' job.
#pragma once

#include <cstddef>
#include <vector>

#include "metrics/kmon.h"
#include "sync/lockstat.h"

namespace mach {

// The first `max_rows` of `rows` (snapshot order: most contended first)
// as the "lockstat: most contended lock names" table, including hold/wait
// p50/p99 ("-" for a class that was never timed; profiling is
// ktrace-gated).
void print_lockstat_top(const std::vector<lock_stat_entry>& rows, std::size_t max_rows = 20);

// `samples` ranked largest value first (histograms by count).
// max_rows == 0 prints everything.
void print_kmon_top(std::vector<kmon::metric_sample> samples, std::size_t max_rows = 0);

}  // namespace mach
