#include "metrics/kmetrics.h"

#include "kern/object.h"
#include "sync/lockstat.h"

namespace mach {

namespace {

double lockstat_total(bool contended) {
  double sum = 0;
  for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
    sum += static_cast<double>(contended ? e.contended : e.acquisitions);
  }
  return sum;
}

}  // namespace

kmetrics_t::kmetrics_t()
    : kern_live_objects("machlock_kern_live_objects", "kobject instances currently alive",
                        [] { return static_cast<double>(kobject::live_objects()); }),
      sync_acquisitions("machlock_sync_acquisitions", "lockstat: acquisitions across all locks",
                        [] { return lockstat_total(false); }),
      sync_contended("machlock_sync_contended", "lockstat: contended acquisitions across all locks",
                     [] { return lockstat_total(true); }) {}

kmetrics_t g_kmetrics;

}  // namespace mach
