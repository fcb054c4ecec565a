#include "fleet/placement.h"

#include <cassert>

#include "model/classify.h"

namespace numaio::fleet {

void ClassPlacer::refresh(std::span<const double> capacity_gbps,
                          sim::Ns now) {
  assert(static_cast<int>(capacity_gbps.size()) == num_hosts_);
  const std::vector<int> class_of =
      model::gap_classes(capacity_gbps, kPlacerRelGap);
  int num = 0;
  for (const int c : class_of) num = num > c + 1 ? num : c + 1;
  classes_.assign(static_cast<std::size_t>(num), {});
  for (std::size_t h = 0; h < class_of.size(); ++h) {
    classes_[static_cast<std::size_t>(class_of[h])].push_back(
        static_cast<int>(h));
  }
  if (cursor_ >= classes_.size()) cursor_ = 0;
  refreshed_ = true;
  last_refresh_ = now;
}

int ClassPlacer::pick(std::span<const int> live_load,
                      const std::function<bool(int)>& eligible) {
  assert(static_cast<int>(live_load.size()) == num_hosts_);
  assert(!classes_.empty() && "pick before the first refresh");
  const auto load = [&live_load](int h) {
    return live_load[static_cast<std::size_t>(h)];
  };
  const std::size_t k = classes_.size();
  for (std::size_t attempt = 0; attempt < k; ++attempt) {
    const std::size_t cls = (cursor_ + attempt) % k;
    int best = -1;
    for (const int h : classes_[cls]) {
      if (!eligible(h)) continue;
      if (best < 0 || load(h) < load(best)) best = h;
    }
    if (best >= 0) {
      cursor_ = (cursor_ + attempt + 1) % k;
      if (attempt == 0) {
        ++spread_picks_;
      } else {
        ++fallback_picks_;
      }
      return best;
    }
  }
  return -1;
}

}  // namespace numaio::fleet
