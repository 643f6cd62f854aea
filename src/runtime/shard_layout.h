#ifndef DCV_RUNTIME_SHARD_LAYOUT_H_
#define DCV_RUNTIME_SHARD_LAYOUT_H_

#include <string>

#include "common/result.h"

namespace dcv {

/// Balanced contiguous partition of N sites across k shard coordinators:
/// the first (N mod k) shards own ceil(N/k) sites, the rest floor(N/k).
/// A run's layout is fixed when its transport is built.
///
/// Contiguity is what keeps the sharded virtual-time runs bit-identical to
/// the lockstep simulator — iterating shards 0..k-1 and each shard's sites
/// in ascending order visits the global site ids in ascending order, which
/// is exactly the order the single-threaded schemes replay their channel
/// sends in.
struct ShardLayout {
  int num_sites = 0;
  int num_shards = 1;

  /// First site owned by `shard`.
  int ShardStart(int shard) const {
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    return shard * base + (shard < rem ? shard : rem);
  }

  /// Number of sites owned by `shard`.
  int ShardSize(int shard) const {
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    return base + (shard < rem ? 1 : 0);
  }

  /// The shard owning `site`, in O(1) arithmetic.
  int ShardOf(int site) const {
    const int base = num_sites / num_shards;
    const int rem = num_sites % num_shards;
    const int boundary = rem * (base + 1);
    if (site < boundary) {
      return site / (base + 1);
    }
    return rem + (site - boundary) / base;
  }

  /// Sites a full epoch can put in flight toward the most-loaded shard.
  int MaxShardSites() const {
    return (num_sites + num_shards - 1) / num_shards;
  }
};

/// Validates 1 <= num_shards <= num_sites (a shard with zero sites would be
/// a coordinator thread with nothing to coordinate).
inline Result<ShardLayout> MakeShardLayout(int num_sites, int num_shards) {
  if (num_sites < 1) {
    return InvalidArgumentError("shard layout needs at least one site");
  }
  if (num_shards < 1 || num_shards > num_sites) {
    return InvalidArgumentError("num_shards must be in [1, num_sites], got " +
                                std::to_string(num_shards) + " for " +
                                std::to_string(num_sites) + " sites");
  }
  ShardLayout layout;
  layout.num_sites = num_sites;
  layout.num_shards = num_shards;
  return layout;
}

}  // namespace dcv

#endif  // DCV_RUNTIME_SHARD_LAYOUT_H_
