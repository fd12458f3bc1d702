#ifndef ARIEL_UTIL_FOOTPRINT_H_
#define ARIEL_UTIL_FOOTPRINT_H_

#include <cstddef>

namespace ariel {

/// Approximate heap bytes of a node-based hash container's own structure
/// (bucket array plus one allocation per element holding the value, the
/// next-node link and the allocator's header), excluding whatever the
/// elements own. Footprint accounting only.
template <typename HashMap>
size_t HashMapFootprintBytes(const HashMap& map) {
  // A map that never grew uses a single bucket held inside the container.
  const size_t buckets = map.bucket_count() > 1 ? map.bucket_count() : 0;
  return buckets * sizeof(void*) +
         map.size() * (sizeof(typename HashMap::value_type) +
                       2 * sizeof(void*));
}

}  // namespace ariel

#endif  // ARIEL_UTIL_FOOTPRINT_H_
