#include "text/interner.h"

#include <algorithm>

#include "common/logging.h"

namespace autoem {

uint32_t TokenInterner::IdOf(std::string_view token) {
  const size_t hash = StringHash{}(token);
  Shard& shard = shards_[hash & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(token);
  if (it != shard.map.end()) return it->second;
  // Shard-local counter in the high bits, shard index in the low bits:
  // globally unique without cross-shard coordination.
  const size_t local = shard.map.size();
  AUTOEM_CHECK_MSG(local < (size_t{1} << (32 - kShardBits)),
                   "TokenInterner shard overflow");
  const uint32_t id = static_cast<uint32_t>((local << kShardBits) |
                                            (hash & (kShards - 1)));
  shard.map.emplace(std::string(token), id);
  return id;
}

size_t TokenInterner::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void InternSortedUnique(TokenInterner* interner,
                        const std::vector<std::string_view>& tokens,
                        std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(tokens.size());
  for (const std::string_view tok : tokens) {
    out->push_back(interner->IdOf(tok));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace autoem
