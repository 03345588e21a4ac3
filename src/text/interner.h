#ifndef AUTOEM_TEXT_INTERNER_H_
#define AUTOEM_TEXT_INTERNER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace autoem {

/// Thread-safe token → uint32 ID interner backing the token-set fast path.
///
/// One interner is shared by the left- and right-table TableTokenCache
/// builds (see FeatureGenerator::Prepare), so equal tokens always map to
/// equal IDs across both tables — the property the linear-merge set kernels
/// (JaccardSimilarityIds etc.) rely on.
///
/// IDs are dense-ish but their *values* carry no meaning: set measures only
/// test equality, so outputs are bit-identical regardless of the insertion
/// order (and therefore regardless of thread count; see
/// tests/parallel_determinism_test.cc). The map is sharded by token hash to
/// keep contention negligible during parallel cache builds.
class TokenInterner {
 public:
  TokenInterner() = default;
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  /// Returns the ID for `token`, interning it on first sight. The token's
  /// bytes are copied into the interner on insertion, so callers may pass
  /// views into transient scratch buffers.
  uint32_t IdOf(std::string_view token);

  /// Number of distinct tokens interned so far.
  size_t size() const;

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> map;
  };

  static constexpr size_t kShardBits = 4;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  Shard shards_[kShards];
};

/// Interns every token and writes the sorted, duplicate-free ID set to `out`
/// (cleared first): the form the token-set kernels and the blocking join
/// consume.
void InternSortedUnique(TokenInterner* interner,
                        const std::vector<std::string_view>& tokens,
                        std::vector<uint32_t>* out);

}  // namespace autoem

#endif  // AUTOEM_TEXT_INTERNER_H_
