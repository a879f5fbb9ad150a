#include "btree/eviction_policy.h"

#include "btree/eviction/clock_eviction.h"
#include "btree/eviction/lru_eviction.h"
#include "btree/eviction/two_q_eviction.h"

namespace lss {

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   FrameStateView* frames) {
  switch (kind) {
    case EvictionPolicyKind::kExactLru:
      return std::make_unique<LruEvictionPolicy>(frames);
    case EvictionPolicyKind::kClock:
      return std::make_unique<ClockEvictionPolicy>(frames);
    case EvictionPolicyKind::kTwoQ:
      return std::make_unique<TwoQEvictionPolicy>(frames);
  }
  return std::make_unique<LruEvictionPolicy>(frames);
}

bool ParseEvictionPolicy(const std::string& name, EvictionPolicyKind* out) {
  if (name == "lru") {
    *out = EvictionPolicyKind::kExactLru;
  } else if (name == "clock") {
    *out = EvictionPolicyKind::kClock;
  } else if (name == "2q") {
    *out = EvictionPolicyKind::kTwoQ;
  } else {
    return false;
  }
  return true;
}

std::string EvictionPolicyName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kExactLru:
      return "lru";
    case EvictionPolicyKind::kClock:
      return "clock";
    case EvictionPolicyKind::kTwoQ:
      return "2q";
  }
  return "lru";
}

}  // namespace lss
