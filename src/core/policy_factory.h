#ifndef LSS_CORE_POLICY_FACTORY_H_
#define LSS_CORE_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/config.h"

namespace lss {

/// The cleaning-algorithm variants evaluated in the paper (§6.1.3 plus
/// the Figure 3 ablations). Each variant is a (policy, store-config
/// adjustments) pair: e.g. the MDC ablations share MdcPolicy but toggle
/// the write-sorting flags, and multi-log disables the sort buffer
/// because its separation mechanism is the logs themselves. The full
/// variant -> (policy, config flags) matrix is in docs/POLICIES.md.
enum class Variant {
  kAge,
  kGreedy,
  kCostBenefit,
  kMultiLog,
  kMultiLogOpt,
  kMdc,
  kMdcOpt,
  kMdcNoSepUser,    // Figure 3: user writes not sorted
  kMdcNoSepUserGc,  // Figure 3: neither user nor GC writes sorted
};

/// All variants, in the order the paper's figures list them.
std::vector<Variant> AllVariants();

/// The paper's label for a variant ("age", "greedy", "cost-benefit",
/// "multi-log", "multi-log-opt", "MDC", "MDC-opt", "MDC-no-sep-user",
/// "MDC-no-sep-user-GC").
std::string VariantName(Variant v);

/// Parses a label produced by VariantName; returns false if unknown.
bool ParseVariant(const std::string& name, Variant* out);

/// True if the variant needs an exact-frequency oracle installed on the
/// store (the *-opt variants).
bool VariantNeedsOracle(Variant v);

/// Creates the policy object for a variant.
std::unique_ptr<CleaningPolicy> MakePolicy(Variant v);

/// Applies the variant's placement/buffering conventions to `config`:
///  - age / greedy / cost-benefit: unbuffered arrival-order placement,
///    no frequency separation (they predate the idea);
///  - multi-log(-opt): unbuffered, GC re-writes re-enter the same log
///    stream as user writes;
///  - MDC family: buffered + sorted placement per the ablation flags.
/// Leaves device geometry (segments, trigger, batch, buffer size) alone
/// except that non-buffering variants zero the write buffer.
void ApplyVariantConfig(Variant v, StoreConfig* config);

/// Parses a segment-backend selection string and applies it to
/// `config`'s backend fields (core/io_backend.h). Accepted specs:
///   "null"               bookkeeping only (the default)
///   "file:DIR"           per-shard segment files under DIR, fsync on seal
///   "file-nosync:DIR"    same without fsync (page-cache speed)
///   "file-direct:DIR"    same with O_DIRECT payload writes
/// Benches take this via LSS_BENCH_BACKEND; quickstart shows direct use.
Status ApplyBackendSpec(const std::string& spec, StoreConfig* config);

/// The spec string describing `config`'s current backend selection
/// (inverse of ApplyBackendSpec, for bench labels).
std::string BackendSpecName(const StoreConfig& config);

}  // namespace lss

#endif  // LSS_CORE_POLICY_FACTORY_H_
