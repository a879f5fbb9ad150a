#include "core/policy_factory.h"

#include "core/policies/age_policy.h"
#include "core/policies/cost_benefit_policy.h"
#include "core/policies/greedy_policy.h"
#include "core/policies/mdc_policy.h"
#include "core/policies/multilog_policy.h"

namespace lss {

std::vector<Variant> AllVariants() {
  return {Variant::kAge,         Variant::kGreedy,
          Variant::kCostBenefit, Variant::kMultiLog,
          Variant::kMultiLogOpt, Variant::kMdc,
          Variant::kMdcOpt,      Variant::kMdcNoSepUser,
          Variant::kMdcNoSepUserGc};
}

std::string VariantName(Variant v) {
  switch (v) {
    case Variant::kAge: return "age";
    case Variant::kGreedy: return "greedy";
    case Variant::kCostBenefit: return "cost-benefit";
    case Variant::kMultiLog: return "multi-log";
    case Variant::kMultiLogOpt: return "multi-log-opt";
    case Variant::kMdc: return "MDC";
    case Variant::kMdcOpt: return "MDC-opt";
    case Variant::kMdcNoSepUser: return "MDC-no-sep-user";
    case Variant::kMdcNoSepUserGc: return "MDC-no-sep-user-GC";
  }
  return "unknown";
}

bool ParseVariant(const std::string& name, Variant* out) {
  for (Variant v : AllVariants()) {
    if (VariantName(v) == name) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool VariantNeedsOracle(Variant v) {
  return v == Variant::kMultiLogOpt || v == Variant::kMdcOpt;
}

std::unique_ptr<CleaningPolicy> MakePolicy(Variant v) {
  switch (v) {
    case Variant::kAge:
      return std::make_unique<AgePolicy>();
    case Variant::kGreedy:
      return std::make_unique<GreedyPolicy>();
    case Variant::kCostBenefit:
      return std::make_unique<CostBenefitPolicy>();
    case Variant::kMultiLog:
      return std::make_unique<MultiLogPolicy>(/*use_exact_frequency=*/false);
    case Variant::kMultiLogOpt:
      return std::make_unique<MultiLogPolicy>(/*use_exact_frequency=*/true);
    case Variant::kMdc:
    case Variant::kMdcNoSepUser:
    case Variant::kMdcNoSepUserGc:
      return std::make_unique<MdcPolicy>(/*use_exact_frequency=*/false);
    case Variant::kMdcOpt:
      return std::make_unique<MdcPolicy>(/*use_exact_frequency=*/true);
  }
  return nullptr;
}

Status ApplyBackendSpec(const std::string& spec, StoreConfig* config) {
  if (spec == "null" || spec.empty()) {
    config->backend = BackendKind::kNull;
    config->backend_dir.clear();
    config->backend_fsync = true;
    return Status::OK();
  }
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string dir =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind != "file" && kind != "file-nosync") {
    return Status::InvalidArgument("unknown backend spec '" + spec +
                                   "' (want null | file:DIR | file-nosync:DIR)");
  }
  if (dir.empty()) {
    return Status::InvalidArgument("backend spec '" + spec +
                                   "' is missing the directory");
  }
  config->backend = BackendKind::kFile;
  config->backend_dir = dir;
  config->backend_fsync = kind != "file-nosync";
  return Status::OK();
}

std::string BackendSpecName(const StoreConfig& config) {
  if (config.backend == BackendKind::kNull) return "null";
  return (config.backend_fsync ? "file:" : "file-nosync:") +
         config.backend_dir;
}

void ApplyVariantConfig(Variant v, StoreConfig* config) {
  switch (v) {
    case Variant::kAge:
    case Variant::kGreedy:
    case Variant::kCostBenefit:
      config->write_buffer_segments = 0;
      config->separate_user_writes = false;
      config->separate_gc_writes = false;
      config->gc_shares_user_stream = false;
      break;
    case Variant::kMultiLog:
    case Variant::kMultiLogOpt:
      config->write_buffer_segments = 0;
      config->separate_user_writes = false;
      config->separate_gc_writes = false;
      config->gc_shares_user_stream = true;
      break;
    case Variant::kMdc:
    case Variant::kMdcOpt:
      config->separate_user_writes = true;
      config->separate_gc_writes = true;
      config->gc_shares_user_stream = false;
      break;
    case Variant::kMdcNoSepUser:
      config->separate_user_writes = false;
      config->separate_gc_writes = true;
      config->gc_shares_user_stream = false;
      break;
    case Variant::kMdcNoSepUserGc:
      config->separate_user_writes = false;
      config->separate_gc_writes = false;
      config->gc_shares_user_stream = false;
      break;
  }
}

}  // namespace lss
