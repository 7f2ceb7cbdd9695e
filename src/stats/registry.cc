#include "stats/registry.h"

namespace pfs {

std::string StatsRegistry::ReportAll() const {
  std::string out;
  for (const StatSource* source : sources_) {
    out += "== " + source->stat_name() + " ==\n" + source->StatJson() + "\n";
  }
  return out;
}

std::string StatsRegistry::ReportJson() const {
  std::string out = "{";
  for (const StatSource* source : sources_) {
    if (out.size() > 1) {
      out += ",";
    }
    out += "\"" + source->stat_name() + "\":" + source->StatJson();
  }
  out += "}";
  return out;
}

std::string StatsRegistry::ReportJsonOwned(const Scheduler* owner,
                                           bool include_unowned) const {
  std::string out;
  for (size_t i = 0; i < sources_.size(); ++i) {
    const Scheduler* src_owner = owners_[i];
    if (src_owner != owner && !(include_unowned && src_owner == nullptr)) {
      continue;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += "\"" + sources_[i]->stat_name() + "\":" + sources_[i]->StatJson();
  }
  return out;
}

}  // namespace pfs
