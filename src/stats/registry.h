// StatsRegistry: the paper's plug-in statistics architecture (§4). Framework
// components register named StatSources; the simulator prints their reports
// every 15 simulated minutes and at the end of the run. A source has one
// report, its StatJson, and every number in it is cumulative: a reader who
// wants one interval takes the difference of two reports.
#ifndef PFS_STATS_REGISTRY_H_
#define PFS_STATS_REGISTRY_H_

#include <string>
#include <vector>

namespace pfs {

class Scheduler;

class StatSource {
 public:
  virtual ~StatSource() = default;

  virtual std::string stat_name() const = 0;

  // One JSON object, on one line, with every number the source reports.
  virtual std::string StatJson() const = 0;
};

class StatsRegistry {
 public:
  // Registration is non-owning; sources must outlive the registry user.
  // `owner` names the scheduler shard whose loop the source's counters are
  // written from (nullptr = not shard-affine, safe to read from anywhere);
  // the sharded StatsSampler uses it to read each source from its own shard.
  void Register(StatSource* source, Scheduler* owner = nullptr) {
    sources_.push_back(source);
    owners_.push_back(owner);
  }

  // Each source as a "== <stat_name> ==" line followed by its StatJson() on
  // one line: the report Patsy and `run_scenario --stats` print.
  std::string ReportAll() const;

  // `{"<stat_name>": <StatJson()>, ...}` — the same objects as one JSON
  // document, so bench runs can append results to a BENCH_*.json file.
  std::string ReportJson() const;

  // The `"<stat_name>":<StatJson()>` fragments (comma-joined, no outer
  // braces) of the sources owned by `owner` — plus the unowned ones when
  // `include_unowned` is set. The sharded sampler collects one fragment
  // string per shard and splices them into a single object.
  std::string ReportJsonOwned(const Scheduler* owner, bool include_unowned) const;

  const std::vector<StatSource*>& sources() const { return sources_; }

 private:
  std::vector<StatSource*> sources_;
  std::vector<Scheduler*> owners_;  // parallel to sources_
};

}  // namespace pfs

#endif  // PFS_STATS_REGISTRY_H_
