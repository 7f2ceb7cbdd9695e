// The benchmark's output: named metrics with units, printed one per line as
// "name value unit" (plus an optional note such as a percentile's sample
// count), and the machine-readable result file run.py turns into the final
// JSON line.
#ifndef PFSBENCH_REPORT_H_
#define PFSBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pfsbench {

// a / b, or 0 when b is 0: a layer that did no work reports 0, never a NaN
// (which the JSON result could not carry).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string note = {}) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  void Print(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "%-28s %16.6f %-8s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                   m.note.empty() ? "" : "  # ", m.note.c_str());
    }
  }

  // {"name":{"value":v,"unit":"u"},...} with every digit of each value.
  std::string MetricsJson() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      if (out.size() > 1) {
        out += ",";
      }
      out += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace pfsbench

#endif  // PFSBENCH_REPORT_H_
