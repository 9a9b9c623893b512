#include "src/obs/metrics.h"

#include <map>
#include <vector>

#include "src/util/common.h"
#include "src/util/sync.h"
#include "src/util/varint.h"

namespace dseq {
namespace obs {
namespace {

// One process-wide registry behind one annotated mutex. The maps only grow
// (metrics live for the process), so GetX can hand out references that stay
// valid after the lock drops; hot sites cache them in static locals anyway.
struct RegistryState {
  Mutex mu;
  std::map<std::string, Counter> counters DSEQ_GUARDED_BY(mu);
  std::map<std::string, Histogram> histograms DSEQ_GUARDED_BY(mu);
};

RegistryState& State() {
  // Never destroyed: metrics outlive every user, including static
  // destructors of other translation units.
  static NoDestructor<RegistryState> s;
  return *s;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view data, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(data, pos, &len)) return false;
  if (data.size() - *pos < len) return false;
  s->assign(data.data() + *pos, len);
  *pos += len;
  return true;
}

}  // namespace

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) total += BucketCount(i);
  return total;
}

Counter& GetCounter(const std::string& name) {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  // Find-or-create in the never-destroyed registry: hot sites cache the
  // returned reference in a static local, so the object must live for the
  // process (map nodes never move).
  return s.counters[name];
}

Histogram& GetHistogram(const std::string& name) {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  return s.histograms[name];
}

std::string RegistryJson() {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (auto& [name, c] : s.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":");
    out.append(std::to_string(c.Value()));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (auto& [name, h] : s.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":{\"count\":");
    out.append(std::to_string(h.TotalCount()));
    out.append(",\"sum\":");
    out.append(std::to_string(h.Sum()));
    out.append(",\"buckets\":{");
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t n = h.BucketCount(i);
      if (n == 0) continue;
      if (!bfirst) out.push_back(',');
      bfirst = false;
      // Key = the bucket's exclusive upper bound 2^i ("0" for the zero
      // bucket, "inf" for the saturated top bucket).
      out.push_back('"');
      if (i == 0) {
        out.append("0");
      } else if (i == Histogram::kBuckets - 1) {
        out.append("inf");
      } else {
        out.append(std::to_string(uint64_t{1} << i));
      }
      out.append("\":");
      out.append(std::to_string(n));
    }
    out.append("}}");
  }
  out.append("}}");
  return out;
}

void AppendRegistryDeltas(std::string* out) {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  // Counters: name + delta since the shipped watermark.
  std::vector<std::pair<std::string_view, uint64_t>> counter_deltas;
  for (auto& [name, c] : s.counters) {
    uint64_t now = c.Value();
    uint64_t base = c.wire_base_.load(std::memory_order_relaxed);
    if (now > base) {
      counter_deltas.emplace_back(name, now - base);
      c.wire_base_.store(now, std::memory_order_relaxed);
    }
  }
  PutVarint(out, counter_deltas.size());
  for (const auto& [name, delta] : counter_deltas) {
    AppendLengthPrefixed(out, name);
    PutVarint(out, delta);
  }
  // Histograms: sparse per-bucket deltas + sum delta.
  std::string hist_block;
  uint64_t num_hists = 0;
  for (auto& [name, h] : s.histograms) {
    std::string buckets;
    uint64_t num_buckets = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t now = h.BucketCount(i);
      uint64_t base = h.bucket_wire_base_[i].load(std::memory_order_relaxed);
      if (now > base) {
        PutVarint(&buckets, static_cast<uint64_t>(i));
        PutVarint(&buckets, now - base);
        h.bucket_wire_base_[i].store(now, std::memory_order_relaxed);
        ++num_buckets;
      }
    }
    uint64_t sum_now = h.Sum();
    uint64_t sum_base = h.sum_wire_base_.load(std::memory_order_relaxed);
    uint64_t sum_delta = sum_now > sum_base ? sum_now - sum_base : 0;
    h.sum_wire_base_.store(sum_now, std::memory_order_relaxed);
    if (num_buckets == 0 && sum_delta == 0) continue;
    ++num_hists;
    AppendLengthPrefixed(&hist_block, name);
    PutVarint(&hist_block, num_buckets);
    hist_block.append(buckets);
    PutVarint(&hist_block, sum_delta);
  }
  PutVarint(out, num_hists);
  out->append(hist_block);
}

bool IngestRegistryDeltas(std::string_view data, size_t* pos) {
  uint64_t num_counters = 0;
  if (!GetVarint(data, pos, &num_counters)) return false;
  for (uint64_t i = 0; i < num_counters; ++i) {
    std::string name;
    uint64_t delta = 0;
    if (!GetLengthPrefixed(data, pos, &name)) return false;
    if (!GetVarint(data, pos, &delta)) return false;
    Counter& c = GetCounter(name);
    c.Add(delta);
    // Ingested foreign deltas count as already shipped: if this process
    // later encodes its own snapshot it must not re-ship them.
    c.wire_base_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t num_hists = 0;
  if (!GetVarint(data, pos, &num_hists)) return false;
  for (uint64_t i = 0; i < num_hists; ++i) {
    std::string name;
    uint64_t num_buckets = 0;
    if (!GetLengthPrefixed(data, pos, &name)) return false;
    if (!GetVarint(data, pos, &num_buckets)) return false;
    if (num_buckets > Histogram::kBuckets) return false;
    Histogram& h = GetHistogram(name);
    for (uint64_t b = 0; b < num_buckets; ++b) {
      uint64_t idx = 0;
      uint64_t delta = 0;
      if (!GetVarint(data, pos, &idx)) return false;
      if (!GetVarint(data, pos, &delta)) return false;
      if (idx >= Histogram::kBuckets) return false;
      h.buckets_[idx].fetch_add(delta, std::memory_order_relaxed);
      h.bucket_wire_base_[idx].fetch_add(delta, std::memory_order_relaxed);
    }
    uint64_t sum_delta = 0;
    if (!GetVarint(data, pos, &sum_delta)) return false;
    h.sum_.fetch_add(sum_delta, std::memory_order_relaxed);
    h.sum_wire_base_.fetch_add(sum_delta, std::memory_order_relaxed);
  }
  return true;
}

void RebaselineRegistryDeltas() {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  for (auto& [name, c] : s.counters) {
    c.wire_base_.store(c.Value(), std::memory_order_relaxed);
  }
  for (auto& [name, h] : s.histograms) {
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      h.bucket_wire_base_[i].store(h.BucketCount(i),
                                    std::memory_order_relaxed);
    }
    h.sum_wire_base_.store(h.Sum(), std::memory_order_relaxed);
  }
}

void ResetMetricsForTest() {
  RegistryState& s = State();
  MutexLock lock(s.mu);
  for (auto& [name, c] : s.counters) {
    c.value_.store(0, std::memory_order_relaxed);
    c.wire_base_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : s.histograms) {
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets_[i].store(0, std::memory_order_relaxed);
      h.bucket_wire_base_[i].store(0, std::memory_order_relaxed);
    }
    h.sum_.store(0, std::memory_order_relaxed);
    h.sum_wire_base_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace dseq
