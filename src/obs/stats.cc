#include "src/obs/stats.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"

namespace dseq {
namespace obs {
namespace {

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  return buf;
}

/// max/mean ratio over the per-reducer byte loads (empty reducers count);
/// negative when there is no data to summarize.
double ReducerMaxToMean(const std::vector<uint64_t>& reducer_bytes) {
  if (reducer_bytes.empty()) return -1.0;
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t b : reducer_bytes) {
    total += b;
    max = std::max(max, b);
  }
  if (total == 0) return -1.0;
  double mean = static_cast<double>(total) /
                static_cast<double>(reducer_bytes.size());
  return static_cast<double>(max) / mean;
}

void AppendUint(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

std::string RenderBlock(const std::string& prefix, const DataflowMetrics& m,
                        bool proc_backend) {
  std::string out = prefix;
  out.append(": map ");
  out.append(FormatSeconds(m.map_seconds));
  out.append(", reduce ");
  out.append(FormatSeconds(m.reduce_seconds));
  out.append(", shuffle ");
  AppendUint(&out, m.shuffle_bytes);
  out.append(" bytes (");
  AppendUint(&out, m.shuffle_records);
  out.append(" records), compressed ");
  AppendUint(&out, m.shuffle_compressed_bytes);
  out.append(" bytes, reducer max/mean ");
  double ratio = ReducerMaxToMean(m.reducer_bytes);
  if (ratio < 0.0) {
    out.append("n/a");
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ratio);
    out.append(buf);
  }
  out.append("\n");

  out.append(prefix);
  out.append(" spill: ");
  AppendUint(&out, m.spill_files);
  out.append(" runs, ");
  AppendUint(&out, m.spill_bytes_written);
  out.append(" bytes written, ");
  AppendUint(&out, m.spill_merge_passes);
  out.append(" merge passes\n");

  out.append(prefix);
  out.append(" proc: ");
  if (!proc_backend) {
    out.append("n/a (local backend)\n");
  } else {
    AppendUint(&out, m.proc_task_attempts);
    out.append(" task attempts (");
    AppendUint(&out, m.proc_task_retries);
    out.append(" retries), ");
    AppendUint(&out, m.proc_worker_kills);
    out.append(" stall kills, ");
    AppendUint(&out, m.proc_workers_respawned);
    out.append(" workers respawned, ");
    AppendUint(&out, m.proc_segment_chunks);
    out.append(" segment chunks, ");
    AppendUint(&out, m.proc_parked_segments);
    out.append(" parked segments\n");
  }
  return out;
}

}  // namespace

std::string RenderStats(const std::vector<DataflowMetrics>& rounds,
                        bool proc_backend) {
  std::string out;
  DataflowMetrics total;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (rounds.size() > 1) {
      out.append(RenderBlock("round " + std::to_string(r + 1), rounds[r],
                             proc_backend));
    }
    total.Accumulate(rounds[r]);
  }
  out.append(RenderBlock(rounds.size() == 1 ? "run" : "total", total,
                         proc_backend));
  return out;
}

std::string DataflowMetricsJson(const DataflowMetrics& m, bool proc_backend) {
  std::string out = "{\"backend\":\"";
  out.append(proc_backend ? "proc" : "local");
  out.append("\"");
  auto field_u = [&out](const char* name, uint64_t v) {
    out.append(",\"");
    out.append(name);
    out.append("\":");
    out.append(std::to_string(v));
  };
  auto field_d = [&out](const char* name, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.6f", name, v);
    out.append(buf);
  };
  field_d("map_seconds", m.map_seconds);
  field_d("reduce_seconds", m.reduce_seconds);
  field_u("shuffle_bytes", m.shuffle_bytes);
  field_u("shuffle_compressed_bytes", m.shuffle_compressed_bytes);
  field_u("shuffle_records", m.shuffle_records);
  field_u("map_output_records", m.map_output_records);
  field_u("spill_files", m.spill_files);
  field_u("spill_bytes_written", m.spill_bytes_written);
  field_u("spill_merge_passes", m.spill_merge_passes);
  field_u("proc_task_attempts", m.proc_task_attempts);
  field_u("proc_task_retries", m.proc_task_retries);
  field_u("proc_worker_kills", m.proc_worker_kills);
  field_u("proc_workers_respawned", m.proc_workers_respawned);
  field_u("proc_segment_chunks", m.proc_segment_chunks);
  field_u("proc_parked_segments", m.proc_parked_segments);
  out.append(",\"reducer_bytes\":[");
  for (size_t i = 0; i < m.reducer_bytes.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(std::to_string(m.reducer_bytes[i]));
  }
  out.append("]}");
  return out;
}

std::string MetricsReportJson(const DataflowMetrics* aggregate,
                              bool proc_backend) {
  std::string out = "{\"dataflow\":";
  if (aggregate == nullptr) {
    out.append("null");
  } else {
    out.append(DataflowMetricsJson(*aggregate, proc_backend));
  }
  out.append(",\"registry\":");
  out.append(RegistryJson());
  out.append("}");
  return out;
}

}  // namespace obs
}  // namespace dseq
