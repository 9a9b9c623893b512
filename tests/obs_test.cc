// Observability layer tests: the trace clock, span emission and flushing,
// the wire snapshot codec, the Chrome trace-event JSON export, the metrics
// registry (log2 histogram math, JSON, cross-process delta merge), and the
// fixed-schema stats renderers that back `dseq_cli --stats`.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

// Every test runs with tracing enabled against freshly reset state; the
// trace sink and registry are process-global, so tests must not assume a
// particular *absolute* count of anything other spans could bump.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetTraceForTest();
    obs::ResetMetricsForTest();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::ResetTraceForTest();
    obs::ResetMetricsForTest();
  }
};

// --- Clock ------------------------------------------------------------------

TEST_F(ObsTest, ClockIsMonotonicAndConsistentAcrossAccessors) {
  auto tp = obs::Now();
  int64_t a = obs::NowNs();
  int64_t b = obs::NowNs();
  EXPECT_LE(a, b);
  // ToNs(tp) and NowNs() read the same clock: a point taken before must not
  // land after.
  EXPECT_LE(obs::ToNs(tp), a);
  EXPECT_GE(obs::SecondsSince(tp), 0.0);
}

// --- Span emission and flushing ---------------------------------------------

TEST_F(ObsTest, ScopedSpanLandsInTheSnapshotWithStamps) {
  obs::SetCurrentRound(3);
  {
    DSEQ_TRACE_SPAN("test", "scoped_span");
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "scoped_span");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].round, 3);
  EXPECT_EQ(events[0].process_ordinal, -1);  // coordinator default
  EXPECT_GE(events[0].dur_ns, 0);
  EXPECT_GT(events[0].start_ns, 0);
}

TEST_F(ObsTest, DisabledEmissionRecordsNothing) {
  obs::SetEnabled(false);
  {
    DSEQ_TRACE_SPAN("test", "invisible");
  }
  obs::EmitSpan("test", "also_invisible", 1, 2);
  EXPECT_TRUE(obs::SnapshotTrace().empty());
}

TEST_F(ObsTest, EachSpanIsCollectedExactlyOnceAcrossFlushes) {
  obs::EmitSpan("test", "first", 10, 20);
  EXPECT_EQ(obs::TakeTrace().size(), 1u);
  // The span was moved out; a second flush must not resurrect it.
  EXPECT_TRUE(obs::TakeTrace().empty());
  obs::EmitSpan("test", "second", 30, 40);
  std::vector<obs::TraceEvent> events = obs::TakeTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

TEST_F(ObsTest, RetrospectiveSpanClampsInvertedIntervals) {
  obs::EmitSpan("test", "inverted", 100, 50);
  std::vector<obs::TraceEvent> events = obs::SnapshotTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_ns, 0);
}

// --- Wire snapshot codec ----------------------------------------------------

TEST_F(ObsTest, WireSnapshotRoundTripsSpansAndMetricDeltas) {
  obs::SetCurrentRound(2);
  obs::EmitSpan("worker", "map_task", 1000, 5000);
  obs::GetCounter("test.round_trip").Add(7);
  obs::GetHistogram("test.rt_bytes").Observe(300);
  std::string payload = obs::EncodeWireSnapshot();
  // Encoding drained this process's spans and shipped the metric deltas;
  // zero the registry so the ingest below is what restores it.
  EXPECT_TRUE(obs::SnapshotTrace().empty());
  obs::ResetMetricsForTest();

  ASSERT_TRUE(obs::IngestWireSnapshot(payload, /*fallback=*/4));
  std::vector<obs::TraceEvent> events = obs::SnapshotTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "map_task");
  EXPECT_EQ(events[0].category, "worker");
  EXPECT_EQ(events[0].start_ns, 1000);
  EXPECT_EQ(events[0].dur_ns, 4000);
  EXPECT_EQ(events[0].round, 2);
  // The span carried ordinal -1 (emitted by a coordinator-ordinal process),
  // so ingest stamps the fallback — the frame's worker slot.
  EXPECT_EQ(events[0].process_ordinal, 4);
  EXPECT_EQ(obs::GetCounter("test.round_trip").Value(), 7u);
  EXPECT_EQ(obs::GetHistogram("test.rt_bytes").TotalCount(), 1u);
  EXPECT_EQ(obs::GetHistogram("test.rt_bytes").Sum(), 300u);
}

TEST_F(ObsTest, RepeatedSnapshotsShipOnlyIncrements) {
  obs::GetCounter("test.inc").Add(5);
  std::string first = obs::EncodeWireSnapshot();
  obs::GetCounter("test.inc").Add(2);
  std::string second = obs::EncodeWireSnapshot();

  obs::ResetMetricsForTest();
  ASSERT_TRUE(obs::IngestWireSnapshot(first, 0));
  ASSERT_TRUE(obs::IngestWireSnapshot(second, 0));
  // 5 then +2, not 5 then 7: the second snapshot is a delta.
  EXPECT_EQ(obs::GetCounter("test.inc").Value(), 7u);
}

TEST_F(ObsTest, IngestedDeltasAreNotReShipped) {
  obs::GetCounter("test.noecho").Add(3);
  std::string payload = obs::EncodeWireSnapshot();
  obs::ResetMetricsForTest();
  ASSERT_TRUE(obs::IngestWireSnapshot(payload, 0));
  // The coordinator's own next snapshot must not echo the worker's data
  // back — foreign deltas count as already shipped.
  std::string next = obs::EncodeWireSnapshot();
  obs::ResetMetricsForTest();
  ASSERT_TRUE(obs::IngestWireSnapshot(next, 0));
  EXPECT_EQ(obs::GetCounter("test.noecho").Value(), 0u);
}

TEST_F(ObsTest, MalformedWirePayloadIsRejected) {
  EXPECT_FALSE(obs::IngestWireSnapshot("", 0));
  EXPECT_FALSE(obs::IngestWireSnapshot("\x7f", 0));  // wrong version
  obs::EmitSpan("test", "span", 1, 2);
  std::string payload = obs::EncodeWireSnapshot();
  EXPECT_FALSE(
      obs::IngestWireSnapshot(payload.substr(0, payload.size() / 2), 0));
}

// A snapshot of one span with the given varint fields, spliced from the
// real encoder's empty snapshot (version byte, span count 0, registry
// block).
std::string OneSpanSnapshot(uint64_t start_ns, uint64_t dur_ns,
                            uint64_t thread_ordinal) {
  const std::string empty = obs::EncodeWireSnapshot();
  std::string out = empty.substr(0, 1);
  PutVarint(&out, 1);
  for (std::string_view s : {"test", "span"}) {
    PutVarint(&out, s.size());
    out.append(s);
  }
  PutVarint(&out, start_ns);
  PutVarint(&out, dur_ns);
  PutVarint(&out, 0);  // zigzag(process ordinal 0)
  PutVarint(&out, thread_ordinal);
  PutVarint(&out, 0);  // zigzag(round 0)
  return out + empty.substr(2);
}

TEST_F(ObsTest, WireSnapshotSpliceIsWellFormed) {
  ASSERT_TRUE(obs::IngestWireSnapshot(OneSpanSnapshot(1000, 500, 3), 0));
  std::vector<obs::TraceEvent> events = obs::SnapshotTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start_ns, 1000);
  EXPECT_EQ(events[0].dur_ns, 500);
  EXPECT_EQ(events[0].thread_ordinal, 3);
}

// Span times and thread ordinals are written from non-negative values; a
// larger varint would wrap negative and make --trace-out write a number
// like -1.-501, which is not JSON. Each such field rejects the snapshot.
TEST_F(ObsTest, WireSpanStartBeyondInt64IsRejected) {
  const uint64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(obs::IngestWireSnapshot(OneSpanSnapshot(max + 1, 500, 0), 0));
  EXPECT_FALSE(obs::IngestWireSnapshot(OneSpanSnapshot(~uint64_t{0}, 1, 0), 0));
  EXPECT_TRUE(obs::SnapshotTrace().empty());
  EXPECT_TRUE(obs::IngestWireSnapshot(OneSpanSnapshot(max, 0, 0), 0));
}

TEST_F(ObsTest, WireSpanDurationBeyondInt64IsRejected) {
  const uint64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(obs::IngestWireSnapshot(OneSpanSnapshot(0, max + 1, 0), 0));
  EXPECT_TRUE(obs::SnapshotTrace().empty());
  EXPECT_TRUE(obs::IngestWireSnapshot(OneSpanSnapshot(0, max, 0), 0));
}

TEST_F(ObsTest, WireThreadOrdinalBeyondIntIsRejected) {
  const uint64_t max = INT_MAX;
  EXPECT_FALSE(obs::IngestWireSnapshot(OneSpanSnapshot(0, 1, max + 1), 0));
  EXPECT_TRUE(obs::SnapshotTrace().empty());
  ASSERT_TRUE(obs::IngestWireSnapshot(OneSpanSnapshot(0, 1, max), 0));
  EXPECT_EQ(obs::SnapshotTrace()[0].thread_ordinal, INT_MAX);
}

// --- Chrome trace-event JSON ------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonCarriesTheSchemaFields) {
  obs::SetCurrentRound(1);
  obs::EmitSpan("engine", "map_shard", 2'500, 7'500);
  std::string json = obs::ChromeTraceJson();
  // Envelope + coordinator metadata.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  // The span: microsecond timestamps with the nanosecond remainder kept as
  // a fractional part, coordinator pid 0.
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"map_shard\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"round\":1}"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonMapsWorkerOrdinalsToDistinctPids) {
  obs::SetProcessOrdinal(1);
  obs::EmitSpan("worker", "map_task", 1000, 2000);
  std::string worker1 = obs::EncodeWireSnapshot();
  obs::SetProcessOrdinal(0);
  obs::EmitSpan("worker", "map_task", 1500, 2500);
  std::string worker0 = obs::EncodeWireSnapshot();
  obs::SetProcessOrdinal(-1);
  ASSERT_TRUE(obs::IngestWireSnapshot(worker0, 0));
  ASSERT_TRUE(obs::IngestWireSnapshot(worker1, 1));
  std::string json = obs::ChromeTraceJson();
  // pid k+1 = worker ordinal k, each with its own metadata record.
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker 1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonExportsTheLargestIngestedOrdinal) {
  // A snapshot's process ordinal is any int the sender wrote; pid
  // ordinal + 1 must not overflow, nor size anything by the ordinal.
  obs::SetProcessOrdinal(INT_MAX);
  obs::EmitSpan("worker", "map_task", 1000, 2000);
  std::string snapshot = obs::EncodeWireSnapshot();
  obs::SetProcessOrdinal(-1);
  ASSERT_TRUE(obs::IngestWireSnapshot(snapshot, 0));
  std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"pid\":2147483648,"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker 2147483647\"}"),
            std::string::npos);
}

// --- Metrics registry -------------------------------------------------------

TEST(HistogramTest, BucketIndexIsLog2WithZeroAndSaturation) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1);   // [1,2)
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2);   // [2,4)
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3);   // [4,8)
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11);
  // The top bucket saturates.
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::Histogram::kBuckets - 1);
}

TEST_F(ObsTest, RegistryJsonListsEveryKindWithSparseBuckets) {
  obs::GetCounter("test.json_counter").Add(11);
  obs::Histogram& h = obs::GetHistogram("test.json_hist");
  h.Observe(0);
  h.Observe(5);
  h.Observe(6);
  std::string json = obs::RegistryJson();
  EXPECT_NE(json.find("\"test.json_counter\":11"), std::string::npos);
  // Bucket keys are exclusive upper bounds: zeros under "0", [4,8) under
  // "8"; untouched buckets are omitted.
  EXPECT_NE(json.find("\"test.json_hist\":{\"count\":3,\"sum\":11,"
                      "\"buckets\":{\"0\":1,\"8\":2}}"),
            std::string::npos);
}

// --- Stats renderers --------------------------------------------------------

DataflowMetrics SampleMetrics() {
  DataflowMetrics m;
  m.map_seconds = 1.5;
  m.reduce_seconds = 0.5;
  m.shuffle_bytes = 4096;
  m.shuffle_records = 100;
  m.reducer_bytes = {1024, 3072};
  m.spill_files = 2;
  m.spill_bytes_written = 2048;
  m.spill_merge_passes = 1;
  return m;
}

std::vector<std::string> Lines(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size();
    out.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

TEST(StatsRenderTest, OneRoundReportIsTheRunBlock) {
  DataflowMetrics m = SampleMetrics();
  std::vector<std::string> lines =
      Lines(obs::RenderStats({m}, /*proc_backend=*/false));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("run: map 1.500s, reduce 0.500s, shuffle 4096", 0),
            0u);
  EXPECT_EQ(lines[1], "run spill: 2 runs, 2048 bytes written, 1 merge passes");
  EXPECT_EQ(lines[2], "run proc: n/a (local backend)");
}

TEST(StatsRenderTest, TwoRoundReportRendersPerRoundAndTotalBlocks) {
  DataflowMetrics first = SampleMetrics();
  DataflowMetrics second = SampleMetrics();
  std::string report =
      obs::RenderStats({first, second}, /*proc_backend=*/false);
  EXPECT_EQ(Lines(report).size(), 9u);
  EXPECT_NE(report.find("round 1:"), std::string::npos);
  EXPECT_NE(report.find("round 2:"), std::string::npos);
  // The total block is the field-wise sum of the rounds.
  EXPECT_NE(report.find("total: map 3.000s, reduce 1.000s, shuffle 8192"),
            std::string::npos);
  EXPECT_EQ(report.find("run:"), std::string::npos);
}

TEST(StatsRenderTest, LocalAndProcRenderTheSameFieldSet) {
  DataflowMetrics m = SampleMetrics();
  for (size_t rounds : {1, 2}) {
    SCOPED_TRACE(std::to_string(rounds) + " rounds");
    std::vector<DataflowMetrics> metrics(rounds, m);
    std::vector<std::string> local =
        Lines(obs::RenderStats(metrics, /*proc_backend=*/false));
    std::vector<std::string> proc =
        Lines(obs::RenderStats(metrics, /*proc_backend=*/true));
    // The schema is fixed: both backends render the same lines with the
    // same field labels, differing only in the proc lines' values.
    ASSERT_EQ(local.size(), proc.size());
    for (size_t i = 0; i < local.size(); ++i) {
      if (local[i].find(" proc: ") == std::string::npos) {
        EXPECT_EQ(local[i], proc[i]);
        continue;
      }
      // The proc line never vanishes — it renders an explicit marker
      // locally.
      EXPECT_NE(local[i].find("proc: n/a (local backend)"), std::string::npos);
      EXPECT_NE(proc[i].find("task attempts"), std::string::npos);
      EXPECT_NE(proc[i].find("parked segments"), std::string::npos);
    }
  }
}

TEST_F(ObsTest, MetricsReportJsonEmbedsDataflowAndRegistry) {
  DataflowMetrics m = SampleMetrics();
  obs::GetCounter("test.report").Add(1);
  std::string with = obs::MetricsReportJson(&m, /*proc_backend=*/true);
  EXPECT_NE(with.find("\"dataflow\":{"), std::string::npos);
  EXPECT_NE(with.find("\"backend\":\"proc\""), std::string::npos);
  EXPECT_NE(with.find("\"proc_parked_segments\":0"), std::string::npos);
  EXPECT_NE(with.find("\"registry\":{"), std::string::npos);
  EXPECT_NE(with.find("\"test.report\":1"), std::string::npos);
  // Algorithms without dataflow metrics report an explicit null, not a
  // missing key.
  std::string without = obs::MetricsReportJson(nullptr, false);
  EXPECT_NE(without.find("\"dataflow\":null"), std::string::npos);
}

}  // namespace
}  // namespace dseq
