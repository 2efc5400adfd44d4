// Time-series tests (src/obs/timeseries.hpp): writer/loader round-trip,
// the header-on-first-sample contract, collector freshening, malformed
// input rejection, simulator-driven determinism, and the acceptance
// invariant that a long run's FINAL sample carries byte-identical
// cumulative values to a fresh end-of-run export of the same registry.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "api/system.hpp"
#include "exec/engine.hpp"
#include "exec/verify.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "protocols/workload.hpp"

#if defined(__SANITIZE_THREAD__)
#define MOCC_TS_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MOCC_TS_TEST_TSAN 1
#endif
#endif
#ifndef MOCC_TS_TEST_TSAN
#define MOCC_TS_TEST_TSAN 0
#endif

namespace mocc::obs {
namespace {

/// Last "ts_sample" line of a JSONL stream.
std::string last_sample_line(const std::string& stream) {
  std::istringstream in(stream);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"ts_sample\"") != std::string::npos) last = line;
  }
  return last;
}

TEST(TimeSeries, RoundTripPreservesValuesAndOrder) {
  Registry registry;
  std::ostringstream out;
  TimeSeriesWriter writer(out);
  for (std::uint64_t t = 10; t <= 30; t += 10) {
    registry.counter("mops").inc(3);
    registry.gauge("depth").set(static_cast<double>(t));
    writer.sample(registry, t);
  }
  EXPECT_EQ(writer.samples(), 3u);

  std::istringstream in(out.str());
  TimeSeriesFile file;
  std::string error;
  ASSERT_TRUE(load_timeseries_jsonl(in, &file, &error)) << error;
  EXPECT_TRUE(file.has_header);
  EXPECT_EQ(file.schema_version, kTimeSeriesSchemaVersion);
  ASSERT_EQ(file.points.size(), 3u);
  for (std::size_t i = 0; i < file.points.size(); ++i) {
    const TimeSeriesPoint& point = file.points[i];
    EXPECT_EQ(point.seq, i);
    EXPECT_EQ(point.t, 10 * (i + 1));
    EXPECT_EQ(point.value("counters/mops"), 3.0 * static_cast<double>(i + 1));
    EXPECT_EQ(point.value("gauges/depth"), static_cast<double>(point.t));
    EXPECT_EQ(point.value("gauges/absent", -1.0), -1.0);
  }
}

TEST(TimeSeries, WriterThatNeverFiresLeavesStreamEmpty) {
  std::ostringstream out;
  TimeSeriesWriter writer(out);
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(writer.samples(), 0u);
}

TEST(TimeSeries, CollectorsFreshenRegistryBeforeEachSample) {
  Registry registry;
  std::ostringstream out;
  TimeSeriesWriter writer(out);
  std::uint64_t pulls = 0;
  writer.add_collector([&pulls](Registry& r) {
    r.counter("pulled").set(++pulls);
  });
  writer.sample(registry, 1);
  writer.sample(registry, 2);

  std::istringstream in(out.str());
  TimeSeriesFile file;
  std::string error;
  ASSERT_TRUE(load_timeseries_jsonl(in, &file, &error)) << error;
  ASSERT_EQ(file.points.size(), 2u);
  EXPECT_EQ(file.points[0].value("counters/pulled"), 1.0);
  EXPECT_EQ(file.points[1].value("counters/pulled"), 2.0);
}

TEST(TimeSeries, UnknownLineTypesSkippedMalformedLinesRejected) {
  {
    std::istringstream in(
        "{\"type\":\"ts_header\",\"schema_version\":1}\n"
        "{\"type\":\"future_annotation\",\"x\":1}\n"
        "{\"type\":\"ts_sample\",\"t\":5,\"seq\":0,\"counters\":{},"
        "\"gauges\":{},\"histograms\":{}}\n");
    TimeSeriesFile file;
    std::string error;
    ASSERT_TRUE(load_timeseries_jsonl(in, &file, &error)) << error;
    EXPECT_EQ(file.points.size(), 1u);
  }
  {
    std::istringstream in("{\"type\":\"ts_sample\",\"t\":5,");
    TimeSeriesFile file;
    std::string error;
    EXPECT_FALSE(load_timeseries_jsonl(in, &file, &error));
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------
// Simulator-driven streams are stamped with virtual time and are
// therefore byte-deterministic: same config, same stream.

std::string run_system_stream(std::uint64_t seed) {
  api::SystemConfig config;
  config.protocol = "mlin";
  config.num_processes = 3;
  config.num_objects = 6;
  config.seed = seed;
  config.backlog_sample_interval = 16;

  std::ostringstream out;
  Registry registry;
  TimeSeriesWriter writer(out);
  api::System system(config);
  system.set_metrics_registry(&registry);
  system.set_timeseries(&writer);
  protocols::WorkloadParams params;
  params.ops_per_process = 8;
  system.run_workload(params);
  return out.str();
}

TEST(TimeSeries, SimulatorStreamIsByteDeterministic) {
  const std::string a = run_system_stream(21);
  const std::string b = run_system_stream(21);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  std::istringstream in(a);
  TimeSeriesFile file;
  std::string error;
  ASSERT_TRUE(load_timeseries_jsonl(in, &file, &error)) << error;
  ASSERT_GT(file.points.size(), 1u);
  for (std::size_t i = 1; i < file.points.size(); ++i) {
    EXPECT_GE(file.points[i].t, file.points[i - 1].t);
    EXPECT_EQ(file.points[i].seq, file.points[i - 1].seq + 1);
  }
}

// ---------------------------------------------------------------------
// The acceptance invariant behind tools/mocc_live: on a clean 100k+
// m-operation exec run, the final time-series sample's cumulative
// values byte-match a fresh end-of-run export of the same registry —
// the stream's tail IS the run's summary, not an approximation of it.

TEST(TimeSeries, FinalSampleByteMatchesEndOfRunExport) {
  exec::ExecConfig config;
  config.threads = MOCC_TS_TEST_TSAN ? 4 : 8;
  config.objects = 256;
  config.mops_per_thread =
      MOCC_TS_TEST_TSAN ? 3'000 : 13'000;  // >= 100k committed when clean
  config.footprint = 3;
  config.seed = 31;
  const exec::ExecResult result = exec::run(config);
  ASSERT_EQ(result.stats.committed, config.threads * config.mops_per_thread);

  std::ostringstream out;
  Registry registry;
  TimeSeriesWriter writer(out);
  const StreamingReport report =
      exec::stream_execution(result, &writer, &registry, /*sample_every=*/4096);
  ASSERT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(report.mops, result.stats.committed);
  ASSERT_GT(writer.samples(), 1u);

  const std::string last = last_sample_line(out.str());
  ASSERT_FALSE(last.empty());
  const std::string fields = registry_fields_json(registry);
  EXPECT_NE(last.find(fields), std::string::npos)
      << "final sample does not embed the end-of-run export:\n"
      << last << "\nvs\n"
      << fields;
}

}  // namespace
}  // namespace mocc::obs
