// Unit tests for the util subsystem: RNG determinism and distribution
// sanity, running statistics, string helpers, table rendering, and the
// byte-stable JSON writer behind the batch reports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace tr {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(8)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 8, n / 8 * 0.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(5);
  const double rate = 250.0;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.05 / rate);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(13);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v.begin(), v.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStats, ConfidenceIntervalUsesStudentT) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // n = 8 -> df = 7 -> t = 2.365.
  EXPECT_NEAR(s.ci95_half_width(), 2.365 * s.sem(), 1e-12);
  const Estimate e = s.estimate();
  EXPECT_DOUBLE_EQ(e.mean, s.mean());
  EXPECT_DOUBLE_EQ(e.stddev, s.stddev());
  EXPECT_DOUBLE_EQ(e.sem, s.sem());
  EXPECT_DOUBLE_EQ(e.ci95, s.ci95_half_width());
  EXPECT_EQ(e.count, 8u);
  EXPECT_TRUE(e.contains(s.mean()));
  EXPECT_TRUE(e.contains(s.mean() + e.ci95));
  EXPECT_FALSE(e.contains(s.mean() + 2.0 * e.ci95));

  RunningStats single;
  single.add(1.0);
  EXPECT_EQ(single.ci95_half_width(), 0.0);
}

TEST(Stats, StudentTCriticalValues) {
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-9);
  EXPECT_NEAR(t_critical_975(7), 2.365, 1e-9);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-9);
  EXPECT_NEAR(t_critical_975(1000), 1.960, 1e-9);
  EXPECT_EQ(t_critical_975(0), 0.0);
  // Monotone non-increasing in df, bounded below by the normal quantile.
  double prev = t_critical_975(1);
  for (std::size_t df = 2; df <= 200; ++df) {
    const double t = t_critical_975(df);
    EXPECT_LE(t, prev) << "df " << df;
    EXPECT_GE(t, 1.96) << "df " << df;
    prev = t;
  }
}

TEST(Stats, ScaledEstimate) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  const Estimate e = scaled(s.estimate(), -10.0);
  EXPECT_DOUBLE_EQ(e.mean, -20.0);
  EXPECT_GT(e.stddev, 0.0);  // spread magnitudes stay positive
  EXPECT_DOUBLE_EQ(e.stddev, 10.0 * s.stddev());
  EXPECT_DOUBLE_EQ(e.ci95, 10.0 * s.ci95_half_width());
  EXPECT_EQ(e.count, 3u);
}

TEST(Rng, DeriveStreamIsStatelessAndDistinct) {
  EXPECT_EQ(Rng::derive_stream(5, 3), Rng::derive_stream(5, 3));
  EXPECT_NE(Rng::derive_stream(5, 3), Rng::derive_stream(5, 4));
  EXPECT_NE(Rng::derive_stream(5, 3), Rng::derive_stream(6, 3));
}

TEST(Stats, PercentHelpers) {
  EXPECT_DOUBLE_EQ(percent_reduction(200.0, 150.0), 25.0);
  EXPECT_DOUBLE_EQ(percent_increase(100.0, 104.0), 4.0);
  EXPECT_DOUBLE_EQ(percent_reduction(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Strings, SplitTrimJoin) {
  EXPECT_EQ(split("  a  b\tc "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", " "), std::vector<std::string>{});
  EXPECT_EQ(trim("  hello \r\n"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(to_lower("NAND2"), "nand2");
  EXPECT_TRUE(starts_with(".names a b", ".names"));
  EXPECT_FALSE(starts_with(".gate", ".names"));
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha |     1 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(TR_ASSERT(false), InternalError);
  EXPECT_NO_THROW(TR_ASSERT(true));
}

TEST(Error, RequireCarriesMessage) {
  try {
    require(false, "specific message");
    FAIL() << "require did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("specific message"),
              std::string::npos);
  }
}

TEST(Error, RetryClassificationIsPinnedPerCode) {
  // is_retryable drives the resilient client's retry loop and the
  // "retryable" field of every JSON error object (schema v4, DESIGN.md
  // Sec. 15.3) — reclassifying a code is a behavior change for every
  // deployed retrying client, so each one is pinned individually.
  // Retrying can help: the condition is transient or external.
  EXPECT_TRUE(is_retryable(ErrorCode::cancelled));       // deadline/admission
  EXPECT_TRUE(is_retryable(ErrorCode::resource));        // fd/memory pressure
  EXPECT_TRUE(is_retryable(ErrorCode::disconnect));      // daemon may return
  EXPECT_TRUE(is_retryable(ErrorCode::fault_injected));  // one-shot harness
  // Retrying cannot help: the request itself is wrong or the code is.
  EXPECT_FALSE(is_retryable(ErrorCode::invalid_argument));
  EXPECT_FALSE(is_retryable(ErrorCode::parse));
  EXPECT_FALSE(is_retryable(ErrorCode::internal));
  EXPECT_FALSE(is_retryable(ErrorCode::unknown));
}

TEST(Error, CodeNamesAreStable) {
  // The JSON encoding of ErrorCode; grepped by scripts and clients.
  EXPECT_STREQ(error_code_name(ErrorCode::invalid_argument),
               "invalid_argument");
  EXPECT_STREQ(error_code_name(ErrorCode::parse), "parse");
  EXPECT_STREQ(error_code_name(ErrorCode::internal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::cancelled), "cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::fault_injected), "fault_injected");
  EXPECT_STREQ(error_code_name(ErrorCode::resource), "resource");
  EXPECT_STREQ(error_code_name(ErrorCode::unknown), "unknown");
  EXPECT_STREQ(error_code_name(ErrorCode::disconnect), "disconnect");
}

TEST(Json, DoubleRendersShortestRoundTrip) {
  EXPECT_EQ(util::json_double(0.0), "0");
  EXPECT_EQ(util::json_double(1.5), "1.5");
  EXPECT_EQ(util::json_double(0.1), "0.1");  // shortest form, not 0.1000...
  EXPECT_EQ(util::json_double(-2.75e-7), "-2.75e-07");
  EXPECT_EQ(util::json_double(std::nan("")), "null");
  // Round-trip guarantee: parsing the text recovers the exact bits.
  const double value = 1.4874833205017656e-06;
  EXPECT_EQ(std::stod(util::json_double(value)), value);
}

TEST(Json, NonFiniteDoublesRenderAsNull) {
  // JSON has no NaN/Infinity literals; emitting them would produce a
  // document no strict parser (including ours) accepts. The writer
  // substitutes null so a rogue computation can never corrupt the wire
  // format (DESIGN.md Sec. 13.2).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(util::json_double(inf), "null");
  EXPECT_EQ(util::json_double(-inf), "null");

  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("nan");
  w.value(std::nan(""));
  w.key("inf");
  w.value(inf);
  w.key("neg_inf");
  w.value(-inf);
  w.key("finite");
  w.value(1.5);
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"neg_inf\": null,\n"
            "  \"finite\": 1.5\n"
            "}\n");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json_escape("x\n\t\x01"), "x\\n\\t\\u0001");
}

TEST(Json, WriterProducesStableDocument) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("name");
  w.value("c17");
  w.key("gates");
  w.value(6);
  w.key("ratio");
  w.value(0.5);
  w.key("flags");
  w.begin_array();
  w.value(true);
  w.value(false);
  w.null_value();
  w.end_array();
  w.key("empty_obj");
  w.begin_object();
  w.end_object();
  w.key("empty_arr");
  w.begin_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"c17\",\n"
            "  \"gates\": 6,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flags\": [\n"
            "    true,\n"
            "    false,\n"
            "    null\n"
            "  ],\n"
            "  \"empty_obj\": {},\n"
            "  \"empty_arr\": []\n"
            "}\n");
}

TEST(Json, NestedContainersIndentConsistently) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_array();
  w.begin_object();
  w.key("inner");
  w.begin_array();
  w.value(1);
  w.end_array();
  w.end_object();
  w.end_array();
  EXPECT_EQ(out.str(),
            "[\n"
            "  {\n"
            "    \"inner\": [\n"
            "      1\n"
            "    ]\n"
            "  }\n"
            "]\n");
}

TEST(Json, MisuseTripsAssertions) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_array();
  EXPECT_THROW(w.key("no-keys-in-arrays"), InternalError);
  EXPECT_THROW(w.end_object(), InternalError);
}

TEST(Json, LargeDocumentIsExactAcrossTheFlushBoundary) {
  // The writer hands its buffer to the stream every 64 KiB: the stream
  // must already hold a prefix of the document before the root closes,
  // and the whole document must equal the hand-built text byte for byte.
  constexpr int kItems = 12000;
  std::string expected = "[";
  for (int i = 0; i < kItems; ++i) {
    expected += i == 0 ? "\n" : ",\n";
    expected += "  \"item-" + std::to_string(i) + "\\n\"";
  }
  expected += "\n]\n";
  ASSERT_GT(expected.size(), 2u * 64 * 1024);

  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_array();
  for (int i = 0; i < kItems; ++i) {
    w.value("item-" + std::to_string(i) + "\n");
  }
  const std::string partial = out.str();
  EXPECT_GE(partial.size(), 64u * 1024);
  EXPECT_EQ(expected.compare(0, partial.size(), partial), 0);
  w.end_array();
  EXPECT_EQ(out.str(), expected);
}

TEST(Json, WriterEscapesKeysAndStringsInPlace) {
  std::string all_controls;
  for (int c = 0; c < 0x20; ++c) all_controls += static_cast<char>(c);
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("k\"\\\x1f");
  w.value(all_controls + "\"\\/\x7f");
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"k\\\"\\\\\\u001f\": "
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\/\x7f\"\n"
            "}\n");
  EXPECT_EQ(util::json_escape(all_controls).size(), 2u * 3 + 6u * 29);
}

TEST(Json, WriterRendersIntegerExtremes) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::uint64_t{0});
  w.value(-1);
  w.end_array();
  EXPECT_EQ(out.str(),
            "[\n"
            "  -9223372036854775808,\n"
            "  9223372036854775807,\n"
            "  18446744073709551615,\n"
            "  0,\n"
            "  -1\n"
            "]\n");
}

TEST(Json, WriterDestroyedWithRootOpenFlushesWhatItWrote) {
  std::ostringstream out;
  {
    util::JsonWriter w(out);
    w.begin_object();
    w.key("a");
    w.value(1);
    w.key("b");
    w.begin_array();
    w.value(2.5);
    EXPECT_EQ(out.str(), "");  // still buffered
  }
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": [\n"
            "    2.5");
}

TEST(Json, WritersInSequenceOnOneStreamKeepTheirOrder) {
  // tr_opt and the probe write "\n" between documents after each root
  // closes; every byte must land in program order.
  std::ostringstream out;
  {
    util::JsonWriter first(out);
    first.begin_object();
    first.key("n");
    first.value(1);
    first.end_object();
    out << "\n";
    util::JsonWriter second(out);
    second.begin_array();
    second.value("x");
    second.end_array();
    out << "\n";
  }
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"n\": 1\n"
            "}\n"
            "\n"
            "[\n"
            "  \"x\"\n"
            "]\n"
            "\n");
}

}  // namespace
}  // namespace tr
