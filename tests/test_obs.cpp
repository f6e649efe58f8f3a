// Tests for the observability subsystem: metric types, the process-wide
// registry under concurrency, spans, SHA-256, NDJSON events, and manifests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <openssl/crypto.h>
#include <openssl/opensslv.h>

#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/sha256.h"
#include "obs/span.h"

namespace cpsguard::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Counter, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, ExactCountSumMinMax) {
  Histogram h;
  for (const double v : {1.0, 2.0, 4.0, 8.0}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // Log-bucketed: ~9% relative resolution per sub-bucket.
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(h.quantile(0.9), 900.0, 900.0 * 0.10);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.10);
}

TEST(Histogram, IgnoresNanKeepsZeroAndNegative) {
  Histogram h;
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  h.record(0.0);
  h.record(-3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.snapshot().min, -3.0);
}

TEST(Registry, SameNameSameInstance) {
  auto& reg = Registry::instance();
  Counter& a = reg.counter("test.registry.same");
  Counter& b = reg.counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  Histogram& ha = reg.histogram("test.registry.hist");
  Histogram& hb = reg.histogram("test.registry.hist");
  EXPECT_EQ(&ha, &hb);
}

// The satellite concurrency test: N threads hammering counters, gauges,
// histograms, and spans through the shared registry must yield exact totals.
// This is also the TSan target for the thread-sanitizer CI job.
TEST(Registry, ConcurrentHammerYieldsExactTotals) {
  auto& reg = Registry::instance();
  Counter& c = reg.counter("test.hammer.counter");
  Gauge& g = reg.gauge("test.hammer.gauge");
  Histogram& h = reg.histogram("test.hammer.hist");
  c.reset();
  g.set(0.0);
  h.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {}
      for (int i = 0; i < kIters; ++i) {
        c.increment();
        g.add(1.0);
        h.record(static_cast<double>((t * kIters + i) % 100 + 1));
        // Registry lookup from many threads at once must also be safe.
        if (i % 1000 == 0) reg.counter("test.hammer.counter").add(0);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ScopedSpan, RecordsIntoNamedHistogram) {
  auto& reg = Registry::instance();
  Histogram& h = reg.histogram("span.test.span");
  h.reset();
  {
    const ScopedSpan span("test.span");
    EXPECT_GE(span.elapsed_seconds(), 0.0);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.snapshot().min, 0.0);
}

TEST(Sha256, Fips180TestVectors) {
  EXPECT_EQ(sha256_hex(std::string{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex(std::string{"abc"}),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_hex(std::string{
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"}),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// Incremental hashing must not depend on how the input is split: random
// lengths up to 70 000 bytes, random update splits, and a context copied
// mid-stream that finishes on its own.
TEST(Sha256, IncrementalSplitsAndCopiesMatchOneShot) {
  std::mt19937_64 rng(20260);
  std::string buf(70000, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng() % (buf.size() + 1);
    const std::size_t copy_at = len == 0 ? 0 : rng() % (len + 1);
    Sha256 ctx;
    Sha256 copy;
    // Feed [0, copy_at), copy, then feed [copy_at, len), each in random
    // pieces of 0 to 3 000 bytes (empty, ragged and multi-block updates).
    const auto feed = [&](std::size_t from, std::size_t to) {
      while (from < to) {
        const std::size_t step = std::min<std::size_t>(to - from, rng() % 3001);
        ctx.update(buf.data() + from, step);
        from += step;
      }
    };
    feed(0, copy_at);
    copy = ctx;
    feed(copy_at, len);
    const std::string want = sha256_hex(buf.data(), len);
    EXPECT_EQ(to_hex(ctx.digest()), want) << "len " << len;
    // The copy resumes from its own state: the bytes after the copy point.
    copy.update(buf.data() + copy_at, len - copy_at);
    EXPECT_EQ(to_hex(copy.digest()), want)
        << "len " << len << ", copied at " << copy_at;
  }
  // FIPS 180-2 long-message vector, fed in uneven pieces.
  const std::string a(1000000, 'a');
  Sha256 ctx;
  for (std::size_t pos = 0; pos < a.size();) {
    const std::size_t step = std::min<std::size_t>(a.size() - pos, 1 + pos % 997);
    ctx.update(a.data() + pos, step);
    pos += step;
  }
  EXPECT_EQ(to_hex(ctx.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, FileHashMatchesStringHash) {
  const fs::path p = fs::temp_directory_path() / "cpsguard_sha_test.bin";
  {
    std::ofstream out(p, std::ios::binary);
    out << "abc";
  }
  EXPECT_EQ(sha256_file_hex(p.string()), sha256_hex(std::string{"abc"}));
  fs::remove(p);
  EXPECT_THROW((void)sha256_file_hex(p.string()), std::runtime_error);
}

// The libcrypto the binary loads at run time is the release its headers
// came from (major, minor and patch; the status nibble is ignored). A test
// binary whose RUNPATH points at another prefix's libcrypto.so.3 would
// exercise a different SHA-256 than the benches and tools do.
TEST(Sha256, LinkedLibcryptoMatchesHeaders) {
  const auto release = [](unsigned long v) {
    return std::to_string(v >> 28) + "." + std::to_string((v >> 20) & 0xffUL) +
           "." + std::to_string((v >> 4) & 0xffUL);
  };
  EXPECT_EQ(release(OpenSSL_version_num()), release(OPENSSL_VERSION_NUMBER))
      << "loaded " << OpenSSL_version(OPENSSL_VERSION);
}

TEST(Events, DisabledMacroDoesNotEvaluateArguments) {
  disable_events();
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 1.0;
  };
  CPSGUARD_OBS_EVENT("test.lazy", f("x", expensive()));
  EXPECT_EQ(evaluations, 0);
}

TEST(Events, NdjsonSinkWritesOneObjectPerLine) {
  const fs::path p = fs::temp_directory_path() / "cpsguard_events_test.ndjson";
  fs::remove(p);
  ASSERT_NO_THROW(enable_events(p.string()));
  CPSGUARD_OBS_EVENT("test.event", f("s", "a\"b"), f("d", 1.5), f("i", 7),
                     f("b", true));
  CPSGUARD_OBS_EVENT("test.event2");
  disable_events();
  CPSGUARD_OBS_EVENT("test.after_disable");

  std::ifstream in(p);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ev\":\"test.event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"s\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"d\":1.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"i\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"b\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ev\":\"test.event2\""), std::string::npos);
  fs::remove(p);
}

TEST(Manifest, RecordsOutputsParamsAndBuildInfo) {
  const fs::path dir = fs::temp_directory_path() / "cpsguard_manifest_test";
  fs::create_directories(dir);
  const fs::path csv = dir / "out.csv";
  {
    std::ofstream out(csv, std::ios::binary);
    out << "a,b\n1,2\n";
  }

  RunManifest m("unit_test");
  m.set_seed(42);
  m.set_threads(8, 1);
  m.set_param("alpha", 0.5);
  m.set_param("label", "x");
  m.set_param("count", static_cast<long long>(3));
  m.set_param("alpha", 0.75);  // replace, not duplicate
  m.record_output(csv.string(), 1);
  EXPECT_TRUE(m.has_output(csv.string()));
  EXPECT_FALSE(m.has_output("missing.csv"));
  ASSERT_EQ(m.outputs().size(), 1u);
  EXPECT_EQ(m.outputs()[0].sha256, sha256_file_hex(csv.string()));

  const std::string path = m.write(dir.string());
  EXPECT_EQ(fs::path(path).filename().string(), "BENCH_unit_test.json");
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\": \"cpsguard.bench_manifest.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 0.75"), std::string::npos);
  // One alpha only: the second set_param replaced the first.
  EXPECT_EQ(json.find("\"alpha\""), json.rfind("\"alpha\""));
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find(m.outputs()[0].sha256), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cpsguard::obs
