// Tests for the one spec grammar (util/spec.hpp) and the parsers built on
// it: FaultPlan::parse_spec, OverloadConfig::parse_spec, the planner's
// parse_scenario / parse_sweep / expand_sweeps, make_codec, and the
// hia-events-v1 spill-header reader.
//
//   SpecGrammar.*   the tokenizer, the number rule and the typed readers.
//   SpecDiff.*      differential: the parsers this grammar replaced are kept
//                   below, verbatim, as oracles. Every corpus spec must parse
//                   to field-for-field identical configs under both; each
//                   intended divergence is listed as an explicit case.
//   SpecFuzz.*      seeded mutation fuzz over the corpus: every input either
//                   parses or fails with hia::Error (or false + error) —
//                   no other exception, crash, hang or UBSan report.
//                   Iterations scale with HIA_STRESS_SCALE.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "compress/codec.hpp"
#include "obs/events.hpp"
#include "planner/replay.hpp"
#include "runtime/fault.hpp"
#include "runtime/overload.hpp"
#include "stress_scale.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"

namespace hia {
namespace {

using planner::DivertMode;
using planner::QueuePolicy;
using planner::Scenario;
using planner::SweepSpec;

// ------------------------------------------------------------- the corpus

// Every spec string in tests/, docs/, EXPERIMENTS.md and ci/*.sh (shell
// variables substituted with sample values; multi-line literals joined).
// Each string goes to every parser: a fault spec is a malformed scenario.
const std::vector<std::string> kCorpus = {
    // --faults
    "",
    "drop=0.1,corrupt=0.2,delay=0.3:0.004,task-fail=0.5:0.006,"
    "stall=0.7:0.008,kill-bucket=2@9,slow-bucket=1:3.5,crash-bucket=3@7,"
    "crash-server=1@4,attempts=6,backoff=0.001:0.05,shed,seed=42",
    "drop=1.5", "drop=nope", "kill-bucket=2", "crash-bucket=2",
    "crash-server=0", "slow-bucket=1:0.5", "backoff=0.01:0.001", "attempts=0",
    "bogus=1", "drop=0.3,corrupt=0.3,delay=0.3,task-fail=0.3",
    "task-fail=0.5", "task-fail=0.2", "task-fail=1,backoff=0.002:0.040",
    "drop=1", "corrupt=0.5,seed=3", "crash-server=0@2", "stall=1:0.0005",
    "task-fail=0.4,attempts=4,backoff=0.001:0.004", "tenant-hog=2:100000@0",
    "tenant-hog=3:65536@5", "tenant-hog=3", "tenant-hog=-1:65536@5",
    "tenant-hog=3:0@5", "crash-bucket=0@1,crash-server=0@2,attempts=3,"
    "backoff=0.0001:0.001",
    "drop=0.3,corrupt=0.3,task-fail=0.4:0.0005,attempts=6,"
    "backoff=0.0001:0.001,seed=7",
    "crash-server=1@5,attempts=3", "crash-bucket=0@1,attempts=4,"
    "backoff=0.0001:0.001",
    "drop=0.2,corrupt=0.2,delay=0.2,task-fail=0.2,stall=0.2",
    "kill-bucket=0@0,kill-bucket=1@0", "kill-bucket=1@5",
    "task-fail=0.3,attempts=3,backoff=0.0001:0.001",
    "task-fail=0.4,attempts=4,backoff=0.0001:0.001",
    "task-fail=0.5,attempts=3,backoff=0.0001:0.001,seed=9",
    "task-fail=1,attempts=2,backoff=0.0001:0.001,shed",
    "task-fail=1,attempts=3,backoff=0.0001:0.001", "seed=4", "seed=7",
    "seed=9", "backoff=0.0001:0.001", "backoff=0.0001:0.001,seed=7",
    "attempts=4,backoff=0.0001:0.001",
    "task-fail=0.05:0.002,attempts=4,backoff=0.001:0.01,seed=4",
    "slow-bucket=0:8,crash-bucket=0@6,crash-server=0@12,attempts=4,"
    "backoff=0.001:0.01",
    "drop=0.05,corrupt=0.02", "drop=0.05,corrupt=0.02,task-fail=0.1,"
    "kill-bucket=2@3",
    "drop=0.05,task-fail=0.1,...", "kill-bucket=1@2",
    "slow-bucket=0:3,stall=0.1:0.002",
    "slow-bucket=0:50,crash-bucket=0@2,crash-server=0@4",
    "kill-bucket=1@2,kill-bucket=2@2,overload=262144@3,credit-starve=4@3,"
    "seed=12345",
    "tenant-hog=2:131072@3,seed=12345", "crash-server=1@4,seed=12345",
    "drop=0.05,corrupt=0.02,seed=42",
    "drop=0.05,corrupt=0.02,task-fail=0.1,kill-bucket=2@3,seed=42",
    // --overload
    "queue-bytes=1m,queue-depth=32,store-bytes=2k,low=0.4,high=0.8,"
    "credits=16,admit-wait=0.01,defer-max=3",
    "frobnicate=1", "queue-bytes=nope", "queue-bytes=1k,low=0.9,high=0.5",
    "queue-bytes=1k,low=0", "queue-bytes=1k,high=1.5",
    "queue-bytes=1000,low=0.5,high=0.9", "queue-bytes=1000", "queue-depth=2",
    "credits=2,admit-wait=0.01", "credits=1,admit-wait=5.0",
    "credits=2,admit-wait=0.002", "store-bytes=1000,low=0.5,high=0.9",
    "credits=4,admit-wait=0.002", "credits=1,admit-wait=0.002",
    "queue-bytes=16384", "store-bytes=16m", "queue-bytes=1m",
    "queue-depth=8,low=0.3,high=0.8", "queue-depth=16,credits=8",
    "credits=16", "credits=8,queue=16,divert=degrade",
    "queue-bytes=1m,store-bytes=1m,credits=8,admit-wait=0.0005",
    "queue-bytes=262144,credits=8,admit-wait=0.002", "queue-bytes=64m,"
    "credits=64",
    "queue-bytes=131072,credits=8,admit-wait=0.002",
    "queue-bytes=131072,credits=8,admit-wait=0.002,defer-max=2",
    "credits=2,admit-wait=0.05", "credits=64",
    "queue-bytes=128k,credits=8,admit-wait=0.002,defer-max=2",
    "queue-bytes=2m,credits=8",
    // hia_plan --set / --sweep
    "buckets=4,credits=8,queue-depth=16,divert=degrade,policy=fair",
    "bte-bw=6g,smsg-max=4k", "codec=quantize", "buckets=0", "divert=nowhere",
    "buckets", "codec=zstd", "arrival-scale=0.001",
    "arrival-scale=0.05,queue-depth=4,divert=shed", "K=V,...",
    "buckets=1..4", "arrival-scale=1..2:0.5", "codec=raw,delta,quantize",
    "buckets=", "buckets=4..1", "buckets=1..4:0", "buckets=1..2",
    "credits=4,8", "buckets=0..1", "buckets=1..8", "buckets=1,2,4",
    "buckets=1,2,4,8,16", "arrival-scale=0.2..1:0.2", "KEY=SPEC",
    // --codec
    "quantize:1e-6", "quantize:-1", "quantize:bogus", "raw", "rle", "delta",
    "zstd",
};

// -------------------------------------------------------------- oracles
//
// The parsers the spec grammar replaced, verbatim apart from the two
// function names. Test-only: they cast before range-checking, so they are
// only ever called on inputs whose casts are defined.
namespace oracle {

using planner::nominal_codec_ratio;

double parse_double(const std::string& token, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  HIA_REQUIRE(end != nullptr && *end == '\0' && !text.empty(),
              "--faults " + token + ": bad number '" + text + "'");
  return v;
}

double parse_prob(const std::string& token, const std::string& text) {
  const double p = parse_double(token, text);
  HIA_REQUIRE(p >= 0.0 && p <= 1.0,
              "--faults " + token + ": probability out of [0,1]");
  return p;
}

FaultPlanConfig fault_spec(const std::string& spec) {
  FaultPlanConfig cfg;
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t comma = spec.find(',', begin);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string token = spec.substr(begin, end - begin);
    begin = (comma == std::string::npos) ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    const size_t eq = token.find('=');
    const std::string name = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    // value "A:B" subfields.
    const size_t colon = value.find(':');
    const std::string v0 = value.substr(0, colon);
    const std::string v1 =
        colon == std::string::npos ? "" : value.substr(colon + 1);

    if (name == "drop") {
      cfg.frame_drop_prob = parse_prob(name, value);
    } else if (name == "corrupt") {
      cfg.frame_corrupt_prob = parse_prob(name, value);
    } else if (name == "delay") {
      cfg.frame_delay_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.frame_delay_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.frame_delay_s >= 0.0, "--faults delay: negative delay");
    } else if (name == "task-fail") {
      cfg.task_fail_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.retry.task_timeout_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.retry.task_timeout_s >= 0.0,
                  "--faults task-fail: negative timeout");
    } else if (name == "stall") {
      cfg.worker_stall_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.worker_stall_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.worker_stall_s >= 0.0, "--faults stall: negative stall");
    } else if (name == "kill-bucket") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults kill-bucket needs B@N (bucket@step)");
      FaultPlanConfig::BucketKill kill;
      kill.bucket =
          static_cast<int>(parse_double(name, value.substr(0, at)));
      kill.step = static_cast<long>(parse_double(name, value.substr(at + 1)));
      HIA_REQUIRE(kill.bucket >= 0, "--faults kill-bucket: negative bucket");
      cfg.bucket_kills.push_back(kill);
    } else if (name == "crash-bucket") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults crash-bucket needs B@N (bucket@step)");
      FaultPlanConfig::BucketCrash crash;
      crash.bucket =
          static_cast<int>(parse_double(name, value.substr(0, at)));
      crash.step = static_cast<long>(parse_double(name, value.substr(at + 1)));
      HIA_REQUIRE(crash.bucket >= 0, "--faults crash-bucket: negative bucket");
      cfg.bucket_crashes.push_back(crash);
    } else if (name == "crash-server") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults crash-server needs S@N (server@step)");
      FaultPlanConfig::ServerCrash crash;
      crash.server =
          static_cast<int>(parse_double(name, value.substr(0, at)));
      crash.step = static_cast<long>(parse_double(name, value.substr(at + 1)));
      HIA_REQUIRE(crash.server >= 0, "--faults crash-server: negative server");
      cfg.server_crashes.push_back(crash);
    } else if (name == "slow-bucket") {
      HIA_REQUIRE(!v1.empty(), "--faults slow-bucket needs B:F (bucket:factor)");
      FaultPlanConfig::BucketSlow slow;
      slow.bucket = static_cast<int>(parse_double(name, v0));
      slow.factor = parse_double(name, v1);
      HIA_REQUIRE(slow.bucket >= 0 && slow.factor >= 1.0,
                  "--faults slow-bucket: need bucket >= 0 and factor >= 1");
      cfg.bucket_slowdowns.push_back(slow);
    } else if (name == "overload") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults overload needs B@N (bytes@step)");
      FaultPlanConfig::OverloadInject inject;
      inject.bytes =
          static_cast<size_t>(parse_double(name, value.substr(0, at)));
      inject.step =
          static_cast<long>(parse_double(name, value.substr(at + 1)));
      HIA_REQUIRE(inject.bytes > 0, "--faults overload: need bytes > 0");
      cfg.overload_injects.push_back(inject);
    } else if (name == "credit-starve") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults credit-starve needs C@N (credits@step)");
      FaultPlanConfig::CreditStarve starve;
      starve.credits =
          static_cast<int>(parse_double(name, value.substr(0, at)));
      starve.step =
          static_cast<long>(parse_double(name, value.substr(at + 1)));
      HIA_REQUIRE(starve.credits > 0,
                  "--faults credit-starve: need credits > 0");
      cfg.credit_starves.push_back(starve);
    } else if (name == "tenant-hog") {
      // tenant-hog=T:B@N — v0 is the tenant, v1 is "bytes@step".
      const size_t at = v1.find('@');
      HIA_REQUIRE(colon != std::string::npos && at != std::string::npos,
                  "--faults tenant-hog needs T:B@N (tenant:bytes@step)");
      FaultPlanConfig::TenantHog hog;
      hog.tenant = static_cast<int>(parse_double(name, v0));
      hog.bytes = static_cast<size_t>(parse_double(name, v1.substr(0, at)));
      hog.step = static_cast<long>(parse_double(name, v1.substr(at + 1)));
      HIA_REQUIRE(hog.tenant >= 0, "--faults tenant-hog: negative tenant");
      HIA_REQUIRE(hog.bytes > 0, "--faults tenant-hog: need bytes > 0");
      cfg.tenant_hogs.push_back(hog);
    } else if (name == "attempts") {
      cfg.retry.max_task_attempts = static_cast<int>(parse_double(name, value));
      HIA_REQUIRE(cfg.retry.max_task_attempts >= 1,
                  "--faults attempts: need >= 1");
    } else if (name == "backoff") {
      HIA_REQUIRE(!v1.empty(), "--faults backoff needs BASE:CAP seconds");
      cfg.retry.backoff_base_s = parse_double(name, v0);
      cfg.retry.backoff_cap_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.retry.backoff_base_s > 0.0 &&
                      cfg.retry.backoff_cap_s >= cfg.retry.backoff_base_s,
                  "--faults backoff: need 0 < BASE <= CAP");
    } else if (name == "shed") {
      HIA_REQUIRE(eq == std::string::npos, "--faults shed takes no value");
      cfg.retry.degrade_to_insitu = false;
    } else if (name == "seed") {
      cfg.seed = static_cast<uint64_t>(parse_double(name, value));
    } else {
      HIA_REQUIRE(false, "--faults: unknown directive '" + name + "'");
    }
  }
  return cfg;
}

size_t parse_bytes(const std::string& token, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  double scale = 1.0;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1024.0; ++end; break;
      case 'm': case 'M': scale = 1024.0 * 1024.0; ++end; break;
      case 'g': case 'G': scale = 1024.0 * 1024.0 * 1024.0; ++end; break;
      default: break;
    }
  }
  HIA_REQUIRE(end != nullptr && *end == '\0' && !text.empty() && v >= 0.0,
              "--overload " + token + ": bad size '" + text + "'");
  return static_cast<size_t>(v * scale);
}

double parse_seconds(const std::string& token, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  HIA_REQUIRE(end != nullptr && *end == '\0' && !text.empty() && v >= 0.0,
              "--overload " + token + ": bad value '" + text + "'");
  return v;
}

OverloadConfig overload_spec(const std::string& spec) {
  OverloadConfig cfg;
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t comma = spec.find(',', begin);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string token = spec.substr(begin, end - begin);
    begin = (comma == std::string::npos) ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    const size_t eq = token.find('=');
    const std::string name = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);

    if (name == "queue-bytes") {
      cfg.queue_bytes_budget = parse_bytes(name, value);
    } else if (name == "queue-depth") {
      cfg.queue_depth_budget = parse_bytes(name, value);
    } else if (name == "store-bytes") {
      cfg.store_bytes_budget = parse_bytes(name, value);
    } else if (name == "low") {
      cfg.low_watermark = parse_seconds(name, value);
    } else if (name == "high") {
      cfg.high_watermark = parse_seconds(name, value);
    } else if (name == "credits") {
      cfg.credits = static_cast<int>(parse_bytes(name, value));
    } else if (name == "admit-wait") {
      cfg.admit_max_wait_s = parse_seconds(name, value);
    } else if (name == "defer-max") {
      cfg.max_defers = static_cast<int>(parse_seconds(name, value));
    } else {
      HIA_REQUIRE(false, "--overload: unknown directive '" + name + "'");
    }
  }
  HIA_REQUIRE(cfg.low_watermark > 0.0 && cfg.low_watermark < cfg.high_watermark
                  && cfg.high_watermark <= 1.0,
              "--overload: need 0 < low < high <= 1");
  HIA_REQUIRE(cfg.max_defers >= 0, "--overload defer-max: need >= 0");
  return cfg;
}

/// Parses a number with an optional k/m/g (1024-based) suffix — the
/// same shorthand, with the same binary scale, as the overload spec
/// grammar in runtime/overload.cpp.
bool parse_scaled(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return false;
  switch (*end) {
    case 'k': case 'K': value *= 1024.0; ++end; break;
    case 'm': case 'M': value *= 1024.0 * 1024.0; ++end; break;
    case 'g': case 'G': value *= 1024.0 * 1024.0 * 1024.0; ++end; break;
    default: break;
  }
  if (*end != '\0') return false;
  *out = value;
  return true;
}

bool parse_positive_int(const std::string& text, long* out) {
  double v = 0.0;
  if (!parse_scaled(text, &v)) return false;
  if (v < 0.0 || v != std::floor(v) || v > 1e15) return false;
  *out = static_cast<long>(v);
  return true;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = csv.find(',', begin);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

bool parse_scenario(const std::string& spec, Scenario* io,
                    std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  for (const std::string& item : split_csv(spec)) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return fail("scenario directive '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    double num = 0.0;
    long integer = 0;
    if (key == "buckets") {
      if (!parse_positive_int(value, &integer) || integer < 1) {
        return fail("buckets must be a positive integer, got '" + value +
                    "'");
      }
      io->buckets = static_cast<int>(integer);
    } else if (key == "nodes") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("nodes must be > 0, got '" + value + "'");
      }
      io->nodes = num;
    } else if (key == "base-nodes") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("base-nodes must be > 0, got '" + value + "'");
      }
      io->base_nodes = num;
    } else if (key == "arrival-scale") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("arrival-scale must be > 0, got '" + value + "'");
      }
      io->arrival_scale = num;
    } else if (key == "credits") {
      if (!parse_positive_int(value, &integer)) {
        return fail("credits must be a nonnegative integer, got '" + value +
                    "'");
      }
      io->credits = static_cast<int>(integer);
    } else if (key == "queue-depth") {
      if (!parse_positive_int(value, &integer)) {
        return fail("queue-depth must be a nonnegative integer, got '" +
                    value + "'");
      }
      io->queue_depth = integer;
    } else if (key == "divert") {
      if (value == "shed") {
        io->divert = DivertMode::kShed;
      } else if (value == "degrade") {
        io->divert = DivertMode::kDegrade;
      } else {
        return fail("divert must be shed or degrade, got '" + value + "'");
      }
    } else if (key == "policy") {
      if (value == "fcfs") {
        io->policy = QueuePolicy::kFcfs;
      } else if (value == "fair") {
        io->policy = QueuePolicy::kFair;
      } else {
        return fail("policy must be fcfs or fair, got '" + value + "'");
      }
    } else if (key == "xfer") {
      if (value == "recorded") {
        io->model_network = false;
      } else if (value == "modeled") {
        io->model_network = true;
      } else {
        return fail("xfer must be recorded or modeled, got '" + value +
                    "'");
      }
    } else if (key == "codec") {
      const double ratio = nominal_codec_ratio(value);
      if (ratio <= 0.0) {
        return fail("unknown codec '" + value +
                    "' (raw, rle, delta, quantize)");
      }
      io->codec_ratio = ratio;
      io->model_network = true;
    } else if (key == "codec-ratio") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("codec-ratio must be > 0, got '" + value + "'");
      }
      io->codec_ratio = num;
      io->model_network = true;
    } else if (key == "smsg-lat") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("smsg-lat must be >= 0 seconds, got '" + value + "'");
      }
      io->net.smsg_latency_s = num;
      io->model_network = true;
    } else if (key == "smsg-bw") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("smsg-bw must be > 0 bytes/s, got '" + value + "'");
      }
      io->net.smsg_bandwidth_Bps = num;
      io->model_network = true;
    } else if (key == "smsg-max") {
      if (!parse_positive_int(value, &integer)) {
        return fail("smsg-max must be a nonnegative byte count, got '" +
                    value + "'");
      }
      io->net.smsg_max_bytes = static_cast<size_t>(integer);
      io->model_network = true;
    } else if (key == "bte-lat") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("bte-lat must be >= 0 seconds, got '" + value + "'");
      }
      io->net.bte_latency_s = num;
      io->model_network = true;
    } else if (key == "bte-bw") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("bte-bw must be > 0 bytes/s, got '" + value + "'");
      }
      io->net.bte_bandwidth_Bps = num;
      io->model_network = true;
    } else if (key == "congestion") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("congestion must be >= 0, got '" + value + "'");
      }
      io->net.congestion_exponent = num;
      io->model_network = true;
    } else {
      return fail("unknown scenario key '" + key + "'");
    }
  }
  return true;
}

bool parse_sweep(const std::string& spec, SweepSpec* out,
                 std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    return fail("sweep spec '" + spec + "' is not key=values");
  }
  out->key = spec.substr(0, eq);
  out->values.clear();
  const std::string body = spec.substr(eq + 1);
  const size_t dots = body.find("..");
  if (dots != std::string::npos) {
    // LO..HI[:STEP], endpoints inclusive.
    const std::string lo_text = body.substr(0, dots);
    std::string hi_text = body.substr(dots + 2);
    double step = 1.0;
    const size_t colon = hi_text.find(':');
    if (colon != std::string::npos) {
      if (!parse_scaled(hi_text.substr(colon + 1), &step) || step <= 0.0) {
        return fail("sweep step must be > 0 in '" + spec + "'");
      }
      hi_text = hi_text.substr(0, colon);
    }
    double lo = 0.0;
    double hi = 0.0;
    if (!parse_scaled(lo_text, &lo) || !parse_scaled(hi_text, &hi)) {
      return fail("sweep range endpoints must be numbers in '" + spec + "'");
    }
    if (hi < lo) {
      return fail("sweep range is empty (hi < lo) in '" + spec + "'");
    }
    for (double v = lo; v <= hi + 1e-9 * std::max(1.0, std::fabs(hi));
         v += step) {
      char buf[64];
      if (std::fabs(v - std::round(v)) < 1e-9) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(std::llround(v)));
      } else {
        std::snprintf(buf, sizeof(buf), "%g", v);
      }
      out->values.push_back(buf);
    }
  } else {
    out->values = split_csv(body);
  }
  if (out->values.empty()) {
    return fail("sweep spec '" + spec + "' has no values");
  }
  return true;
}

/// make_codec before the grammar: its own strtod of the parameter, then
/// the codec registry, reached through a spelling the grammar reads
/// exactly (%.17g round-trips every finite double).
std::shared_ptr<const Codec> make_codec(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) return hia::make_codec(spec);
  const std::string arg = spec.substr(colon + 1);
  char* end = nullptr;
  const double param = std::strtod(arg.c_str(), &end);
  HIA_REQUIRE(end != nullptr && *end == '\0' && !arg.empty(),
              "bad codec parameter in spec: " + spec);
  char exact[32];
  std::snprintf(exact, sizeof(exact), "%.17g", param);
  return hia::make_codec(spec.substr(0, colon + 1) + exact);
}

}  // namespace oracle

// ------------------------------------------------------------ the grammar

TEST(SpecGrammar, NumberRuleIsAFiniteDecimalWithBinarySuffix) {
  EXPECT_EQ(spec::real("x", "1.5"), 1.5);
  EXPECT_EQ(spec::real("x", "-2"), -2.0);
  EXPECT_EQ(spec::real("x", "2k"), 2048.0);
  EXPECT_EQ(spec::real("x", "1.5M"), 1.5 * 1024 * 1024);
  EXPECT_EQ(spec::real("x", "3g"), 3.0 * 1024 * 1024 * 1024);
  EXPECT_EQ(spec::real("x", "1e-6"), 1e-6);
  EXPECT_EQ(spec::real("x", ".5"), 0.5);
  for (const char* bad : {"", "k", "nan", "inf", "-inf", "1e400", "1e-400",
                          "0x10", " 1", "1 ", "+1", "1kk", "1,2", "1e",
                          "1m5", "1e999g", "--1"}) {
    EXPECT_THROW((void)spec::real("x", bad), Error) << bad;
  }
}

TEST(SpecGrammar, RealReadersCheckTheirBounds) {
  EXPECT_EQ(spec::real("x", "0", 0.0, 1.0), 0.0);
  EXPECT_EQ(spec::real("x", "1", 0.0, 1.0), 1.0);
  EXPECT_THROW((void)spec::real("x", "1.5", 0.0, 1.0), Error);
  EXPECT_THROW((void)spec::real("x", "-1e-9", 0.0), Error);
  EXPECT_EQ(spec::probability("x", "0.25"), 0.25);
  EXPECT_THROW((void)spec::probability("x", "1.01"), Error);
  EXPECT_EQ(spec::positive("x", "1e-300"), 1e-300);
  EXPECT_THROW((void)spec::positive("x", "0"), Error);
  EXPECT_THROW((void)spec::positive("x", "-0"), Error);
}

TEST(SpecGrammar, IntegersAreWholeInRangeAndExact) {
  EXPECT_EQ(spec::integer<int>("x", "7"), 7);
  EXPECT_EQ(spec::integer<int>("x", "-7"), -7);
  EXPECT_EQ(spec::integer<int>("x", "1e3"), 1000);
  EXPECT_EQ(spec::integer<size_t>("x", "2k"), 2048u);
  EXPECT_EQ(spec::integer<size_t>("x", "1.5k"), 1536u);
  EXPECT_EQ(spec::integer<int>("x", "-0"), 0);
  EXPECT_EQ(spec::integer<uint64_t>("x", "18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(spec::integer<int64_t>("x", "-9223372036854775808"),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(spec::integer<uint64_t>("x", "16g"), uint64_t{16} << 30);
  for (const char* bad : {"1.5", "0.3k", "nan", "inf", "1e30", "2147483648",
                          "-2147483649", "4294967297", "0x10", "", "1 "}) {
    EXPECT_THROW((void)spec::integer<int>("x", bad), Error) << bad;
  }
  EXPECT_THROW((void)spec::integer<uint64_t>("x", "18446744073709551616"),
               Error);
  EXPECT_THROW((void)spec::integer<uint64_t>("x", "17179869184g"), Error);
  EXPECT_THROW((void)spec::integer<uint64_t>("x", "-1"), Error);
  EXPECT_THROW((void)spec::integer<int64_t>("x", "-9223372036854775809"),
               Error);
  EXPECT_THROW((void)spec::integer<int>("x", "0", 1), Error);
  EXPECT_THROW((void)spec::integer<int>("x", "5", 0, 4), Error);
}

TEST(SpecGrammar, TokenizerPairsChoicesAndLists) {
  std::vector<std::string> seen;
  spec::for_each("--g", ",a=1,,b,c=,d=x=y,", [&](const spec::Item& it) {
    seen.push_back(it.what + "|" + std::string(it.value) + "|" +
                   (it.has_value ? "v" : "-"));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"--g a|1|v", "--g b||-",
                                            "--g c||v", "--g d|x=y|v"}));
  EXPECT_EQ(spec::list(",1,,2,"), (std::vector<std::string_view>{"1", "2"}));
  EXPECT_TRUE(spec::list("").empty());

  const spec::Pair p = spec::pair("x", "3@4@5", '@', "A@B");
  EXPECT_EQ(p.first, "3");
  EXPECT_EQ(p.second, "4@5");
  for (const char* bad : {"3@", "@4", "34", ""}) {
    EXPECT_THROW((void)spec::pair("x", bad, '@', "A@B"), Error) << bad;
  }
  EXPECT_FALSE(spec::split("0.5", ':').has_second);

  EXPECT_EQ(spec::choice<int>("x", "b", {{"a", 1}, {"b", 2}}), 2);
  try {
    (void)spec::choice<int>("--steer", "yolo", {{"a", 1}, {"b", 2}});
    ADD_FAILURE() << "no throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "--steer: expected one of a, b, got 'yolo'");
  }
}

TEST(SpecGrammar, ErrorsNameTheDirective) {
  auto message = [](auto parse) {
    try {
      parse();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { (void)FaultPlan::parse_spec("drop=0.1,attempts=1.5"); }),
            "--faults attempts: expected a whole number, got '1.5'");
  EXPECT_EQ(message([] { (void)FaultPlan::parse_spec("kill-bucket=2"); }),
            "--faults kill-bucket: needs B@N (bucket@step), got '2'");
  EXPECT_EQ(message([] { (void)OverloadConfig::parse_spec("credits=-1"); }),
            "--overload credits: '-1' is outside [0, 2147483647]");
  EXPECT_EQ(message([] { (void)make_codec("quantize:nan"); }),
            "codec quantize: expected a finite number, got 'nan'");
  Scenario sc;
  std::string error;
  EXPECT_FALSE(planner::parse_scenario("buckets=2,smsg-lat=inf", &sc, &error));
  EXPECT_EQ(error, "scenario smsg-lat: expected a finite number, got 'inf'");
}

TEST(SpecGrammar, SeedsAndCodecBoundsAreExact) {
  EXPECT_EQ(FaultPlan::parse_spec("seed=18446744073709551615").seed,
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(FaultPlan::parse_spec("seed=9007199254740993").seed,
            uint64_t{9007199254740993});  // 2^53 + 1: no double detour
  const double bound = make_codec("quantize:1e-6")->param();
  const double expected = 1e-6;
  EXPECT_EQ(std::memcmp(&bound, &expected, sizeof(double)), 0);
}

// ----------------------------------------------------------- differential

enum class Grammar { kFault, kOverload, kScenario, kSweep, kCodec };

const char* grammar_name(Grammar g) {
  switch (g) {
    case Grammar::kFault: return "fault";
    case Grammar::kOverload: return "overload";
    case Grammar::kScenario: return "scenario";
    case Grammar::kSweep: return "sweep";
    case Grammar::kCodec: return "codec";
  }
  return "?";
}

template <typename Parse>
auto attempt(Parse parse) -> std::optional<decltype(parse())> {
  try {
    return parse();
  } catch (const Error&) {
    return std::nullopt;
  }
}

template <typename T, typename Key>
void expect_same_list(const std::vector<T>& a, const std::vector<T>& b,
                      Key key) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(key(a[i]), key(b[i])) << i;
}

void expect_same(const FaultPlanConfig& a, const FaultPlanConfig& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.frame_drop_prob, b.frame_drop_prob);
  EXPECT_EQ(a.frame_corrupt_prob, b.frame_corrupt_prob);
  EXPECT_EQ(a.frame_delay_prob, b.frame_delay_prob);
  EXPECT_EQ(a.frame_delay_s, b.frame_delay_s);
  EXPECT_EQ(a.task_fail_prob, b.task_fail_prob);
  EXPECT_EQ(a.worker_stall_prob, b.worker_stall_prob);
  EXPECT_EQ(a.worker_stall_s, b.worker_stall_s);
  expect_same_list(a.bucket_kills, b.bucket_kills,
                   [](const auto& x) { return std::pair(x.bucket, x.step); });
  expect_same_list(a.bucket_crashes, b.bucket_crashes,
                   [](const auto& x) { return std::pair(x.bucket, x.step); });
  expect_same_list(a.server_crashes, b.server_crashes,
                   [](const auto& x) { return std::pair(x.server, x.step); });
  expect_same_list(a.bucket_slowdowns, b.bucket_slowdowns, [](const auto& x) {
    return std::pair(x.bucket, x.factor);
  });
  expect_same_list(a.overload_injects, b.overload_injects,
                   [](const auto& x) { return std::pair(x.bytes, x.step); });
  expect_same_list(a.credit_starves, b.credit_starves,
                   [](const auto& x) { return std::pair(x.credits, x.step); });
  expect_same_list(a.tenant_hogs, b.tenant_hogs, [](const auto& x) {
    return std::tuple(x.tenant, x.bytes, x.step);
  });
  EXPECT_EQ(a.retry.max_task_attempts, b.retry.max_task_attempts);
  EXPECT_EQ(a.retry.max_frame_attempts, b.retry.max_frame_attempts);
  EXPECT_EQ(a.retry.backoff_base_s, b.retry.backoff_base_s);
  EXPECT_EQ(a.retry.backoff_cap_s, b.retry.backoff_cap_s);
  EXPECT_EQ(a.retry.task_timeout_s, b.retry.task_timeout_s);
  EXPECT_EQ(a.retry.degrade_to_insitu, b.retry.degrade_to_insitu);
}

void expect_same(const OverloadConfig& a, const OverloadConfig& b) {
  EXPECT_EQ(a.queue_bytes_budget, b.queue_bytes_budget);
  EXPECT_EQ(a.queue_depth_budget, b.queue_depth_budget);
  EXPECT_EQ(a.store_bytes_budget, b.store_bytes_budget);
  EXPECT_EQ(a.low_watermark, b.low_watermark);
  EXPECT_EQ(a.high_watermark, b.high_watermark);
  EXPECT_EQ(a.credits, b.credits);
  EXPECT_EQ(a.admit_max_wait_s, b.admit_max_wait_s);
  EXPECT_EQ(a.max_defers, b.max_defers);
}

void expect_same(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.arrival_scale, b.arrival_scale);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.base_nodes, b.base_nodes);
  EXPECT_EQ(a.credits, b.credits);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.divert, b.divert);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.model_network, b.model_network);
  EXPECT_EQ(a.net.smsg_latency_s, b.net.smsg_latency_s);
  EXPECT_EQ(a.net.smsg_bandwidth_Bps, b.net.smsg_bandwidth_Bps);
  EXPECT_EQ(a.net.smsg_max_bytes, b.net.smsg_max_bytes);
  EXPECT_EQ(a.net.bte_latency_s, b.net.bte_latency_s);
  EXPECT_EQ(a.net.bte_bandwidth_Bps, b.net.bte_bandwidth_Bps);
  EXPECT_EQ(a.net.congestion_exponent, b.net.congestion_exponent);
  EXPECT_EQ(a.codec_ratio, b.codec_ratio);
  EXPECT_EQ(a.tenant_weights, b.tenant_weights);
  EXPECT_EQ(a.label, b.label);
}

bool old_accepts(Grammar g, const std::string& text) {
  std::string error;
  switch (g) {
    case Grammar::kFault:
      return attempt([&] { return oracle::fault_spec(text); }).has_value();
    case Grammar::kOverload:
      return attempt([&] { return oracle::overload_spec(text); }).has_value();
    case Grammar::kScenario: {
      Scenario sc;
      return oracle::parse_scenario(text, &sc, &error);
    }
    case Grammar::kSweep: {
      SweepSpec sw;
      return oracle::parse_sweep(text, &sw, &error);
    }
    case Grammar::kCodec:
      return attempt([&] { return oracle::make_codec(text); }).has_value();
  }
  return false;
}

bool new_accepts(Grammar g, const std::string& text) {
  std::string error;
  switch (g) {
    case Grammar::kFault:
      return attempt([&] { return FaultPlan::parse_spec(text); }).has_value();
    case Grammar::kOverload:
      return attempt([&] { return OverloadConfig::parse_spec(text); })
          .has_value();
    case Grammar::kScenario: {
      Scenario sc;
      return planner::parse_scenario(text, &sc, &error);
    }
    case Grammar::kSweep: {
      SweepSpec sw;
      return planner::parse_sweep(text, &sw, &error);
    }
    case Grammar::kCodec:
      return attempt([&] { return make_codec(text); }).has_value();
  }
  return false;
}

/// Both parsers on one input: the same verdict and, on success, the same
/// config field for field.
void expect_same_parse(Grammar g, const std::string& text) {
  SCOPED_TRACE(std::string(grammar_name(g)) + " '" + text + "'");
  std::string old_error;
  std::string new_error;
  switch (g) {
    case Grammar::kFault: {
      const auto a = attempt([&] { return oracle::fault_spec(text); });
      const auto b = attempt([&] { return FaultPlan::parse_spec(text); });
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) expect_same(*a, *b);
      break;
    }
    case Grammar::kOverload: {
      const auto a = attempt([&] { return oracle::overload_spec(text); });
      const auto b = attempt([&] { return OverloadConfig::parse_spec(text); });
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) expect_same(*a, *b);
      break;
    }
    case Grammar::kScenario: {
      Scenario a;
      Scenario b;
      const bool a_ok = oracle::parse_scenario(text, &a, &old_error);
      ASSERT_EQ(a_ok, planner::parse_scenario(text, &b, &new_error));
      if (a_ok) expect_same(a, b);
      break;
    }
    case Grammar::kSweep: {
      SweepSpec a;
      SweepSpec b;
      const bool a_ok = oracle::parse_sweep(text, &a, &old_error);
      ASSERT_EQ(a_ok, planner::parse_sweep(text, &b, &new_error));
      if (a_ok) {
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(a.values, b.values);
      }
      break;
    }
    case Grammar::kCodec: {
      const auto a = attempt([&] { return oracle::make_codec(text); });
      const auto b = attempt([&] { return make_codec(text); });
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ((*a)->kind(), (*b)->kind());
        EXPECT_EQ((*a)->param(), (*b)->param());
      }
      break;
    }
  }
}

/// An input on which the grammar deliberately parts from the parser it
/// replaced. `old_defined` is false where the old parser's cast was
/// undefined behaviour (or it never returned), so it is not called.
struct Divergence {
  Grammar grammar;
  std::string text;
  bool new_accepts;
  bool old_defined;
};

const std::vector<Divergence> kDivergences = {
    // Fractional or out-of-range integers: the old parsers cast.
    {Grammar::kFault, "attempts=1.5", false, true},          // old: 1
    {Grammar::kFault, "kill-bucket=0.9@2.7", false, true},   // old: 0@2
    {Grammar::kFault, "seed=-1", false, false},              // old: 2^64-1
    {Grammar::kFault, "seed=1e30", false, false},
    {Grammar::kFault, "attempts=1e30", false, false},
    {Grammar::kFault, "credit-starve=4294967297@1", false, false},
    {Grammar::kFault, "overload=1e30@1", false, false},
    {Grammar::kOverload, "queue-bytes=0.5", false, true},    // old: 0
    {Grammar::kOverload, "defer-max=1.5", false, true},      // old: 1
    {Grammar::kOverload, "credits=4294967297", false, true},  // old: 1
    {Grammar::kOverload, "queue-bytes=1e30", false, false},
    {Grammar::kScenario, "credits=4294967297", false, true},  // old: 1
    // Non-finite reals.
    {Grammar::kFault, "slow-bucket=0:inf", false, true},
    {Grammar::kFault, "backoff=0.001:inf", false, true},
    {Grammar::kFault, "delay=0.5:inf", false, true},
    {Grammar::kOverload, "admit-wait=inf", false, true},
    {Grammar::kScenario, "smsg-lat=inf", false, true},
    {Grammar::kScenario, "congestion=nan", false, true},
    {Grammar::kScenario, "nodes=inf", false, true},
    {Grammar::kSweep, "buckets=1..inf", false, false},  // old: never ends
    // Ranges the sweep cap refuses (old: allocated 10^12 strings).
    {Grammar::kSweep, "buckets=1..1e12", false, false},
    // Spellings outside "finite decimal": strtod read these.
    {Grammar::kFault, "stall=0.1:0x10", false, true},
    {Grammar::kFault, "drop= 0.1", false, true},
    {Grammar::kFault, "attempts=+2", false, true},
    {Grammar::kFault, "drop=1e-400", false, true},  // underflow, old: 0
    {Grammar::kFault, "delay=0.3:", false, true},   // empty optional field
    {Grammar::kSweep, "buckets=0x1..2", false, true},
    {Grammar::kCodec, "quantize: 1e-6", false, true},
    // The k/m/g suffix, newly accepted by the fault and codec grammars and
    // by overload's seconds fields (the docs' overload drill used 256k).
    {Grammar::kFault, "overload=256k@3", true, true},
    {Grammar::kFault, "kill-bucket=1@2,overload=256k@3,credit-starve=4@3",
     true, true},
    {Grammar::kFault, "tenant-hog=1:64k@2", true, true},
    {Grammar::kOverload, "admit-wait=1k", true, true},
    {Grammar::kCodec, "quantize:1k", true, true},
    // The planner's 1e15 integer cap gave way to the field's type.
    {Grammar::kScenario, "smsg-max=1e16", true, true},
    {Grammar::kScenario, "queue-depth=1e16", true, true},
    // Exact 64-bit seeds (old: via double, and past 2^64-2^11 undefined).
    {Grammar::kFault, "seed=18446744073709551615", true, false},
};

bool is_divergence(Grammar g, const std::string& text) {
  for (const Divergence& d : kDivergences) {
    if (d.grammar == g && d.text == text) return true;
  }
  return false;
}

constexpr Grammar kGrammars[] = {Grammar::kFault, Grammar::kOverload,
                                 Grammar::kScenario, Grammar::kSweep,
                                 Grammar::kCodec};

/// Spans of `text` that look like numbers (digits and dots).
std::vector<std::pair<size_t, size_t>> number_spans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < text.size();) {
    if (std::strchr("0123456789.", text[i]) == nullptr || text[i] == '\0') {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < text.size() && std::strchr("0123456789.", text[i]) != nullptr &&
           text[i] != '\0') {
      ++i;
    }
    spans.emplace_back(begin, i - begin);
  }
  return spans;
}

TEST(SpecDiff, CorpusParsesIdenticallyUnderOldAndNewParsers) {
  int accepted = 0;
  for (const std::string& text : kCorpus) {
    for (const Grammar g : kGrammars) {
      if (is_divergence(g, text)) continue;
      expect_same_parse(g, text);
      accepted += old_accepts(g, text) ? 1 : 0;
    }
  }
  // The corpus is mostly valid specs of one grammar or another.
  EXPECT_GT(accepted, 100);
}

TEST(SpecDiff, SmallWholeNumberSubstitutionsParseIdentically) {
  // Every number of every corpus spec replaced, one at a time, by small
  // whole values: defined casts for the old parsers, no divergence class.
  for (const std::string& text : kCorpus) {
    for (const auto& [begin, length] : number_spans(text)) {
      for (const char* value : {"0", "1", "3", "16"}) {
        std::string mutated = text;
        mutated.replace(begin, length, value);
        for (const Grammar g : kGrammars) {
          if (!is_divergence(g, mutated)) expect_same_parse(g, mutated);
        }
      }
    }
  }
}

TEST(SpecDiff, IntendedDivergencesAreExplicit) {
  for (const Divergence& d : kDivergences) {
    SCOPED_TRACE(std::string(grammar_name(d.grammar)) + " '" + d.text + "'");
    EXPECT_EQ(new_accepts(d.grammar, d.text), d.new_accepts);
    if (d.old_defined) {
      EXPECT_NE(old_accepts(d.grammar, d.text), d.new_accepts);
    }
  }
}

// ------------------------------------------------------------------- fuzz

const char* const kHostileNumbers[] = {
    "nan", "inf", "-1", "1e30", "2.5", "4294967297", "18446744073709551616",
    "1e-400", "-0", "0x10"};

/// One to three stacked mutations of `text`: a bit flip, a truncation, a
/// splice with `other`, or a hostile number in place of one of its own.
std::string mutate(SplitMix64& rng, std::string text,
                   const std::string& other) {
  const int rounds = 1 + static_cast<int>(rng.next() % 3);
  for (int r = 0; r < rounds; ++r) {
    switch (rng.next() % 4) {
      case 0:
        if (!text.empty()) {
          text[rng.next() % text.size()] ^=
              static_cast<char>(1u << (rng.next() % 8));
        }
        break;
      case 1:
        text.resize(rng.next() % (text.size() + 1));
        break;
      case 2:
        text = text.substr(0, rng.next() % (text.size() + 1)) +
               other.substr(rng.next() % (other.size() + 1));
        break;
      default: {
        const auto spans = number_spans(text);
        if (spans.empty()) break;
        const auto [begin, length] = spans[rng.next() % spans.size()];
        text.replace(begin, length,
                     kHostileNumbers[rng.next() % std::size(kHostileNumbers)]);
        break;
      }
    }
  }
  return text;
}

/// Runs `parse` on a mutant: hia::Error is the contract's failure mode
/// (when `may_throw`), any other exception a bug.
template <typename Parse>
void expect_contract(const char* parser, const std::string& input,
                     bool may_throw, Parse parse) {
  try {
    parse();
  } catch (const Error& e) {
    if (!may_throw) {
      ADD_FAILURE() << parser << " threw on '" << input << "': " << e.what();
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << parser << " threw a non-hia::Error on '" << input
                  << "': " << e.what();
  }
}

TEST(SpecFuzz, MutatedSpecsParseOrFailCleanly) {
  SplitMix64 rng(0x5eed5eed);
  const int iterations = 10000 * stress_scale();
  int parsed = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string& a = kCorpus[rng.next() % kCorpus.size()];
    const std::string& b = kCorpus[rng.next() % kCorpus.size()];
    const std::string input = mutate(rng, a, b);
    expect_contract("FaultPlan::parse_spec", input, true, [&] {
      (void)FaultPlan::parse_spec(input);
      ++parsed;
    });
    expect_contract("OverloadConfig::parse_spec", input, true,
                    [&] { (void)OverloadConfig::parse_spec(input); });
    expect_contract("make_codec", input, true,
                    [&] { (void)make_codec(input); });
    std::string error;
    expect_contract("parse_scenario", input, false, [&] {
      Scenario sc;
      if (!planner::parse_scenario(input, &sc, &error)) {
        EXPECT_FALSE(error.empty()) << input;
      }
    });
    expect_contract("parse_sweep/expand_sweeps", input, false, [&] {
      SweepSpec sw;
      if (!planner::parse_sweep(input, &sw, &error)) return;
      EXPECT_LE(sw.values.size(), planner::kMaxSweepScenarios) << input;
      std::vector<Scenario> grid;
      (void)planner::expand_sweeps(Scenario{}, {sw, sw}, &grid, &error);
      EXPECT_LE(grid.size(), planner::kMaxSweepScenarios) << input;
    });
  }
  EXPECT_GT(parsed, 0);  // the mutants are not all trivially rejected
}

TEST(SpecFuzz, MutatedSpillHeadersFailWithAnError) {
  const std::string path = ::testing::TempDir() + "spec_fuzz_events.bin";
  const std::string header =
      "{\"schema\":\"hia-events-v1\",\"record_bytes\":48,\"count\":2,"
      "\"dropped\":3,\"dropped_by_kind\":{\"3\":2,\"17\":1},"
      "\"run_config\":{\"buckets\":4,\"servers\":2,\"replicas\":2,"
      "\"faults\":\"kill-bucket=1@2,seed=9\",\"overload\":\"credits=8\","
      "\"tenant_weights\":[2,1]}}";
  SplitMix64 rng(0xe7e7e7e7);
  const int iterations = 400 * stress_scale();
  int read_ok = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string mutated =
        i == 0 ? header
               : mutate(rng, header, kCorpus[rng.next() % kCorpus.size()]);
    const size_t records = rng.next() % 4;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const uint32_t version = 1;
      const auto header_bytes = static_cast<uint32_t>(mutated.size());
      out.write("hiaevts1", 8);
      out.write(reinterpret_cast<const char*>(&version), sizeof(version));
      out.write(reinterpret_cast<const char*>(&header_bytes),
                sizeof(header_bytes));
      out << mutated << std::string(records * sizeof(obs::EventRecord), '\0');
    }
    std::vector<obs::EventRecord> out_records;
    uint64_t dropped = 0;
    std::map<int32_t, uint64_t> by_kind;
    std::string error;
    expect_contract("read_events_file", mutated, false, [&] {
      if (obs::read_events_file(path, &out_records, &dropped, &by_kind,
                                &error)) {
        ++read_ok;
      } else {
        EXPECT_FALSE(error.empty()) << mutated;
      }
    });
    expect_contract("read_events_run_config", mutated, false, [&] {
      obs::EventsRunConfig cfg;
      (void)obs::read_events_run_config(path, &cfg, &error);
    });
  }
  EXPECT_GT(read_ok, 0);  // the intact header (i == 0, 2 records) at least
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hia
