// Golden corpus of the estimator and the bounds engines: FNV-1a digests over
// the raw bits of every ProgressReport field and of every bounds interval,
// so any change to the estimation arithmetic — even one ulp in one field of
// one snapshot — moves a digest.
//
// Reports: every snapshot (then the final snapshot) of executed TPC-H and
// TPC-DS traces, for all four §5 presets and their `_lp` variants, with
// `incremental` on and off, in forward and seeded-shuffled replay, through
// one reused Workspace per replay (the monitor's path).
//
// Bounds: the lower/upper bits (plus the engine counters) of
// ComputeBoundsPipelineInto for all three engines, with no frozen mask and
// with the mask EstimateInto builds (finished && !kFlagUnderNljInner).
//
// Hand-built plans cover shapes the workloads barely reach: a Nested Loops
// join on another Nested Loops join's inner side (a rebind multiplier chain
// of two), Top over Merge Join, a semi Nested Loops join with a spool inner,
// and a columnstore scan with a pushed predicate.
//
// The constants pin today's output. To re-derive them after an intended
// change, read the "digest" values this test prints on failure.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "exec/executor.h"
#include "lqs/bounds.h"
#include "lqs/estimator.h"
#include "lqs/pipeline.h"
#include "optimizer/annotate.h"
#include "tests/test_util.h"
#include "workload/plan_builder.h"
#include "workload/workload.h"

namespace lqs {
namespace testing {
namespace {

using namespace pb;  // NOLINT

constexpr uint64_t kWorkloadReportsDigest = 0x925046BE9F017103ull;
constexpr uint64_t kWorkloadBoundsDigest = 0x36E348651FBC07FBull;
constexpr uint64_t kHandBuiltReportsDigest = 0xAA45461A9F196E03ull;
constexpr uint64_t kHandBuiltBoundsDigest = 0x25FFD47A5A0A126Full;

/// 64-bit FNV-1a, fed eight little-endian bytes at a time.
struct Digest {
  uint64_t h = 1469598103934665603ull;

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Vector(const std::vector<double>& v) {
    U64(v.size());
    for (double x : v) Double(x);
  }
};

void HashReport(const ProgressReport& r, Digest* d) {
  d->Double(r.query_progress);
  d->Vector(r.operator_progress);
  d->Vector(r.refined_rows);
  d->Vector(r.pipeline_progress);
  d->Vector(r.pipeline_weight);
}

/// Seeded Fisher–Yates over splitmix64, so the shuffled replay order is the
/// same under every standard library.
std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::swap(order[i - 1], order[z % i]);
  }
  return order;
}

struct Preset {
  std::string name;
  EstimatorOptions options;
};

std::vector<Preset> AllPresets() {
  std::vector<Preset> presets;
  for (int i = 0; i < EstimatorOptions::kPresetCount; ++i) {
    for (const char* suffix : {"", "_lp"}) {
      const std::string name =
          std::string(EstimatorOptions::PresetName(i)) + suffix;
      EstimatorOptions options;
      EXPECT_TRUE(EstimatorOptions::PresetFromName(name, &options)) << name;
      presets.push_back({name, options});
    }
  }
  return presets;
}

/// One executed plan of the corpus.
struct Case {
  std::string name;
  const Plan* plan;
  const Catalog* catalog;
  const ProfileTrace* trace;
};

/// Every report of every replay of `c`: 8 presets x incremental on/off x
/// forward/shuffled, each replay through one reused Workspace.
void HashCaseReports(const Case& c, uint64_t shuffle_seed, Digest* d) {
  const std::vector<ProfileSnapshot>& snaps = c.trace->snapshots;
  std::vector<size_t> forward(snaps.size());
  for (size_t i = 0; i < forward.size(); ++i) forward[i] = i;
  const std::vector<size_t> shuffled =
      ShuffledOrder(snaps.size(), shuffle_seed);
  const std::vector<size_t>* const orders[] = {&forward, &shuffled};
  for (const Preset& preset : AllPresets()) {
    for (bool incremental : {true, false}) {
      EstimatorOptions options = preset.options;
      options.incremental = incremental;
      const ProgressEstimator estimator(c.plan, c.catalog, options);
      for (const std::vector<size_t>* order : orders) {
        ProgressEstimator::Workspace workspace;
        ProgressReport report;
        for (size_t idx : *order) {
          estimator.EstimateInto(snaps[idx], &workspace, &report);
          HashReport(report, d);
        }
        estimator.EstimateInto(c.trace->final_snapshot, &workspace, &report);
        HashReport(report, d);
      }
    }
  }
}

/// Every snapshot's intervals under all three engines, unmasked and with
/// the freeze mask EstimateInto derives from the same snapshot.
void HashCaseBounds(const Case& c, Digest* d) {
  const PlanAnalysis analysis = AnalyzePlan(*c.plan, c.catalog);
  const int n = c.plan->size();
  std::vector<uint8_t> frozen(static_cast<size_t>(n), 0);
  CardinalityBounds out;
  CardinalityBounds scratch;
  const std::vector<uint8_t>* const masks[] = {nullptr, &frozen};
  auto hash_snapshot = [&](const ProfileSnapshot& snap) {
    for (int i = 0; i < n; ++i) {
      frozen[i] = snap.operators[i].finished &&
                  (analysis.flags[i] & kFlagUnderNljInner) == 0;
    }
    for (BoundsEngineKind kind :
         {BoundsEngineKind::kAppendixA, BoundsEngineKind::kLpBound,
          BoundsEngineKind::kIntersect}) {
      for (const std::vector<uint8_t>* mask : masks) {
        BoundsEngineStats stats;
        ComputeBoundsPipelineInto(kind, *c.plan, *c.catalog, snap,
                                  mask != nullptr ? &analysis : nullptr,
                                  analysis, mask, &out, &scratch, &stats);
        d->Vector(out.lower);
        d->Vector(out.upper);
        d->U64(stats.derivations);
        d->U64(stats.lp_tightenings);
        d->U64(stats.intersection_inversions);
      }
    }
  };
  for (const ProfileSnapshot& snap : c.trace->snapshots) hash_snapshot(snap);
  hash_snapshot(c.trace->final_snapshot);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llXull",
                static_cast<unsigned long long>(v));
  return buf;
}

class EstimatorGoldenTest : public ::testing::Test {
 protected:
  struct ExecutedWorkload {
    Workload workload;
    std::vector<ExecutionResult> runs;  // parallel to workload.queries
  };

  /// TPC-H and TPC-DS at scale 0.1 with realistic misestimation, executed
  /// once and shared by the workload tests.
  static const std::vector<ExecutedWorkload>& Workloads() {
    static const std::vector<ExecutedWorkload>* shared = [] {
      auto* all = new std::vector<ExecutedWorkload>();
      OptimizerOptions oo;
      oo.selectivity_error = 1.5;
      ExecOptions exec;
      exec.snapshot_interval_ms = 2.0;
      TpchOptions tpch;
      tpch.scale = 0.1;
      auto h = MakeTpchWorkload(tpch);
      EXPECT_TRUE(h.ok());
      TpcdsOptions tpcds;
      tpcds.scale = 0.1;
      auto ds = MakeTpcdsWorkload(tpcds);
      EXPECT_TRUE(ds.ok());
      for (auto* w : {&h.value(), &ds.value()}) {
        EXPECT_TRUE(AnnotateWorkload(w, oo).ok());
        ExecutedWorkload ew;
        ew.workload = std::move(*w);
        for (auto& q : ew.workload.queries) {
          auto run = ExecuteQuery(q.plan, ew.workload.catalog.get(), exec);
          EXPECT_TRUE(run.ok()) << ew.workload.name << "/" << q.name;
          ew.runs.push_back(std::move(run).value());
        }
        all->push_back(std::move(ew));
      }
      return all;
    }();
    return *shared;
  }

  static std::vector<Case> WorkloadCases() {
    std::vector<Case> cases;
    for (const ExecutedWorkload& ew : Workloads()) {
      for (size_t qi = 0; qi < ew.workload.queries.size(); ++qi) {
        const WorkloadQuery& q = ew.workload.queries[qi];
        cases.push_back({ew.workload.name + "/" + q.name, &q.plan,
                         ew.workload.catalog.get(), &ew.runs[qi].trace});
      }
    }
    return cases;
  }

  /// The hand-built corner-case plans, annotated and executed against the
  /// test catalog.
  struct HandBuilt {
    std::unique_ptr<Catalog> catalog = MakeTestCatalog();
    std::vector<std::string> names;
    std::vector<Plan> plans;
    std::vector<ExecutionResult> runs;

    void Add(const std::string& name, NodePtr root) {
      Plan plan = MustFinalize(std::move(root), *catalog);
      EXPECT_OK(AnnotatePlan(&plan, *catalog, OptimizerOptions{}));
      ExecOptions exec;
      exec.snapshot_interval_ms = 1.0;
      runs.push_back(MustExecute(plan, catalog.get(), exec));
      names.push_back(name);
      plans.push_back(std::move(plan));
    }
  };

  static const HandBuilt& HandBuiltPlans() {
    static const HandBuilt* shared = [] {
      auto* hb = new HandBuilt();
      // An NL join on another NL join's inner side: the innermost seek
      // re-executes per (outer x middle) row, a rebind multiplier chain of
      // two NL-outer upper bounds. The inner join buffers its outer rows.
      hb->Add("nlj_chain",
              Nlj(JoinKind::kInner,
                  Filter(Scan("t_small"), ColCmp(0, CompareOp::kLt, 6)),
                  Nlj(JoinKind::kInner,
                      Filter(Scan("t_small"), ColCmp(1, CompareOp::kEq, 3)),
                      CiSeek("t_big", OuterCol(0), OuterCol(0)), nullptr,
                      /*buffered=*/true)));
      // Top over Merge Join: both join inputs may stop early.
      hb->Add("top_merge",
              Top(MergeJoin(JoinKind::kInner, CiScan("t_small"),
                            IdxScan("t_big", "ix_fk"), {0}, {1}),
                  700));
      // Semi NL join whose inner side is a spool: the spool is unbounded
      // across rebinds and the semi kind abandons the inner stream early.
      hb->Add("semi_nlj_spool",
              Nlj(JoinKind::kLeftSemi,
                  Filter(Scan("t_small"), ColCmp(0, CompareOp::kLt, 40)),
                  EagerSpool(
                      Filter(Scan("t_big"), ColCmp(2, CompareOp::kLt, 5)))));
      // Columnstore scan with a pushed predicate (segment elimination plus
      // the storage-engine filter bound) feeding a hash join and aggregate.
      hb->Add("columnstore_pushed",
              HashAgg(HashJoin(JoinKind::kInner, Scan("t_small"),
                               CsScan("t_big",
                                      ColCmp(0, CompareOp::kLt, 3000)),
                               {0}, {1}),
                      {2}, {Count()}));
      return hb;
    }();
    return *shared;
  }

  static std::vector<Case> HandBuiltCases() {
    const HandBuilt& hb = HandBuiltPlans();
    std::vector<Case> cases;
    for (size_t i = 0; i < hb.plans.size(); ++i) {
      cases.push_back(
          {hb.names[i], &hb.plans[i], hb.catalog.get(), &hb.runs[i].trace});
    }
    return cases;
  }
};

TEST_F(EstimatorGoldenTest, WorkloadReportsMatchGoldenDigest) {
  Digest d;
  uint64_t seed = 1;
  for (const Case& c : WorkloadCases()) HashCaseReports(c, seed++, &d);
  EXPECT_EQ(d.h, kWorkloadReportsDigest) << "digest " << Hex(d.h);
}

TEST_F(EstimatorGoldenTest, WorkloadBoundsMatchGoldenDigest) {
  Digest d;
  for (const Case& c : WorkloadCases()) HashCaseBounds(c, &d);
  EXPECT_EQ(d.h, kWorkloadBoundsDigest) << "digest " << Hex(d.h);
}

TEST_F(EstimatorGoldenTest, HandBuiltPlansMatchGoldenDigest) {
  const std::vector<Case> cases = HandBuiltCases();
  for (const Case& c : cases) {
    // Every corner case must actually have run and been sampled mid-way.
    EXPECT_GT(c.trace->snapshots.size(), 3u) << c.name;
    EXPECT_GT(c.trace->final_snapshot.operators[0].row_count, 0u) << c.name;
  }
  Digest reports;
  Digest bounds;
  uint64_t seed = 101;
  for (const Case& c : cases) {
    HashCaseReports(c, seed++, &reports);
    HashCaseBounds(c, &bounds);
  }
  EXPECT_EQ(reports.h, kHandBuiltReportsDigest)
      << "reports digest " << Hex(reports.h);
  EXPECT_EQ(bounds.h, kHandBuiltBoundsDigest)
      << "bounds digest " << Hex(bounds.h);
}

}  // namespace
}  // namespace testing
}  // namespace lqs
