#ifndef LQS_ANALYSIS_VALIDATOR_H_
#define LQS_ANALYSIS_VALIDATOR_H_

#include <string>
#include <vector>

#include "common/noalloc.h"
#include "common/status.h"
#include "exec/plan.h"
#include "lqs/pipeline.h"
#include "storage/catalog.h"

namespace lqs {

/// One violated invariant, with enough context to locate it: the name of the
/// check that fired, the plan node / pipeline involved (-1 when not
/// applicable) and a human-readable detail line.
struct ValidationIssue {
  std::string check;
  int node_id = -1;
  int pipeline_id = -1;
  std::string detail;

  std::string ToString() const;
};

/// Accumulated result of one or more validation passes. Empty == valid.
class ValidationReport {
 public:
  bool ok() const { return issues_.empty(); }
  const std::vector<ValidationIssue>& issues() const { return issues_; }

  LQS_ALLOC_OK(
      "violation reporting: only reached after an invariant has already "
      "failed, never on the steady-state estimation path")
  void Add(std::string check, int node_id, int pipeline_id,
           std::string detail);
  /// Merges another report's issues into this one.
  void Merge(const ValidationReport& other);

  /// All issues, one per line; empty string when ok().
  std::string ToString() const;
  /// OK when no issues, otherwise Internal with the joined issue lines.
  Status ToStatus() const;

 private:
  std::vector<ValidationIssue> issues_;
};

/// Static checks on a finalized Plan and its PlanAnalysis. These are the §3
/// structural prerequisites every estimator feature silently relies on:
///
///  Plan-level (Validate(plan)):
///   - node ids are dense [0, size), unique, pre-order, and `nodes[id]`
///     indexes the node carrying that id (the tree is consistent with the
///     flat view — no aliasing, no cycles);
///   - per-operator arity (joins have two children, unary operators one,
///     leaves none);
///   - optimizer annotations are finite and non-negative;
///   - cross-node references (bitmap_source_id) point at a BitmapCreate
///     node that exists;
///   - outer-column expressions appear only on Nested Loops inner sides;
///   - with a catalog: every referenced table exists.
///
///  Analysis-level (Validate(plan, analysis)), over the flat layout the
///  estimator reads (PlanAnalysis spans, flag bits, NL child ids):
///   - the per-node arrays cover the plan and every pipeline span is
///     well-formed;
///   - pipelines partition the plan (every node in exactly one pipeline,
///     membership spans consistent with pipeline_of_node);
///   - every pipeline has at least one standard driver node, and driver
///     nodes are genuine pipeline sources (no same-pipeline children);
///   - blocking edges and pipeline boundaries coincide (§3.1.1): an edge
///     starts a new pipeline iff IsBlockingEdge, and the child-pipeline
///     spans list only pipelines rooted below such an edge;
///   - NL-inner flags are consistent (kFlagOnNljInner iff
///     nlj_outer_child / nlj_inner_child name the inputs of a Nested Loops
///     join in the node's own pipeline).
class PlanValidator {
 public:
  /// `catalog` may be null; table-existence checks are then skipped.
  explicit PlanValidator(const Catalog* catalog = nullptr)
      : catalog_(catalog) {}

  ValidationReport Validate(const Plan& plan) const;
  ValidationReport Validate(const Plan& plan,
                            const PlanAnalysis& analysis) const;

 private:
  void CheckStructure(const Plan& plan, ValidationReport* report) const;
  void CheckAnnotations(const Plan& plan, ValidationReport* report) const;
  void CheckPipelines(const Plan& plan, const PlanAnalysis& a,
                      ValidationReport* report) const;

  const Catalog* catalog_;
};

}  // namespace lqs

#endif  // LQS_ANALYSIS_VALIDATOR_H_
