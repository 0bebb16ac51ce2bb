// Selinger-style dynamic-programming join-order optimizer over left-deep
// hash-join plans. Cardinality estimates come from PgEstimator, with an
// optional per-estimate adjustment hook — the mechanism of the Table I
// experiment, where the hook replaces Est(Q) with the conformal upper
// bound Est(Q) + delta (after Cai et al.'s pessimistic-cardinality
// integration the paper builds on).
#ifndef CONFCARD_OPTIM_OPTIMIZER_H_
#define CONFCARD_OPTIM_OPTIMIZER_H_

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "optim/pg_estimator.h"
#include "query/join_query.h"

namespace confcard {

/// Physical operator for one join step.
enum class JoinOp {
  kHashJoin,    // cost ~ build + probe + output
  kNestedLoop,  // cost ~ outer * inner * kNestedLoopFactor + output;
                // cheap for tiny inputs, catastrophic when the outer
                // cardinality was underestimated
};

/// Per-tuple cost factor of the nested-loop join relative to streaming a
/// tuple through a hash join.
inline constexpr double kNestedLoopFactor = 0.2;

/// Cost-model parameters. The spill rule models the memory cliff of
/// real hash joins: when the smaller input exceeds the work-mem budget
/// the join spills and every tuple is written and re-read
/// (`spill_factor` x). Optimizers pay this cliff when they UNDERestimate
/// an input — precisely the failure pessimistic PI bounds prevent
/// (Table I).
struct CostModel {
  double nested_loop_factor = kNestedLoopFactor;
  /// Rows that fit in memory for a hash build; infinite disables
  /// spill modeling.
  double spill_threshold = std::numeric_limits<double>::infinity();
  double spill_factor = 3.0;

  /// Cost of one hash-join step with input sizes `outer`/`inner` and
  /// output size `out`.
  double HashCost(double outer, double inner, double out) const {
    const double stream = outer + inner + out;
    if (std::min(outer, inner) > spill_threshold) {
      return spill_factor * (outer + inner) + out;
    }
    return stream;
  }
  /// Cost of one nested-loop step.
  double NestedLoopCost(double outer, double inner, double out) const {
    return nested_loop_factor * outer * inner + out;
  }
};

/// A chosen left-deep join order plus its estimated cost.
struct JoinPlan {
  /// Tables in execution order (first is the build-side seed).
  std::vector<std::string> order;
  /// Operator for each join step (size = order.size() - 1).
  std::vector<JoinOp> ops;
  /// Optimizer's cost under its own estimates.
  double estimated_cost = 0.0;
  /// Optimizer's estimate of the final join cardinality.
  double estimated_cardinality = 0.0;
};

/// Hook applied to every multi-table cardinality estimate the optimizer
/// requests, receiving the subset of tables being estimated. Identity by
/// default. The Table I experiment injects the PI upper bound here: one
/// cardinality delta, calibrated on full-query residuals, is added to
/// the estimate of every subset (`raw_estimate + delta`), whether it
/// joins two tables or all of them (EXPERIMENTS.md, D4).
using EstimateAdjuster = std::function<double(
    double raw_estimate, const std::vector<std::string>& tables)>;

/// DP join-order optimizer.
class JoinOptimizer {
 public:
  explicit JoinOptimizer(const PgEstimator& estimator);

  /// Installs an adjuster for join (>= 2 tables) estimates.
  void SetAdjuster(EstimateAdjuster adjuster);

  /// Replaces the cost model (default: no spill modeling).
  void SetCostModel(const CostModel& model) { cost_model_ = model; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Picks the cheapest left-deep order for `query` by exact DP over
  /// connected table subsets. Fails when the join graph is disconnected
  /// or the query has more than 20 tables.
  Result<JoinPlan> Optimize(const JoinQuery& query) const;

 private:
  const PgEstimator* estimator_;
  EstimateAdjuster adjuster_;
  CostModel cost_model_;
};

}  // namespace confcard

#endif  // CONFCARD_OPTIM_OPTIMIZER_H_
