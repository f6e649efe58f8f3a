#include "safety/stl.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/contracts.h"

namespace cpsguard::safety {
namespace {

using F = StlFormula;

SignalTrace make_trace() {
  SignalTrace st;
  st.add_signal("x", {0.0, 1.0, 2.0, 3.0, 4.0});
  st.add_signal("y", {5.0, 4.0, 3.0, 2.0, 1.0});
  return st;
}

TEST(SignalTrace, StoresAndReads) {
  const SignalTrace st = make_trace();
  EXPECT_EQ(st.length(), 5);
  EXPECT_TRUE(st.has_signal("x"));
  EXPECT_FALSE(st.has_signal("z"));
  EXPECT_DOUBLE_EQ(st.value("y", 2), 3.0);
}

TEST(SignalTrace, RejectsUnequalLengths) {
  SignalTrace st;
  st.add_signal("a", {1.0, 2.0});
  EXPECT_THROW(st.add_signal("b", {1.0}), cpsguard::ContractViolation);
}

TEST(SignalTrace, RejectsUnknownSignalAndBadIndex) {
  const SignalTrace st = make_trace();
  EXPECT_THROW((void)st.value("nope", 0), cpsguard::ContractViolation);
  EXPECT_THROW((void)st.value("x", 5), cpsguard::ContractViolation);
}

TEST(StlAtom, ComparisonSemantics) {
  const SignalTrace st = make_trace();
  EXPECT_TRUE(F::atom("x", Cmp::kGt, 1.5)->eval(st, 2));
  EXPECT_FALSE(F::atom("x", Cmp::kGt, 2.0)->eval(st, 2));
  EXPECT_TRUE(F::atom("x", Cmp::kLt, 2.5)->eval(st, 2));
  EXPECT_FALSE(F::atom("x", Cmp::kLt, 2.0)->eval(st, 2));
}

TEST(StlAtom, EqApproxUsesEps) {
  const SignalTrace st = make_trace();
  EXPECT_TRUE(F::atom("x", Cmp::kEqApprox, 2.05, 0.1)->eval(st, 2));
  EXPECT_FALSE(F::atom("x", Cmp::kEqApprox, 2.5, 0.1)->eval(st, 2));
}

TEST(StlAtom, RobustnessIsSignedMargin) {
  const SignalTrace st = make_trace();
  EXPECT_DOUBLE_EQ(F::atom("x", Cmp::kGt, 1.0)->robustness(st, 3), 2.0);
  EXPECT_DOUBLE_EQ(F::atom("x", Cmp::kLt, 1.0)->robustness(st, 3), -2.0);
}

TEST(StlBoolean, NotAndOr) {
  const SignalTrace st = make_trace();
  const auto x_big = F::atom("x", Cmp::kGt, 2.5);
  const auto y_big = F::atom("y", Cmp::kGt, 2.5);
  EXPECT_TRUE(F::negate(x_big)->eval(st, 0));
  EXPECT_FALSE(F::conj(x_big, y_big)->eval(st, 4));  // y small at t=4
  EXPECT_TRUE(F::disj(x_big, y_big)->eval(st, 4));   // x big at t=4
  const auto both_mid = F::conj(F::atom("x", Cmp::kGt, 1.5),
                                F::atom("y", Cmp::kGt, 1.5));
  EXPECT_TRUE(both_mid->eval(st, 2));  // x=2, y=3
}

TEST(StlBoolean, ConjRobustnessIsMin) {
  const SignalTrace st = make_trace();
  const auto f = F::conj(F::atom("x", Cmp::kGt, 0.0), F::atom("y", Cmp::kGt, 0.0));
  EXPECT_DOUBLE_EQ(f->robustness(st, 3), std::min(3.0, 2.0));
}

TEST(StlBoolean, DisjRobustnessIsMax) {
  const SignalTrace st = make_trace();
  const auto f = F::disj(F::atom("x", Cmp::kGt, 0.0), F::atom("y", Cmp::kGt, 0.0));
  EXPECT_DOUBLE_EQ(f->robustness(st, 3), std::max(3.0, 2.0));
}

TEST(StlTemporal, EventuallyFindsFutureSatisfaction) {
  const SignalTrace st = make_trace();
  const auto f = F::eventually(F::atom("x", Cmp::kGe, 4.0), 0, 10);
  EXPECT_TRUE(f->eval(st, 0));
  const auto g = F::eventually(F::atom("x", Cmp::kGt, 10.0), 0, 10);
  EXPECT_FALSE(g->eval(st, 0));
}

TEST(StlTemporal, AlwaysRequiresWholeWindow) {
  const SignalTrace st = make_trace();
  EXPECT_TRUE(F::always(F::atom("x", Cmp::kGe, 0.0), 0, 4)->eval(st, 0));
  EXPECT_FALSE(F::always(F::atom("x", Cmp::kGe, 1.0), 0, 4)->eval(st, 0));
  EXPECT_TRUE(F::always(F::atom("x", Cmp::kGe, 1.0), 1, 4)->eval(st, 0));
}

TEST(StlTemporal, WindowClampsToTraceEnd) {
  const SignalTrace st = make_trace();
  // Window [t+3, t+100] from t=3 covers only index 4.
  const auto f = F::eventually(F::atom("y", Cmp::kLe, 1.0), 1, 100);
  EXPECT_TRUE(f->eval(st, 3));
}

TEST(StlTemporal, NestedFormulas) {
  const SignalTrace st = make_trace();
  // "Eventually (x > 2 and y < 3)" — true at t=3 (x=3, y=2).
  const auto f = F::eventually(
      F::conj(F::atom("x", Cmp::kGt, 2.0), F::atom("y", Cmp::kLt, 3.0)), 0, 4);
  EXPECT_TRUE(f->eval(st, 0));
}

TEST(StlCombinators, ConjAllAndDisjAll) {
  const SignalTrace st = make_trace();
  const auto t1 = F::atom("x", Cmp::kGe, 0.0);
  const auto t2 = F::atom("y", Cmp::kGe, 0.0);
  EXPECT_TRUE(F::conj_all({t1, t2})->eval(st, 0));
  EXPECT_TRUE(F::conj_all({})->eval(st, 0));   // empty conjunction = true
  EXPECT_FALSE(F::disj_all({})->eval(st, 0));  // empty disjunction = false
}

TEST(StlToString, ReadableOutput) {
  const auto f = F::conj(F::atom("BG", Cmp::kGt, 120.0),
                         F::negate(F::atom("u3", Cmp::kGt, 0.5)));
  const std::string s = f->to_string();
  EXPECT_NE(s.find("BG > 120"), std::string::npos);
  EXPECT_NE(s.find("!(u3 > 0.5)"), std::string::npos);
  EXPECT_NE(s.find("&&"), std::string::npos);
}

TEST(StlToString, TemporalOperators) {
  const auto f = F::always(F::eventually(F::atom("x", Cmp::kLt, 1.0), 0, 3), 1, 2);
  const std::string s = f->to_string();
  EXPECT_NE(s.find("G[1,2]"), std::string::npos);
  EXPECT_NE(s.find("F[0,3]"), std::string::npos);
}

TEST(StlFactories, RejectInvalidArguments) {
  EXPECT_THROW(F::atom("", Cmp::kGt, 0.0), cpsguard::ContractViolation);
  EXPECT_THROW(F::negate(nullptr), cpsguard::ContractViolation);
  EXPECT_THROW(F::always(F::atom("x", Cmp::kGt, 0.0), 3, 1),
               cpsguard::ContractViolation);
}

}  // namespace
}  // namespace cpsguard::safety
