#include "safety/rules_aps.h"

#include "util/contracts.h"

namespace cpsguard::safety {

namespace {

using F = StlFormula;

F::Ptr action_atom(sim::ControlAction a) {
  const std::string name =
      std::string("u").append(std::to_string(static_cast<int>(a) + 1));
  return F::atom(name, Cmp::kGt, 0.5);
}

F::Ptr bg_above(double bgt) { return F::atom("BG", Cmp::kGt, bgt); }
F::Ptr bg_below(double bgt) { return F::atom("BG", Cmp::kLt, bgt); }
F::Ptr dbg_pos() { return F::atom("dBG", Cmp::kGt, kDbgZeroEps); }
F::Ptr dbg_neg() { return F::atom("dBG", Cmp::kLt, -kDbgZeroEps); }
F::Ptr diob_pos() { return F::atom("dIOB", Cmp::kGt, kDiobZeroEps); }
F::Ptr diob_neg() { return F::atom("dIOB", Cmp::kLt, -kDiobZeroEps); }
F::Ptr diob_zero() { return F::atom("dIOB", Cmp::kEqApprox, 0.0, kDiobZeroEps); }

}  // namespace

std::vector<SafetyRule> aps_safety_rules(double bg_target) {
  expects(bg_target > sim::kHypoglycemiaBg, "BG target must exceed hypo threshold");
  using sim::ControlAction;
  const auto u1 = action_atom(ControlAction::kDecreaseInsulin);
  const auto u2 = action_atom(ControlAction::kIncreaseInsulin);
  const auto u3 = action_atom(ControlAction::kStopInsulin);
  const auto u4 = action_atom(ControlAction::kKeepInsulin);
  const auto h1 = HazardType::kH1TooMuchInsulin;
  const auto h2 = HazardType::kH2TooLittleInsulin;

  std::vector<SafetyRule> rules;
  rules.reserve(12);
  auto add = [&](int id, F::Ptr f, HazardType h, std::string desc) {
    rules.push_back({id, std::move(f), h, std::move(desc)});
  };

  // Rules 1-5: decreasing insulin while hyperglycemic (u1, H2).
  add(1, F::conj_all({bg_above(bg_target), dbg_pos(), diob_neg(), u1}), h2,
      "BG>BGT rising, IOB falling, yet insulin decreased");
  add(2, F::conj_all({bg_above(bg_target), dbg_pos(), diob_zero(), u1}), h2,
      "BG>BGT rising, IOB flat, yet insulin decreased");
  add(3, F::conj_all({bg_above(bg_target), dbg_neg(), diob_pos(), u1}), h2,
      "BG>BGT falling, IOB rising, insulin decreased");
  add(4, F::conj_all({bg_above(bg_target), dbg_neg(), diob_neg(), u1}), h2,
      "BG>BGT falling, IOB falling, insulin decreased");
  add(5, F::conj_all({bg_above(bg_target), dbg_neg(), diob_zero(), u1}), h2,
      "BG>BGT falling, IOB flat, insulin decreased");

  // Rules 6-8: increasing insulin while heading low (u2, H1).
  add(6, F::conj_all({bg_below(bg_target), dbg_neg(), diob_pos(), u2}), h1,
      "BG<BGT falling, IOB rising, yet insulin increased");
  add(7, F::conj_all({bg_below(bg_target), dbg_neg(), diob_neg(), u2}), h1,
      "BG<BGT falling, IOB falling, insulin increased");
  add(8, F::conj_all({bg_below(bg_target), dbg_neg(), diob_zero(), u2}), h1,
      "BG<BGT falling, IOB flat, insulin increased");

  // Rule 9: stopping insulin while hyperglycemic (u3, H2).
  add(9, F::conj(bg_above(bg_target), u3), h2,
      "BG>BGT yet insulin stopped");

  // Rule 10: not stopping insulin while hypoglycemic (¬u3, H1).
  add(10, F::conj(F::atom("BG", Cmp::kLt, sim::kHypoglycemiaBg), F::negate(u3)),
      h1, "BG<70 yet insulin not stopped");

  // Rules 11-12: keeping insulin in a deteriorating context (u4).
  add(11,
      F::conj_all({bg_above(bg_target), dbg_pos(),
                   F::atom("dIOB", Cmp::kLe, kDiobZeroEps), u4}),
      h2, "BG>BGT rising, IOB not rising, insulin kept");
  add(12,
      F::conj_all({bg_below(bg_target), dbg_neg(),
                   F::atom("dIOB", Cmp::kGe, -kDiobZeroEps), u4}),
      h1, "BG<BGT falling, IOB not falling, insulin kept");

  ensures(rules.size() == 12, "Table I has exactly 12 rules");
  return rules;
}

StlFormula::Ptr unsafe_action_disjunction(double bg_target) {
  std::vector<StlFormula::Ptr> fs;
  for (const SafetyRule& r : aps_safety_rules(bg_target)) fs.push_back(r.formula);
  return StlFormula::disj_all(fs);
}

SignalTrace context_signals(const WindowContext& ctx) {
  SignalTrace st;
  st.add_signal("BG", {ctx.bg});
  st.add_signal("dBG", {ctx.d_bg});
  st.add_signal("dIOB", {ctx.d_iob});
  for (int a = 0; a < sim::kNumActions; ++a) {
    st.add_signal(std::string("u").append(std::to_string(a + 1)),
                  {a == static_cast<int>(ctx.action) ? 1.0 : 0.0});
  }
  return st;
}

int semantic_indicator(const WindowContext& ctx, double bg_target) {
  static thread_local double cached_target = -1.0;
  static thread_local StlFormula::Ptr cached;
  if (!cached || cached_target != bg_target) {
    cached = unsafe_action_disjunction(bg_target);
    cached_target = bg_target;
  }
  return cached->eval(context_signals(ctx), 0) ? 1 : 0;
}

std::vector<int> firing_rules(const WindowContext& ctx, double bg_target) {
  const SignalTrace st = context_signals(ctx);
  std::vector<int> out;
  for (const SafetyRule& r : aps_safety_rules(bg_target)) {
    if (r.formula->eval(st, 0)) out.push_back(r.id);
  }
  return out;
}

}  // namespace cpsguard::safety
