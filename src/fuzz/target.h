// Fuzz target registry: every ingestion surface of cpsguard, wrapped as a
// deterministic function of one input string with a checked robustness
// contract.
//
// Contract enforced by each target's run():
//   - hostile input either parses successfully or raises CpsError (or
//     ContractViolation from a precondition check) — nothing else;
//   - accepted input must survive its round-trip invariant (parse→emit→
//     parse identity, decode-verifies-checksum, …): accept-then-corrupt is
//     a bug even when nothing crashes;
//   - no UB, no aborts, no unbounded allocation (verified by running the
//     suite under ASan/UBSan in CI).
//
// A violation raises fuzz::InvariantViolation, which the driver counts,
// minimizes, and dumps into the corpus as a replayable repro.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cpsguard::fuzz {

/// A target broke its robustness contract: escaped an untyped exception or
/// accepted input and then corrupted it. Deliberately NOT a CpsError so the
/// driver can never mistake a bug for an expected rejection.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct FuzzTarget {
  std::string name;
  /// Well-formed starting inputs; mutants of these reach deeper parser
  /// states than random bytes would.
  std::vector<std::string> seeds;
  /// Grammar tokens / magic strings spliced in by the mutators.
  std::vector<std::string> dictionary;
  /// Run the target on one input. Returns true when the primary parser
  /// accepted the input, false on an expected typed reject; throws
  /// InvariantViolation on a contract break. Anything else escaping is
  /// itself a contract break (the driver wraps and reports it). The driver
  /// feeds accepted mutants back into its input pool, which is the only
  /// coverage signal a feedback-free fuzzer has.
  std::function<bool(const std::string&)> run;
};

/// All registered targets: stl, config, csv, json, checkpoint, model, cli.
const std::vector<FuzzTarget>& all_targets();

/// Lookup by name; nullptr if unknown.
const FuzzTarget* find_target(const std::string& name);

}  // namespace cpsguard::fuzz
