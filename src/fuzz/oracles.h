// Differential oracles: re-check the optimized numeric paths against naive
// references on seeded random inputs, including the awkward corners
// (NaN/±inf operands, duplicate scores, degenerate shapes).
//
// The contract per oracle:
//   matmul / matmul_tn / matmul_nt — blocked register-tile kernels vs. the
//     naive loops they replaced, bit-identical (same per-element
//     accumulation order by design, see nn/matrix.cpp). Documented
//     tolerance: a NaN result matches any NaN — IEEE leaves NaN sign and
//     payload unspecified and x86 propagates payloads by operand position,
//     which the compiler may commute;
//   gate_math — every supported SIMD sigmoid/tanh kernel vs. the scalar
//     ports nn::sigmoid / nn::tanhf_port, exact bits with no NaN tolerance
//     (the kernels reproduce the ports' NaN payloads). One case is one
//     65 536-pattern block of the float bit space, visited in a seeded
//     permutation of all 2^16 blocks, so --cases=65536 is exhaustive;
//   batched_predict — predict_proba on a random batch vs. each window
//     predicted alone, bit-identical (row locality). Cases alternate
//     between a small trained monitor on simulator windows and a randomly
//     initialised paper-size MLP on batches of up to 300 random windows,
//     which reach the row-block fan-out of FeedForward::infer;
//   cusum — streaming CusumDetector vs. a from-scratch batch recompute,
//     bit-identical sums and alarm index;
//   pr_curve — precision_recall_curve / average_precision vs. an O(n²)
//     reference, bit-identical (both sides divide the same integer counts),
//     and the documented NaN-reject policy actually rejects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cpsguard::fuzz {

struct OracleReport {
  std::string name;
  int cases = 0;
  int mismatches = 0;
  /// First mismatch, described for the failure message; empty when clean.
  std::string first_mismatch;

  [[nodiscard]] bool clean() const { return mismatches == 0; }
};

/// All registered oracle names: matmul, matmul_tn, matmul_nt, gate_math,
/// batched_predict, cusum, pr_curve.
const std::vector<std::string>& oracle_names();

/// Run `cases` seeded random cases through one oracle. Deterministic in
/// (name, cases, seed). Throws CpsError for an unknown name.
OracleReport run_oracle(const std::string& name, int cases,
                        std::uint64_t seed);

}  // namespace cpsguard::fuzz
