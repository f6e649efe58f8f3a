// The one rule for when row-parallel NN work fans out across the shared
// thread pool, and the row blocks it fans out over. The matmul kernels
// (nn/matrix.cpp) and FeedForward::infer both use it, so a product and a
// whole layer stack share one threshold and one block size. Internal to nn.
#pragma once

#include <algorithm>
#include <thread>

#include "util/thread_pool.h"

namespace cpsguard::nn {

/// Rows per pool task when row-parallel work fans out.
inline constexpr int kRowsPerShard = 16;

/// Fan out only when the arithmetic dwarfs the fan-out overhead and the
/// machine actually has cores to use. ~4M flops is ~0.1 ms of kernel time.
inline bool worth_parallelizing(int rows, double flops_per_row) {
  constexpr double kParallelFlopThreshold = 4.0e6;
  return rows * flops_per_row >= kParallelFlopThreshold &&
         rows >= 2 * kRowsPerShard && std::thread::hardware_concurrency() > 1;
}

/// Run fn(r0, r1) over [0, rows): once per kRowsPerShard-row block across
/// the shared pool when worth_parallelizing and not already inside a
/// parallel region, else once over all rows on the caller. Work done inside
/// a block (a nested matmul, say) runs inline on that block's thread.
template <typename Fn>
void for_row_blocks(int rows, double flops_per_row, Fn&& fn) {
  if (!worth_parallelizing(rows, flops_per_row) || util::in_parallel_region()) {
    fn(0, rows);
    return;
  }
  const int blocks = (rows + kRowsPerShard - 1) / kRowsPerShard;
  util::parallel_for(blocks, [&](int blk) {
    const int r0 = blk * kRowsPerShard;
    fn(r0, std::min(rows, r0 + kRowsPerShard));
  });
}

}  // namespace cpsguard::nn
