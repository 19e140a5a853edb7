// Distances between permutations.
//
// Permutation-based indexes (Chavez-Figueroa-Navarro; iAESA) order
// candidate points by how similar their stored distance permutation is to
// the query's.  The standard similarity measures are Spearman footrule,
// Spearman rho, and Kendall tau; all three treat a permutation as the
// sequence of site ranks.

#ifndef DISTPERM_CORE_PERM_METRICS_H_
#define DISTPERM_CORE_PERM_METRICS_H_

#include <cstdint>
#include <cstdlib>

#include "core/distance_permutation.h"

namespace distperm {
namespace core {

/// Spearman footrule: sum over sites of |rank_a(site) - rank_b(site)|.
/// Zero iff equal; maximum floor(k^2 / 2).
int SpearmanFootrule(const Permutation& a, const Permutation& b);

/// Spearman rho (squared version, no normalization): sum over sites of
/// (rank_a(site) - rank_b(site))^2.
int64_t SpearmanRhoSquared(const Permutation& a, const Permutation& b);

/// Kendall tau: number of site pairs ordered differently by a and b.
/// Zero iff equal; maximum C(k,2).  O(k^2) direct count.
int KendallTau(const Permutation& a, const Permutation& b);

/// Footrule distance between two permutation *prefixes* of the same
/// underlying site set: sites absent from a prefix are treated as
/// sitting at rank `prefix_length` (just past the end).  This is the
/// standard similarity used by truncated permutation indexes, which
/// store only each point's closest `prefix_length` sites.  Both inputs
/// must have equal length and contain distinct site ids.
int PrefixFootrule(const Permutation& a, const Permutation& b,
                   size_t total_sites);

/// Footrule distance from two precomputed rank arrays: sum over the k
/// sites of |a[site] - b[site]|, where each array maps site -> rank
/// (with absent sites of a truncated permutation at rank
/// prefix_length).  This is the single O(k) pass the distperm index
/// runs per stored point once it has inverted the permutations at
/// build time — no per-pair inversion, no allocation.  Equals
/// SpearmanFootrule on inverted full permutations and PrefixFootrule on
/// prefix rank arrays.
inline int FootruleFromRanks(const uint8_t* a, const uint8_t* b, size_t k) {
  int sum = 0;
  for (size_t site = 0; site < k; ++site) {
    sum += std::abs(static_cast<int>(a[site]) - static_cast<int>(b[site]));
  }
  return sum;
}

/// Readable zero bytes a footrule table must carry past its last row:
/// the block kernel reads rows with unaligned 16-byte loads, so the
/// last row's loads may run up to 15 bytes past its end.
inline constexpr size_t kFootruleTableSlack = 16;

/// Sites a footrule block kernel handles: two 16-byte loads per row.
inline constexpr size_t kFootruleBlockMaxSites = 32;

/// Footrules of one query against `rows` rank rows of k bytes stored
/// back to back: out[r] = FootruleFromRanks(query, table + r * k, k).
/// `query` holds the query's k rank bytes followed by zeros, 32 bytes
/// in all, and `table` must be followed by kFootruleTableSlack readable
/// bytes.  k is in [1, kFootruleBlockMaxSites], so every footrule fits
/// 16 bits.
///
/// On x86-64 each row is scored with _mm_sad_epu8 over one 16-byte
/// load (two when k > 16), masked to its own k bytes; elsewhere this
/// is FootruleBlockScalar.  Both are exact integer sums, so they agree
/// bit for bit.
void FootruleBlock(const uint8_t* query, const uint8_t* table, size_t rows,
                   size_t k, uint16_t* out);

/// The portable reference for FootruleBlock: one FootruleFromRanks per
/// row.  Same contract.
void FootruleBlockScalar(const uint8_t* query, const uint8_t* table,
                         size_t rows, size_t k, uint16_t* out);

/// Maximum possible footrule value for k sites: floor(k^2 / 2).
int MaxFootrule(size_t k);

/// Maximum possible Kendall tau for k sites: C(k,2).
int MaxKendallTau(size_t k);

}  // namespace core
}  // namespace distperm

#endif  // DISTPERM_CORE_PERM_METRICS_H_
