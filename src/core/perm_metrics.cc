#include "core/perm_metrics.h"

#include <cstdlib>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/status.h"

namespace distperm {
namespace core {

int SpearmanFootrule(const Permutation& a, const Permutation& b) {
  DP_CHECK(a.size() == b.size());
  Permutation rank_a = InvertPermutation(a);
  Permutation rank_b = InvertPermutation(b);
  int sum = 0;
  for (size_t site = 0; site < a.size(); ++site) {
    sum += std::abs(static_cast<int>(rank_a[site]) -
                    static_cast<int>(rank_b[site]));
  }
  return sum;
}

int64_t SpearmanRhoSquared(const Permutation& a, const Permutation& b) {
  DP_CHECK(a.size() == b.size());
  Permutation rank_a = InvertPermutation(a);
  Permutation rank_b = InvertPermutation(b);
  int64_t sum = 0;
  for (size_t site = 0; site < a.size(); ++site) {
    int64_t diff = static_cast<int>(rank_a[site]) -
                   static_cast<int>(rank_b[site]);
    sum += diff * diff;
  }
  return sum;
}

int KendallTau(const Permutation& a, const Permutation& b) {
  DP_CHECK(a.size() == b.size());
  Permutation rank_a = InvertPermutation(a);
  Permutation rank_b = InvertPermutation(b);
  const size_t k = a.size();
  int discordant = 0;
  for (size_t s = 0; s < k; ++s) {
    for (size_t t = s + 1; t < k; ++t) {
      bool order_a = rank_a[s] < rank_a[t];
      bool order_b = rank_b[s] < rank_b[t];
      discordant += order_a != order_b;
    }
  }
  return discordant;
}

int PrefixFootrule(const Permutation& a, const Permutation& b,
                   size_t total_sites) {
  DP_CHECK(a.size() == b.size());
  const int missing_rank = static_cast<int>(a.size());
  // rank_of[site] = position in the prefix, or missing_rank.
  std::vector<int> rank_a(total_sites, missing_rank);
  std::vector<int> rank_b(total_sites, missing_rank);
  for (size_t r = 0; r < a.size(); ++r) {
    DP_CHECK(a[r] < total_sites && b[r] < total_sites);
    rank_a[a[r]] = static_cast<int>(r);
    rank_b[b[r]] = static_cast<int>(r);
  }
  int sum = 0;
  for (size_t site = 0; site < total_sites; ++site) {
    sum += std::abs(rank_a[site] - rank_b[site]);
  }
  return sum;
}

void FootruleBlockScalar(const uint8_t* query, const uint8_t* table,
                         size_t rows, size_t k, uint16_t* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = static_cast<uint16_t>(FootruleFromRanks(query, table + r * k, k));
  }
}

#if defined(__SSE2__)

namespace {

// Loading 16 bytes from kLowBytes + 16 - m gives a mask of m 0xff bytes
// followed by zeros.
alignas(16) constexpr uint8_t kLowBytes[32] = {
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};

__m128i LowBytesMask(size_t m) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kLowBytes + 16 - m));
}

// The two 64-bit halves of a _mm_sad_epu8 result, summed.
uint16_t SumHalves(__m128i sad) {
  return static_cast<uint16_t>(
      _mm_cvtsi128_si32(_mm_add_epi64(sad, _mm_srli_si128(sad, 8))));
}

}  // namespace

void FootruleBlock(const uint8_t* query, const uint8_t* table, size_t rows,
                   size_t k, uint16_t* out) {
  // The query's bytes past k are zero and the row's are masked to
  // zero, so they add |0 - 0| to the sum.
  const __m128i query_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
  if (k <= 16) {
    const __m128i mask = LowBytesMask(k);
    for (size_t r = 0; r < rows; ++r) {
      const __m128i row = _mm_and_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + r * k)),
          mask);
      out[r] = SumHalves(_mm_sad_epu8(row, query_lo));
    }
    return;
  }
  const __m128i query_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + 16));
  const __m128i mask_hi = LowBytesMask(k - 16);
  for (size_t r = 0; r < rows; ++r) {
    const uint8_t* row = table + r * k;
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
    const __m128i hi = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16)),
        mask_hi);
    out[r] = SumHalves(_mm_add_epi64(_mm_sad_epu8(lo, query_lo),
                                     _mm_sad_epu8(hi, query_hi)));
  }
}

#else

void FootruleBlock(const uint8_t* query, const uint8_t* table, size_t rows,
                   size_t k, uint16_t* out) {
  FootruleBlockScalar(query, table, rows, k, out);
}

#endif

int MaxFootrule(size_t k) {
  return static_cast<int>((k * k) / 2);
}

int MaxKendallTau(size_t k) {
  return static_cast<int>(k * (k - 1) / 2);
}

}  // namespace core
}  // namespace distperm
