#include "dag/sweep.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace ccmm {
namespace {

// --- scalar kernels (the portable fallback every level diffs against) ---

void forward_w4_scalar(Dag::Rows pred, std::span<const NodeId> topo,
                       std::uint64_t* masks) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    std::uint64_t* row = masks + std::size_t{v} * kSweepWords;
    std::uint64_t m0 = row[0];
    std::uint64_t m1 = row[1];
    std::uint64_t m2 = row[2];
    std::uint64_t m3 = row[3];
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::uint64_t* p = masks + std::size_t{tgt[i]} * kSweepWords;
      m0 |= p[0];
      m1 |= p[1];
      m2 |= p[2];
      m3 |= p[3];
    }
    row[0] = m0;
    row[1] = m1;
    row[2] = m2;
    row[3] = m3;
  }
}

void forward2_w4_scalar(Dag::Rows pred, std::span<const NodeId> topo,
                        std::uint64_t* a, std::uint64_t* b) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    std::uint64_t* ra = a + std::size_t{v} * kSweepWords;
    std::uint64_t* rb = b + std::size_t{v} * kSweepWords;
    std::uint64_t a0 = ra[0], a1 = ra[1], a2 = ra[2], a3 = ra[3];
    std::uint64_t b0 = rb[0], b1 = rb[1], b2 = rb[2], b3 = rb[3];
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::size_t p = std::size_t{tgt[i]} * kSweepWords;
      a0 |= a[p + 0];
      a1 |= a[p + 1];
      a2 |= a[p + 2];
      a3 |= a[p + 3];
      b0 |= b[p + 0];
      b1 |= b[p + 1];
      b2 |= b[p + 2];
      b3 |= b[p + 3];
    }
    ra[0] = a0, ra[1] = a1, ra[2] = a2, ra[3] = a3;
    rb[0] = b0, rb[1] = b1, rb[2] = b2, rb[3] = b3;
  }
}

void backward_w4_scalar(Dag::Rows succ, std::span<const NodeId> topo,
                        std::uint64_t* masks) {
  const std::uint32_t* head = succ.off;
  const NodeId* tgt = succ.tgt;
  for (std::size_t k = topo.size(); k-- > 0;) {
    const NodeId v = topo[k];
    std::uint64_t* row = masks + std::size_t{v} * kSweepWords;
    std::uint64_t m0 = row[0];
    std::uint64_t m1 = row[1];
    std::uint64_t m2 = row[2];
    std::uint64_t m3 = row[3];
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::uint64_t* s = masks + std::size_t{tgt[i]} * kSweepWords;
      m0 |= s[0];
      m1 |= s[1];
      m2 |= s[2];
      m3 |= s[3];
    }
    row[0] = m0;
    row[1] = m1;
    row[2] = m2;
    row[3] = m3;
  }
}

// --- AVX2 kernels: identical traversal, one 256-bit OR per row ---
//
// target("avx2") lets these compile in a baseline TU; they are only
// reached when active_simd_level() (or a forced level) says kAvx2, so
// the baseline build never executes VEX instructions it didn't check
// for.

#if defined(__x86_64__) || defined(_M_X64)

__attribute__((target("avx2"))) void forward_w4_avx2(
    Dag::Rows pred, std::span<const NodeId> topo, std::uint64_t* masks) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    auto* row =
        reinterpret_cast<__m256i*>(masks + std::size_t{v} * kSweepWords);
    __m256i m = _mm256_loadu_si256(row);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const auto* p = reinterpret_cast<const __m256i*>(
          masks + std::size_t{tgt[i]} * kSweepWords);
      m = _mm256_or_si256(m, _mm256_loadu_si256(p));
    }
    _mm256_storeu_si256(row, m);
  }
}

__attribute__((target("avx2"))) void forward2_w4_avx2(
    Dag::Rows pred, std::span<const NodeId> topo, std::uint64_t* a,
    std::uint64_t* b) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    auto* ra = reinterpret_cast<__m256i*>(a + std::size_t{v} * kSweepWords);
    auto* rb = reinterpret_cast<__m256i*>(b + std::size_t{v} * kSweepWords);
    __m256i ma = _mm256_loadu_si256(ra);
    __m256i mb = _mm256_loadu_si256(rb);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::size_t p = std::size_t{tgt[i]} * kSweepWords;
      ma = _mm256_or_si256(
          ma, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)));
      mb = _mm256_or_si256(
          mb, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
    }
    _mm256_storeu_si256(ra, ma);
    _mm256_storeu_si256(rb, mb);
  }
}

__attribute__((target("avx2"))) void backward_w4_avx2(
    Dag::Rows succ, std::span<const NodeId> topo, std::uint64_t* masks) {
  const std::uint32_t* head = succ.off;
  const NodeId* tgt = succ.tgt;
  for (std::size_t k = topo.size(); k-- > 0;) {
    const NodeId v = topo[k];
    auto* row =
        reinterpret_cast<__m256i*>(masks + std::size_t{v} * kSweepWords);
    __m256i m = _mm256_loadu_si256(row);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const auto* s = reinterpret_cast<const __m256i*>(
          masks + std::size_t{tgt[i]} * kSweepWords);
      m = _mm256_or_si256(m, _mm256_loadu_si256(s));
    }
    _mm256_storeu_si256(row, m);
  }
}

#endif  // x86-64

// --- NEON kernels: identical traversal, two 128-bit ORs per row ---
//
// NEON is baseline on aarch64 (no runtime feature check needed), so
// unlike AVX2 these need no target attribute: the compiler may emit
// them unconditionally. Each 4-word (256-bit) row is two uint64x2_t;
// vorrq_u64 only reassociates the word-wise ORs, so the verdicts stay
// bit-identical to the scalar loop.

#if defined(__aarch64__)

void forward_w4_neon(Dag::Rows pred, std::span<const NodeId> topo,
                     std::uint64_t* masks) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    std::uint64_t* row = masks + std::size_t{v} * kSweepWords;
    uint64x2_t lo = vld1q_u64(row);
    uint64x2_t hi = vld1q_u64(row + 2);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::uint64_t* p = masks + std::size_t{tgt[i]} * kSweepWords;
      lo = vorrq_u64(lo, vld1q_u64(p));
      hi = vorrq_u64(hi, vld1q_u64(p + 2));
    }
    vst1q_u64(row, lo);
    vst1q_u64(row + 2, hi);
  }
}

void forward2_w4_neon(Dag::Rows pred, std::span<const NodeId> topo,
                      std::uint64_t* a, std::uint64_t* b) {
  const std::uint32_t* head = pred.off;
  const NodeId* tgt = pred.tgt;
  for (const NodeId v : topo) {
    std::uint64_t* ra = a + std::size_t{v} * kSweepWords;
    std::uint64_t* rb = b + std::size_t{v} * kSweepWords;
    uint64x2_t alo = vld1q_u64(ra);
    uint64x2_t ahi = vld1q_u64(ra + 2);
    uint64x2_t blo = vld1q_u64(rb);
    uint64x2_t bhi = vld1q_u64(rb + 2);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::size_t p = std::size_t{tgt[i]} * kSweepWords;
      alo = vorrq_u64(alo, vld1q_u64(a + p));
      ahi = vorrq_u64(ahi, vld1q_u64(a + p + 2));
      blo = vorrq_u64(blo, vld1q_u64(b + p));
      bhi = vorrq_u64(bhi, vld1q_u64(b + p + 2));
    }
    vst1q_u64(ra, alo);
    vst1q_u64(ra + 2, ahi);
    vst1q_u64(rb, blo);
    vst1q_u64(rb + 2, bhi);
  }
}

void backward_w4_neon(Dag::Rows succ, std::span<const NodeId> topo,
                      std::uint64_t* masks) {
  const std::uint32_t* head = succ.off;
  const NodeId* tgt = succ.tgt;
  for (std::size_t k = topo.size(); k-- > 0;) {
    const NodeId v = topo[k];
    std::uint64_t* row = masks + std::size_t{v} * kSweepWords;
    uint64x2_t lo = vld1q_u64(row);
    uint64x2_t hi = vld1q_u64(row + 2);
    for (std::uint32_t i = head[v]; i < head[v + 1]; ++i) {
      const std::uint64_t* s = masks + std::size_t{tgt[i]} * kSweepWords;
      lo = vorrq_u64(lo, vld1q_u64(s));
      hi = vorrq_u64(hi, vld1q_u64(s + 2));
    }
    vst1q_u64(row, lo);
    vst1q_u64(row + 2, hi);
  }
}

#endif  // aarch64

}  // namespace

void sweep_forward_w4(const Dag& dag, std::span<const NodeId> topo,
                      std::uint64_t* masks, SimdLevel level) {
  const Dag::Rows pred = dag.pred_rows();
#if defined(__x86_64__) || defined(_M_X64)
  if (level == SimdLevel::kAvx2) {
    forward_w4_avx2(pred, topo, masks);
    return;
  }
#elif defined(__aarch64__)
  if (level == SimdLevel::kNeon) {
    forward_w4_neon(pred, topo, masks);
    return;
  }
#endif
  (void)level;
  forward_w4_scalar(pred, topo, masks);
}

void sweep_forward2_w4(const Dag& dag, std::span<const NodeId> topo,
                       std::uint64_t* a, std::uint64_t* b, SimdLevel level) {
  const Dag::Rows pred = dag.pred_rows();
#if defined(__x86_64__) || defined(_M_X64)
  if (level == SimdLevel::kAvx2) {
    forward2_w4_avx2(pred, topo, a, b);
    return;
  }
#elif defined(__aarch64__)
  if (level == SimdLevel::kNeon) {
    forward2_w4_neon(pred, topo, a, b);
    return;
  }
#endif
  (void)level;
  forward2_w4_scalar(pred, topo, a, b);
}

void sweep_backward_w4(const Dag& dag, std::span<const NodeId> topo,
                       std::uint64_t* masks, SimdLevel level) {
  const Dag::Rows succ = dag.succ_rows();
#if defined(__x86_64__) || defined(_M_X64)
  if (level == SimdLevel::kAvx2) {
    backward_w4_avx2(succ, topo, masks);
    return;
  }
#elif defined(__aarch64__)
  if (level == SimdLevel::kNeon) {
    backward_w4_neon(succ, topo, masks);
    return;
  }
#endif
  (void)level;
  backward_w4_scalar(succ, topo, masks);
}

}  // namespace ccmm
