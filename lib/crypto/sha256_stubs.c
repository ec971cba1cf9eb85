/* SHA-256 block compression on the x86-64 SHA extensions.

   bamboo_sha256_hw_available reports whether CPUID lists SHA, SSSE3 and
   SSE4.1; Sha256 reads it once at start-up and calls
   bamboo_sha256_compress_hw only when it is true. The state is the
   OCaml int array of eight 32-bit words, A to H, each in [0, 2^32); the
   block is the first 64 bytes of a bytes value. On any other compiler
   or architecture the first stub reports false and the second is never
   called. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

value bamboo_sha256_hw_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return Val_false;
  if (__get_cpuid_max(0, NULL) < 7) return Val_false;
  __cpuid_count(7, 0, a, b, c, d);
  return Val_bool(b & bit_SHA);
}

/* Four rounds per group g = 0 .. 15 on the message words w[g mod 4].
   The registers hold the state as ABEF and CDGH; each sha256rnds2 runs
   two rounds. Group g computes the words of group g + 1 (from group 3
   on) and applies sha256msg1 to the words of group g - 1, as in Intel's
   reference sequence. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress(uint32_t st[8], const uint8_t *blk)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i cdgh = _mm_loadu_si128((const __m128i *)&st[4]);
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);
  const __m128i abef0 = abef, cdgh0 = cdgh;
  __m128i w[4];
  for (int g = 0; g < 4; g++)
    w[g] = _mm_shuffle_epi8(
      _mm_loadu_si128((const __m128i *)(blk + 16 * g)), bswap);
#pragma GCC unroll 16
  for (int g = 0; g < 16; g++) {
    __m128i m = _mm_add_epi32(w[g & 3],
                              _mm_load_si128((const __m128i *)&k[4 * g]));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
    if (g >= 3 && g <= 14) {
      __m128i t = _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4);
      w[(g + 1) & 3] =
        _mm_sha256msg2_epu32(_mm_add_epi32(w[(g + 1) & 3], t), w[g & 3]);
    }
    m = _mm_shuffle_epi32(m, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, m);
    if (g >= 1 && g <= 12)
      w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
  }
  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(cdgh, tmp, 8));
}

value bamboo_sha256_compress_hw(value h, value block)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  compress(st, (const uint8_t *)Bytes_val(block));
  /* Immediate ints need no write barrier. */
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

#else

value bamboo_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

value bamboo_sha256_compress_hw(value h, value block)
{
  (void)h;
  (void)block;
  return Val_unit;
}

#endif
