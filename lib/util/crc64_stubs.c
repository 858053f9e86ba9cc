/* CRC-64/XZ (the ECMA-182 polynomial 0x42F0E1EBA9EA3693, reflected;
 * init and xorout all-ones) for Tcmm_util.Crc64.
 *
 * Every entry point takes and returns the raw register, before the
 * final xorout, so a checksum can be fed in pieces.  The register is
 * the polynomial CRC of everything fed so far, bit-reversed: bit j
 * holds the coefficient of x^(63-j).  Two ways compute it, picked here
 * and never by a setting:
 *
 *  - Folding, where the CPU has a carry-less multiply (x86-64
 *    PCLMULQDQ, probed once with cpuid) and the input is at least
 *    FOLD_MIN bytes.  A 16-byte block loaded little-endian is, in the
 *    same bit-reversed order, a polynomial of degree < 128: its low
 *    qword is the high-degree half H, its high qword the low half L.
 *    A block followed by d more bits of input contributes
 *    H x^(64+d) + L x^d mod P to the checksum, and a carry-less product
 *    of two bit-reversed qwords is their polynomial product times x, so
 *    clmul(H, x^(63+d) mod P) ^ clmul(L, x^(d-1) mod P) is a block of
 *    equal contribution d bits later: xor it into the block there.
 *    Four lanes fold 64 bytes per step (d = 512) to keep the multiplier
 *    busy, then merge (d = 128) into one block, which the table reduces
 *    to the register.  The init register is xored into the first eight
 *    bytes, as the table loop does.  After Gopal et al., "Fast CRC
 *    Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009).
 *  - Slicing-by-8 everywhere else: one round of eight 256-entry table
 *    lookups per eight bytes.
 *
 * Word streams (OCaml int vectors) are fed as the eight little-endian
 * bytes of each word with bit 63 cleared: an OCaml int is 63 bits, and
 * the stored bit 63 is a sign copy no reader sees.
 *
 * The stubs allocate nothing, raise nothing and never call back into
 * the runtime, so [@@noalloc] on the OCaml side is sound; bounds are
 * checked there.
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FOLDING 1
#include <cpuid.h>
#include <immintrin.h>
#endif

typedef uint64_t u64;

#define POLY 0xC96C5795D7870F42ULL /* 0x42F0E1EBA9EA3693, bit-reversed */
#define WORD_MASK 0x7FFFFFFFFFFFFFFFULL
#define ALL_BITS (~(u64) 0)

/* table[k][b]: the register after absorbing byte b and then k zero
 * bytes into a zero register. */
static u64 table[8][256];

static inline u64 round1(u64 crc, unsigned b)
{
  return table[0][(crc ^ b) & 0xff] ^ (crc >> 8);
}

/* Absorb the eight bytes of w, least significant first. */
static inline u64 round8(u64 crc, u64 w)
{
  w ^= crc;
  return table[7][w & 0xff] ^ table[6][(w >> 8) & 0xff]
         ^ table[5][(w >> 16) & 0xff] ^ table[4][(w >> 24) & 0xff]
         ^ table[3][(w >> 32) & 0xff] ^ table[2][(w >> 40) & 0xff]
         ^ table[1][(w >> 48) & 0xff] ^ table[0][w >> 56];
}

static inline u64 load_le64(const unsigned char *p)
{
  u64 w;
  memcpy(&w, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

/* n bytes from p; with [mask] = WORD_MASK, n is a multiple of 8 and
 * each word is masked. */
static u64 table_stream(u64 crc, const unsigned char *p, size_t n, u64 mask)
{
  for (; n >= 8; n -= 8, p += 8)
    crc = round8(crc, load_le64(p) & mask);
  for (; n > 0; n--)
    crc = round1(crc, *p++);
  return crc;
}

#ifdef FOLDING

#define FOLD_MIN 64

static int have_clmul;

/* (x^(d+63) mod P, x^(d-1) mod P) for the lane step d = 512 and the
 * merge step d = 128, as (low, high) qwords. */
static u64 k512[2], k128[2];

__attribute__((target("pclmul"))) static inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
  __m128i h = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i l = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(h, l), next);
}

/* n >= FOLD_MIN bytes from p, each word masked with [mask]. */
__attribute__((target("pclmul"))) static u64
fold_stream(u64 crc, const unsigned char *p, size_t n, u64 mask)
{
  const __m128i m = _mm_set1_epi64x((long long) mask);
  const __m128i c4 = _mm_set_epi64x((long long) k512[1], (long long) k512[0]);
  const __m128i c1 = _mm_set_epi64x((long long) k128[1], (long long) k128[0]);
#define LOAD(q) _mm_and_si128(_mm_loadu_si128((const __m128i *) (q)), m)
  __m128i x0 = _mm_xor_si128(LOAD(p), _mm_cvtsi64_si128((long long) crc));
  __m128i x1 = LOAD(p + 16), x2 = LOAD(p + 32), x3 = LOAD(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, c4, LOAD(p));
    x1 = fold(x1, c4, LOAD(p + 16));
    x2 = fold(x2, c4, LOAD(p + 32));
    x3 = fold(x3, c4, LOAD(p + 48));
  }
  x1 = fold(x0, c1, x1);
  x2 = fold(x1, c1, x2);
  x3 = fold(x2, c1, x3);
  for (; n >= 16; p += 16, n -= 16)
    x3 = fold(x3, c1, LOAD(p));
#undef LOAD
  unsigned char last[16];
  _mm_storeu_si128((__m128i *) last, x3);
  return table_stream(table_stream(0, last, 16, ALL_BITS), p, n, mask);
}

/* x^n mod P, bit-reversed like the register. */
static u64 xpow(int n)
{
  u64 r = (u64) 1 << 63;
  while (n-- > 0)
    r = (r >> 1) ^ ((r & 1) ? POLY : 0);
  return r;
}

#endif

static u64 stream(u64 crc, const unsigned char *p, size_t n, u64 mask)
{
#ifdef FOLDING
  if (have_clmul && n >= FOLD_MIN)
    return fold_stream(crc, p, n, mask);
#endif
  return table_stream(crc, p, n, mask);
}

CAMLprim value tcmm_crc64_init(value unit)
{
  (void) unit;
  for (unsigned b = 0; b < 256; b++) {
    u64 c = b;
    for (int i = 0; i < 8; i++)
      c = (c >> 1) ^ ((c & 1) ? POLY : 0);
    table[0][b] = c;
  }
  for (int k = 1; k < 8; k++)
    for (unsigned b = 0; b < 256; b++)
      table[k][b] = round1(table[k - 1][b], 0);
#ifdef FOLDING
  unsigned a, b, c, d;
  have_clmul = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL);
  k512[0] = xpow(512 + 63);
  k512[1] = xpow(512 - 1);
  k128[0] = xpow(128 + 63);
  k128[1] = xpow(128 - 1);
#endif
  return Val_unit;
}

int64_t tcmm_crc64_bytes(int64_t crc, value vb, intnat pos, intnat len)
{
  return (int64_t) stream((u64) crc, Bytes_val(vb) + pos, (size_t) len,
                          ALL_BITS);
}

/* On a little-endian host the elements' bytes in memory are the
 * stream; a big-endian one feeds each element's value. */
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__

int64_t tcmm_crc64_ivec(int64_t crc, value vv, intnat pos, intnat len)
{
  const intnat *e = (const intnat *) Caml_ba_data_val(vv) + pos;
  return (int64_t) stream((u64) crc, (const unsigned char *) e,
                          (size_t) len * 8, WORD_MASK);
}

int64_t tcmm_crc64_i32vec(int64_t crc, value vv, intnat pos, intnat len)
{
  const int32_t *e = (const int32_t *) Caml_ba_data_val(vv) + pos;
  return (int64_t) stream((u64) crc, (const unsigned char *) e,
                          (size_t) len * 4, ALL_BITS);
}

#else

int64_t tcmm_crc64_ivec(int64_t crc, value vv, intnat pos, intnat len)
{
  const intnat *e = (const intnat *) Caml_ba_data_val(vv) + pos;
  u64 r = (u64) crc;
  for (intnat i = 0; i < len; i++)
    r = round8(r, (u64) e[i] & WORD_MASK);
  return (int64_t) r;
}

int64_t tcmm_crc64_i32vec(int64_t crc, value vv, intnat pos, intnat len)
{
  const int32_t *e = (const int32_t *) Caml_ba_data_val(vv) + pos;
  u64 r = (u64) crc;
  for (; len >= 2; len -= 2, e += 2)
    r = round8(r, (uint32_t) e[0] | (u64) (uint32_t) e[1] << 32);
  if (len > 0)
    for (uint32_t x = (uint32_t) e[0], i = 0; i < 4; i++, x >>= 8)
      r = round1(r, x & 0xff);
  return (int64_t) r;
}

#endif

CAMLprim value tcmm_crc64_bytes_byte(value crc, value vb, value pos, value len)
{
  return caml_copy_int64(
      tcmm_crc64_bytes(Int64_val(crc), vb, Long_val(pos), Long_val(len)));
}

CAMLprim value tcmm_crc64_ivec_byte(value crc, value vv, value pos, value len)
{
  return caml_copy_int64(
      tcmm_crc64_ivec(Int64_val(crc), vv, Long_val(pos), Long_val(len)));
}

CAMLprim value tcmm_crc64_i32vec_byte(value crc, value vv, value pos,
                                      value len)
{
  return caml_copy_int64(
      tcmm_crc64_i32vec(Int64_val(crc), vv, Long_val(pos), Long_val(len)));
}
