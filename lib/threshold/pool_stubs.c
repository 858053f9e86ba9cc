/* Whole-pool passes over int32 wire-id vectors for Packed's cold path:
 * sorting one weight group when lowering, and the bounds scan that
 * makes the evaluators' unchecked reads safe when loading.
 *
 * Both stubs check their own bounds against the vector's length,
 * allocate nothing, raise nothing and never call back into the
 * runtime, so [@@noalloc] on the OCaml side is sound.
 */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Slices this short are insertion-sorted. */
#define SHORT 24

static void insertion_sort(int32_t *a, intnat n)
{
  for (intnat i = 1; i < n; i++) {
    int32_t x = a[i];
    intnat j = i;
    for (; j > 0 && a[j - 1] > x; j--)
      a[j] = a[j - 1];
    a[j] = x;
  }
}

static void sift_down(int32_t *a, intnat i, intnat n)
{
  int32_t x = a[i];
  for (intnat c; (c = 2 * i + 1) < n; i = c) {
    if (c + 1 < n && a[c + 1] > a[c])
      c++;
    if (a[c] <= x)
      break;
    a[i] = a[c];
  }
  a[i] = x;
}

static void heap_sort(int32_t *a, intnat n)
{
  for (intnat i = n / 2; i-- > 0;)
    sift_down(a, i, n);
  for (intnat end = n - 1; end > 0; end--) {
    int32_t t = a[0];
    a[0] = a[end];
    a[end] = t;
    sift_down(a, 0, end);
  }
}

static inline void swap(int32_t *a, intnat i, intnat j)
{
  int32_t t = a[i];
  a[i] = a[j];
  a[j] = t;
}

/* Quicksort with a median-of-3 pivot, recursing into the smaller side
 * so the stack stays logarithmic; past [depth] levels of splits the
 * slice goes to heap sort, which bounds the worst case at
 * O(n log n) whatever the wiring. */
static void intro_sort(int32_t *a, intnat n, int depth)
{
  while (n > SHORT) {
    if (depth-- == 0) {
      heap_sort(a, n);
      return;
    }
    intnat m = n / 2;
    if (a[m] < a[0])
      swap(a, m, 0);
    if (a[n - 1] < a[0])
      swap(a, n - 1, 0);
    if (a[n - 1] < a[m])
      swap(a, n - 1, m);
    /* a[0] <= pivot <= a[n-1] now stop both scans (Hoare partition);
     * equal keys split evenly, so duplicate wires cost nothing extra. */
    int32_t pivot = a[m];
    intnat i = 0, j = n - 1;
    for (;;) {
      while (a[++i] < pivot)
        ;
      while (a[--j] > pivot)
        ;
      if (i >= j)
        break;
      swap(a, i, j);
    }
    /* a[0..j] <= pivot <= a[j+1..n-1] */
    intnat left = j + 1;
    if (left < n - left) {
      intro_sort(a, left, depth);
      a += left;
      n -= left;
    } else {
      intro_sort(a + left, n - left, depth);
      n = left;
    }
  }
  insertion_sort(a, n);
}

/* Sort v[pos, pos+len) ascending in place; false (and no write) when
 * the range is not inside v.  A slice that is already ascending, as
 * many weight groups are, costs one read. */
CAMLprim value tcmm_sort_wires(value vv, value vpos, value vlen)
{
  intnat dim = Caml_ba_array_val(vv)->dim[0];
  intnat pos = Long_val(vpos), len = Long_val(vlen);
  if (pos < 0 || len < 0 || pos > dim - len)
    return Val_false;
  int32_t *a = (int32_t *) Caml_ba_data_val(vv) + pos;
  intnat i = 1;
  while (i < len && a[i - 1] <= a[i])
    i++;
  if (i < len) {
    int depth = 0;
    for (intnat k = len; k > 1; k >>= 1)
      depth += 2;
    intro_sort(a, len, depth);
  }
  return Val_true;
}

/* Wire ids are checked in blocks of this many: each block is one
 * branch-free pass the compiler can vectorize. */
#define BLOCK 1024

/* The first i < n with v[i] outside [lo, hi), -1 if none, or -2 when
 * n is past v's length or [lo, hi) is not inside [0, 2^31].  One
 * unsigned compare tests both ends: v[i] - lo wraps above hi - lo for
 * every v[i] below lo, negative ids included. */
CAMLprim value tcmm_first_wire_outside(value vv, value vn, value vlo,
                                       value vhi)
{
  intnat n = Long_val(vn), lo = Long_val(vlo), hi = Long_val(vhi);
  if (n < 0 || n > Caml_ba_array_val(vv)->dim[0] || lo < 0 || lo > hi
      || hi > (intnat) 1 << 31)
    return Val_long(-2);
  const uint32_t *w = (const uint32_t *) Caml_ba_data_val(vv);
  const uint32_t base = (uint32_t) lo, span = (uint32_t) (hi - lo);
  intnat i = 0;
  for (; i + BLOCK <= n; i += BLOCK) {
    uint32_t bad = 0;
    for (int k = 0; k < BLOCK; k++)
      bad |= w[i + k] - base >= span;
    if (bad)
      break;
  }
  for (; i < n; i++)
    if (w[i] - base >= span)
      return Val_long(i);
  return Val_long(-1);
}
