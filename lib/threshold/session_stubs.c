/* Incremental (dirty-cone) session evaluation: all of one
 * Packed.update once OCaml has validated the delta and staged its
 * input flips.
 *
 * State line: 4 words (32 bytes) per segment:
 *   w0  sum - lo                        (unsigned, mod 2^64)
 *   w1  hi - lo                         (unsigned, mod 2^64)
 *   w2  glo | ghi << 32                 the segment's packed-gate range
 *   w3  queued | level << 1 | pos << 32
 * pos = glo + cut is the segment's first non-firing gate, and
 * [lo, hi) = [thr[pos-1], thr[pos]) is the bracket its sum must leave
 * for the cut to move, with INT64_MIN / INT64_MAX at the open ends.
 * Holding the sum relative to lo makes the bracket test one unsigned
 * compare, w0 >= w1: every sum and threshold is an OCaml int, so
 * hi - sum < 2^64 and the wrapped difference orders exactly.  That
 * frees two words for the range, cut and level, so re-deciding a
 * segment reads one line.  Every field is full width: gate ids and
 * levels are below 2^31 (wire ids are int32), so no circuit shape
 * overflows the packing.
 *
 * One update runs the touch loop over the staged input flips, then
 * sweeps the levels in order.  The touch loop delta-adjusts the sum of
 * every segment reading a flipped wire through the transposed CSR and
 * queues, once, each segment whose sum leaves its bracket; the queue
 * of level l is the region of [queue] starting at level_segs[l], with
 * its end in qtail[l].  The sweep re-decides each queued segment by
 * stepping the cut from its old position over the ascending
 * thresholds, patches the level's firing count, writes and stages the
 * changed gate wires, and runs the touch loop over them.  Readers sit
 * at strictly later levels than writers, so a level is final once
 * every level below it is swept.
 *
 * All arrays are untagged Bigarray storage except the OCaml int arrays
 * level_segs, seg_gates, level firings and dirty counters (read and
 * written as immediates) and the value bytes.  The update and init
 * stubs allocate nothing, raise nothing and never call back into the
 * runtime, so [@@noalloc] on the OCaml side is sound.
 */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

_Static_assert(sizeof(intnat) == 8, "the state line packs 64-bit words");

typedef uint64_t u64;

#define LINE 4 /* words per segment */

static inline intnat bracket_lo(const intnat *thr, intnat glo, intnat pos)
{
  return pos > glo ? thr[pos - 1] : INT64_MIN;
}

static inline intnat bracket_hi(const intnat *thr, intnat ghi, intnat pos)
{
  return pos < ghi ? thr[pos] : INT64_MAX;
}

/* Rewrite w0 and w1 for cut position [pos] under [sum]. */
static inline void set_bracket(u64 *p, const intnat *thr, intnat glo,
                               intnat ghi, intnat pos, intnat sum)
{
  u64 lo = (u64) bracket_lo(thr, glo, pos);
  p[0] = (u64) sum - lo;
  p[1] = (u64) bracket_hi(thr, ghi, pos) - lo;
}

/* Touching one fanout edge is two sequential loads plus one random
 * access to a state line, so the loop is bound by memory-level
 * parallelism, not arithmetic.  Wires average ~6 fanout edges on the
 * flagship trace circuits, too few to hide a miss behind one wire's
 * own work, so the loop runs a prefetch pipeline down the staged
 * wires: their fanout offsets AHEAD_OFF wires ahead, their fanout
 * slots AHEAD_FAN ahead, and the state lines their edges reach
 * AHEAD_LINE ahead. */
#define AHEAD_OFF 16
#define AHEAD_FAN 8
#define AHEAD_LINE 2

static inline void prefetch_lines(u64 *st, const intnat *off,
                                  const int32_t *seg, intnat w)
{
  for (intnat i = off[w]; i < off[w + 1]; i++)
    __builtin_prefetch(&st[(intnat) seg[i] * LINE], 1, 1);
}

static void touch(u64 *st, const intnat *off, const int32_t *seg,
                  const intnat *wt, const intnat *wires, intnat nw,
                  int32_t *queue, intnat *qtail)
{
  for (intnat k = 0; k < nw && k < AHEAD_LINE; k++)
    prefetch_lines(st, off, seg, wires[k] >> 1);
  for (intnat k = 0; k < nw; k++) {
    if (k + AHEAD_OFF < nw)
      __builtin_prefetch(&off[wires[k + AHEAD_OFF] >> 1], 0, 1);
    if (k + AHEAD_FAN < nw) {
      intnat i = off[wires[k + AHEAD_FAN] >> 1];
      __builtin_prefetch(&seg[i], 0, 1);
      __builtin_prefetch(&wt[i], 0, 1);
    }
    if (k + AHEAD_LINE < nw)
      prefetch_lines(st, off, seg, wires[k + AHEAD_LINE] >> 1);
    intnat wv = wires[k];
    intnat w = wv >> 1;
    intnat sgn = (wv & 1) ? 1 : -1;
    for (intnat i = off[w]; i < off[w + 1]; i++) {
      intnat s = seg[i];
      u64 *p = &st[s * LINE];
      u64 d = p[0] + (u64) (sgn * wt[i]);
      p[0] = d;
      if (d >= p[1]) {
        u64 tag = p[3];
        if (!(tag & 1)) {
          p[3] = tag | 1;
          queue[qtail[(uint32_t) tag >> 1]++] = (int32_t) s;
        }
      }
    }
  }
}

/* Fill every state line from the sum (w0) and cut (w3) that
 * Packed.session wrote for it. */
CAMLprim value tcmm_session_init(value vst, value vthr, value vseg_gates,
                                 value vlevel_segs)
{
  u64 *st = (u64 *) Caml_ba_data_val(vst);
  const intnat *thr = (const intnat *) Caml_ba_data_val(vthr);
  intnat levels = Wosize_val(vlevel_segs) - 1;
  for (intnat l = 0; l < levels; l++) {
    intnat s1 = Long_val(Field(vlevel_segs, l + 1));
    for (intnat s = Long_val(Field(vlevel_segs, l)); s < s1; s++) {
      intnat glo = Long_val(Field(vseg_gates, s));
      intnat ghi = Long_val(Field(vseg_gates, s + 1));
      u64 *p = &st[s * LINE];
      intnat sum = (intnat) p[0];
      intnat pos = glo + (intnat) p[3];
      p[2] = (u64) glo | (u64) ghi << 32;
      p[3] = (u64) l << 1 | (u64) pos << 32;
      set_bracket(p, thr, glo, ghi, pos, sum);
    }
  }
  return Val_unit;
}

/* Run one update over the [nw] input flips staged in [wires].
 * [lf] (per level) and [dirty] ([| segments; gates |]) are OCaml int
 * arrays patched in place. */
CAMLprim value tcmm_session_update(value vst, value vvalues, value voff,
                                   value vseg, value vwt, value vthr,
                                   value vgwire, value vlevel_segs,
                                   value vqueue, value vqtail, value vwires,
                                   value vnw, value vlf, value vdirty)
{
  u64 *st = (u64 *) Caml_ba_data_val(vst);
  unsigned char *values = Bytes_val(vvalues);
  const intnat *off = (const intnat *) Caml_ba_data_val(voff);
  const int32_t *seg = (const int32_t *) Caml_ba_data_val(vseg);
  const intnat *wt = (const intnat *) Caml_ba_data_val(vwt);
  const intnat *thr = (const intnat *) Caml_ba_data_val(vthr);
  const int32_t *gwire = (const int32_t *) Caml_ba_data_val(vgwire);
  int32_t *queue = (int32_t *) Caml_ba_data_val(vqueue);
  intnat *qtail = (intnat *) Caml_ba_data_val(vqtail);
  intnat *wires = (intnat *) Caml_ba_data_val(vwires);
  intnat levels = Wosize_val(vlevel_segs) - 1;
  intnat dsegs = 0, dgates = 0;
  touch(st, off, seg, wt, wires, Long_val(vnw), queue, qtail);
  for (intnat l = 0; l < levels; l++) {
    intnat q0 = Long_val(Field(vlevel_segs, l)), q1 = qtail[l];
    if (q1 == q0) continue;
    qtail[l] = q0;
    dsegs += q1 - q0;
    intnat nw = 0, fired = 0;
    for (intnat k = q0; k < q1; k++) {
      /* The sweep's own misses, on the thresholds and gate wires at a
       * queued segment's cut, are prefetched AHEAD_FAN segments ahead,
       * after its state line AHEAD_OFF ahead. */
      if (k + AHEAD_OFF < q1)
        __builtin_prefetch(&st[(intnat) queue[k + AHEAD_OFF] * LINE], 1, 1);
      if (k + AHEAD_FAN < q1) {
        const u64 *ahead = &st[(intnat) queue[k + AHEAD_FAN] * LINE];
        intnat at = (intnat) (ahead[3] >> 32);
        __builtin_prefetch(&thr[at > 0 ? at - 1 : 0], 0, 1);
        __builtin_prefetch(&gwire[at], 0, 1);
      }
      intnat s = queue[k];
      u64 *p = &st[s * LINE];
      intnat glo = (uint32_t) p[2], ghi = (intnat) (p[2] >> 32);
      u64 tag = p[3] & ~(u64) 1;
      intnat pos = (intnat) (tag >> 32);
      intnat sum = (intnat) ((u64) bracket_lo(thr, glo, pos) + p[0]);
      intnat np = pos;
      while (np < ghi && thr[np] <= sum) np++;
      while (np > glo && thr[np - 1] > sum) np--;
      dgates += ghi - glo;
      p[3] = (uint32_t) tag | (u64) np << 32;
      if (np == pos) continue;
      set_bracket(p, thr, glo, ghi, np, sum);
      fired += np - pos;
      if (np > pos)
        for (intnat g = pos; g < np; g++) {
          intnat w = gwire[g];
          values[w] = 1;
          wires[nw++] = w << 1 | 1;
        }
      else
        for (intnat g = np; g < pos; g++) {
          intnat w = gwire[g];
          values[w] = 0;
          wires[nw++] = w << 1;
        }
    }
    Field(vlf, l) = Val_long(Long_val(Field(vlf, l)) + fired);
    touch(st, off, seg, wt, wires, nw, queue, qtail);
  }
  Field(vdirty, 0) = Val_long(Long_val(Field(vdirty, 0)) + dsegs);
  Field(vdirty, 1) = Val_long(Long_val(Field(vdirty, 1)) + dgates);
  return Val_unit;
}

CAMLprim value tcmm_session_update_byte(value *argv, int argn)
{
  (void) argn;
  return tcmm_session_update(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10], argv[11], argv[12], argv[13]);
}
