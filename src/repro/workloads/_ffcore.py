"""Optional native kernel for the workload generator's draw loop.

The state-evolution core (:mod:`repro.workloads.state_core`) and the
emission layer (:mod:`repro.workloads.synthetic`) must draw from the
Mersenne Twister exactly as the Python generator does, which caps a Python
loop at roughly a million events per second.  This module compiles a small
C kernel (through the shared :mod:`repro.native.build` machinery: the system
C compiler, at first use, cached on disk) that replicates CPython's MT19937
primitives — ``random()`` is two tempered words combined as
``genrand_res53`` and ``_randbelow(n)`` is ``getrandbits(n.bit_length())``
with rejection — and runs the event loop over the core's shared slot arrays.

One loop, ``ff_advance``, serves both uses; its output pointer switches its
writes.  Without one it *skips*: it advances whole events while
``MAX_EVENT_OPS`` remain, at about 10–13M ops/sec on a development machine.
With one it *emits*: each op becomes one token row (its static shape id, its
address, its lock location, its mispredict flag) until the window is full,
and ``ff_intern`` then numbers the shapes as
:func:`repro.sim.compiled.tokenize` numbers identities.

Allocation events are applied in C as well: the kernel frees and places
objects on the workload's :class:`~repro.workloads.heap.WorkloadHeap`
columns (``ff_heap`` exposes one heap operation on its own, for the heap
tests), updates the slot arrays and the hot set, and writes the
GETIDENT/SETIDENT lock locations into their rows.  The same code populates
a new workload's working set.  A call returns to Python only when the
arrays Python padded for it are full, or when the retired slots are due
for compaction (``REASON_ROOM``).

The kernel is strictly optional: when no compiler is available, compilation
fails, the self-test disagrees with the Python generator, or
``REPRO_FFCORE=0`` is set, :func:`load` returns ``None`` and the generator
runs in Python.  Both paths are verified bit-identical by the golden
fast-forward and emission tests.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from pathlib import Path

from repro.errors import OutOfMemoryError
from repro.native import build
from repro.workloads.heap import WorkloadHeap

#: ``scal`` slot layout shared with the C kernel (int64 in/out registers).
SCAL_REMAINING = 0
SCAL_VALUE_ROTATION = 1
SCAL_GLOBAL_CURSOR = 2
SCAL_CALL_DEPTH = 3
SCAL_N_ORDER = 4
SCAL_HOT_LEN = 5
SCAL_MTI = 6
SCAL_REASON = 7
SCAL_N_SLOTS = 8
SCAL_ALLOCATIONS = 9
SCAL_WRITTEN = 10
SCAL_ROOM = 11
SCAL_POPULATE = 12
SCAL_COMPACT_AT = 13
SCAL_N_FREE = 14
SCAL_N_LOCKS = 15
SCAL_SLOTS = 16

#: ``ff_advance``/``ff_heap`` return codes.  ``REASON_ROOM``: the padded
#: arrays are full or compaction is due; the event before it is complete.
REASON_DONE = 0
REASON_ROOM = 1
REASON_HEAP_FULL = 2
REASON_LOCKS_FULL = 3

#: Capacity of the kernel's cold-pool buffer: attaching the kernel refuses
#: a larger ``COLD_POOL_OBJECTS`` rather than let it overrun.
MAX_COLD_POOL = 256

#: Number of static instruction shapes the generator can emit: the row
#: shape ids of emit mode, laid out by the C source's ``SH_*`` defines and
#: listed in that order by ``synthetic.SHAPES``.
N_SHAPES = 590

_SOURCE = r"""
/* Generator kernel: exact replica of the workload's event loop.
 *
 * MT19937 follows CPython's _randommodule.c: the 624-word state plus index
 * round-trips through random.Random.getstate()/setstate(), rnd() is
 * genrand_res53 (two tempered words), randbelow() is
 * _randbelow_with_getrandbits (top bits of one word, rejection-resampled).
 * Any change to the draw sequence here must match synthetic.py and
 * state_core.py exactly.
 */
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

/* Shape ids: the generator's static instruction shapes, numbered densely
 * (synthetic.SHAPES lists them in this order).  Register operands index the
 * emission layer's six-register tuples; a memory kind is 0 pointer, 1 word,
 * 2 fp, 3 32-bit.
 *   SH_REFRESH + address reg                 ADD_RI a, a, #8
 *   SH_MEM + ((kind * 2 + is_load) * 6 + address reg) * 6 + data reg
 *   SH_FADD + (dest * 6 + a) * 6 + b
 *   SH_ALU + (dest * 2 + chained) * 5 + opcode (ADD_RI, AND, XOR, ADD, MUL)
 *   SH_BRANCH + value reg, SH_SETIDENT/SH_GETIDENT + pointer reg */
#define SH_REFRESH 0
#define SH_MEM 6
#define SH_FADD 294
#define SH_ALU 510
#define SH_BRANCH 570
#define SH_SETIDENT 576
#define SH_GETIDENT 582
#define SH_CALL 588
#define SH_RET 589
#define N_SHAPES 590
#define NONE (-1)   /* no address / no lock location */

#define REASON_ROOM 1
#define REASON_HEAP_FULL 2
#define REASON_LOCKS_FULL 3
#define MAX_COLD_POOL 256   /* _ffcore.MAX_COLD_POOL: cold_pool never exceeds it */

typedef struct { uint32_t *mt; int64_t mti; } MT;

static uint32_t genrand(MT *st) {
    uint32_t y;
    if (st->mti >= MT_N) {
        uint32_t *mt = st->mt;
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1)
                ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        }
        y = (mt[MT_N - 1] & 0x80000000u) | (mt[0] & 0x7fffffffu);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        st->mti = 0;
    }
    y = st->mt[st->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= (y >> 18);
    return y;
}

static double rnd(MT *st) {
    uint32_t a = genrand(st) >> 5, b = genrand(st) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int64_t randbelow(MT *st, int64_t n) {
    int shift = 32 - (64 - __builtin_clzll((uint64_t)n));
    uint32_t r = genrand(st) >> shift;
    while ((int64_t)r >= n)
        r = genrand(st) >> shift;
    return (int64_t)r;
}

/* The workload heap (heap.py's WorkloadHeap, rule for rule): best fit is
 * the least (size, base) free chunk covering the 16-byte-rounded request
 * (32 at least), split when 32 bytes or more remain; a free merges with a
 * free successor, then a free predecessor; lock locations pop from a LIFO
 * stack, else the bump pointer. */
#define ALIGN 16
#define MIN_CHUNK 32
#define FIT_SHIFT 32
#define H_WILDERNESS 0
#define H_HEAP_LIMIT 1
#define H_LOCK_BUMP 2
#define H_LOCK_LIMIT 3

typedef struct {
    long long *st, *fbase, *fsize, *fit, *lstack;
    int64_t nfree, nlocks;
} Heap;

static int64_t lower_bound(const long long *a, int64_t n, int64_t key) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static void add_free(Heap *h, int64_t base, int64_t size) {
    int64_t key = size << FIT_SHIFT | base;
    int64_t i = lower_bound(h->fbase, h->nfree, base);
    int64_t k = lower_bound(h->fit, h->nfree, key);
    size_t tail = (size_t)(h->nfree - i) * sizeof(long long);
    memmove(h->fbase + i + 1, h->fbase + i, tail);
    memmove(h->fsize + i + 1, h->fsize + i, tail);
    memmove(h->fit + k + 1, h->fit + k,
            (size_t)(h->nfree - k) * sizeof(long long));
    h->fbase[i] = base;
    h->fsize[i] = size;
    h->fit[k] = key;
    h->nfree++;
}

static void remove_free(Heap *h, int64_t i) {
    int64_t key = h->fsize[i] << FIT_SHIFT | h->fbase[i];
    int64_t k = lower_bound(h->fit, h->nfree, key);
    size_t tail = (size_t)(h->nfree - i - 1) * sizeof(long long);
    memmove(h->fbase + i, h->fbase + i + 1, tail);
    memmove(h->fsize + i, h->fsize + i + 1, tail);
    memmove(h->fit + k, h->fit + k + 1,
            (size_t)(h->nfree - k - 1) * sizeof(long long));
    h->nfree--;
}

static int64_t heap_malloc(Heap *h, int64_t size, int64_t *base,
                           int64_t *chunk, int64_t *lock) {
    int64_t request = (size + ALIGN - 1) & ~(int64_t)(ALIGN - 1);
    int64_t k;
    if (request < MIN_CHUNK)
        request = MIN_CHUNK;
    k = lower_bound(h->fit, h->nfree, request << FIT_SHIFT);
    if (k < h->nfree) {
        int64_t key = h->fit[k];
        *base = key & (((int64_t)1 << FIT_SHIFT) - 1);
        *chunk = key >> FIT_SHIFT;
        remove_free(h, lower_bound(h->fbase, h->nfree, *base));
        if (*chunk - request >= MIN_CHUNK) {
            add_free(h, *base + request, *chunk - request);
            *chunk = request;
        }
    } else {
        *base = h->st[H_WILDERNESS];
        if (*base + request > h->st[H_HEAP_LIMIT])
            return REASON_HEAP_FULL;
        h->st[H_WILDERNESS] = *base + request;
        *chunk = request;
    }
    if (h->nlocks) {
        *lock = h->lstack[--h->nlocks];
    } else {
        *lock = h->st[H_LOCK_BUMP];
        if (*lock + 8 > h->st[H_LOCK_LIMIT])
            return REASON_LOCKS_FULL;
        h->st[H_LOCK_BUMP] = *lock + 8;
    }
    return 0;
}

static void heap_free(Heap *h, int64_t base, int64_t chunk, int64_t lock) {
    int64_t i;
    h->lstack[h->nlocks++] = lock;
    i = lower_bound(h->fbase, h->nfree, base);
    if (i < h->nfree && h->fbase[i] == base + chunk) {
        chunk += h->fsize[i];
        remove_free(h, i);
    }
    if (i > 0 && h->fbase[i - 1] + h->fsize[i - 1] == base) {
        base = h->fbase[i - 1];
        chunk += h->fsize[i - 1];
        remove_free(h, i - 1);
    }
    add_free(h, base, chunk);
}

/* One heap operation, for the heap tests and the self-test: a malloc of
 * `size` bytes writing (base, chunk, lock) to io, or (size <= 0) a free of
 * io's (base, chunk, lock).  cols are the free bases, free sizes, fit keys
 * and lock stack, each with room for one more entry; counts holds the
 * free-chunk and lock-stack depths, in and out. */
long long ff_heap(long long *st, long long *const *cols, long long *counts,
                  long long size, long long *io)
{
    Heap h = { st, cols[0], cols[1], cols[2], cols[3], counts[0], counts[1] };
    int64_t base = io[0], chunk = io[1], lock = io[2], reason = 0;
    if (size > 0) {
        reason = heap_malloc(&h, size, &base, &chunk, &lock);
        io[0] = base; io[1] = chunk; io[2] = lock;
    } else {
        heap_free(&h, base, chunk, lock);
    }
    counts[0] = h.nfree; counts[1] = h.nlocks;
    return reason;
}

/* The workload's slot arrays (state_core.WorkloadCore), the hot set and its
 * heap, with their live lengths. */
typedef struct {
    long long *order, *sizes, *cursors, *hot, *bases, *locks, *chunks;
    signed char *rich;
    int64_t n_order, n_slots, hot_len, hot_max, allocations;
    Heap heap;
} Slots;

static void hot_touch(Slots *s, int64_t slot) {
    s->hot[s->hot_len++] = slot;
    if (s->hot_len > s->hot_max) {
        memmove(s->hot, s->hot + 1, (size_t)(s->hot_len - 1) * sizeof(long long));
        s->hot_len--;
    }
}

/* _materialize_allocation: malloc `size` bytes and register a new slot. */
static int64_t allocate(Slots *s, int64_t size, int64_t *lock) {
    int64_t base, chunk, slot = s->n_slots;
    int64_t reason = heap_malloc(&s->heap, size, &base, &chunk, lock);
    if (reason)
        return reason;
    s->allocations++;
    s->bases[slot] = base;
    s->sizes[slot] = size;
    s->cursors[slot] = 0;
    s->rich[slot] = s->allocations % 4 == 0;
    s->locks[slot] = *lock;
    s->chunks[slot] = chunk;
    s->n_slots++;
    s->order[s->n_order++] = slot;
    hot_touch(s, slot);
    return 0;
}

/* _free_slot: free the live object at order[index]; returns its lock. */
static int64_t free_at(Slots *s, int64_t index) {
    int64_t slot = s->order[index], i;
    memmove(s->order + index, s->order + index + 1,
            (size_t)(s->n_order - index - 1) * sizeof(long long));
    s->n_order--;
    for (i = 0; i < s->hot_len; i++)
        if (s->hot[i] == slot) {     /* first occurrence, like list.remove */
            memmove(s->hot + i, s->hot + i + 1,
                    (size_t)(s->hot_len - i - 1) * sizeof(long long));
            s->hot_len--;
            break;
        }
    heap_free(&s->heap, s->bases[slot], s->chunks[slot], s->locks[slot]);
    return s->locks[slot];
}

/* The cold pool's pointer-rich slots, in order; returns their count.  Only
 * an allocation event changes the pool, so this runs once per call and
 * once per event. */
static int64_t list_rich(const Slots *s, int64_t start, long long *out) {
    int64_t n = 0, j;
    for (j = start; j < s->n_order; j++)
        if (s->rich[s->order[j]])
            out[n++] = s->order[j];
    return n;
}

/* Emit mode's token columns; shape == NULL in skip mode, where put() is a
 * no-op and only the draws and state effects remain. */
typedef struct { long long *shape, *addr, *lock, *mis; int64_t w; } Rows;

static void put(Rows *r, int64_t shape, int64_t addr, int64_t lock,
                int64_t mis) {
    if (r->shape) {
        r->shape[r->w] = shape;
        r->addr[r->w] = addr;
        r->lock[r->w] = lock;
        r->mis[r->w] = mis;
        r->w++;
    }
}

/* One _alu_op: fp roll, then either three fp-register picks or value
 * rotation + chain roll + opcode choice; returns the op's shape. */
static int64_t alu(MT *st, double fp_compute, int64_t *vr) {
    if (rnd(st) < fp_compute) {
        int64_t d = randbelow(st, 6);
        int64_t a = randbelow(st, 6);
        int64_t b = randbelow(st, 6);
        return SH_FADD + (d * 6 + a) * 6 + b;
    } else {
        int64_t chained, k;
        *vr = (*vr + 1) % 6;
        chained = rnd(st) < 0.35;
        k = randbelow(st, 6);    /* _ALU_OPCODES lists ADD_RI twice */
        return SH_ALU + (*vr * 2 + chained) * 5 + (k < 2 ? 0 : k - 1);
    }
}

/* _runtime_call_ops: six ALU ops, then the GETIDENT/SETIDENT on a drawn
 * pointer register, carrying the object's lock location. */
static void runtime_call(MT *st, double fp_compute, int64_t *vr,
                         int64_t ident, int64_t lock, Rows *rows) {
    int i;
    for (i = 0; i < 6; i++)
        put(rows, alu(st, fp_compute, vr), NONE, NONE, 0);
    put(rows, ident + randbelow(st, 6), NONE, lock, 0);
}

/* Skip mode (out == NULL) advances whole events while MAX_EVENT_OPS (14)
 * ops remain, so it never overruns a window; emit mode writes every op as
 * a row at out[0..3][scal[10]...] until `remaining` ops are written, and
 * the event that crosses the limit is written whole (the caller keeps its
 * tail pending).  scal[12] objects are first allocated as a new working
 * set.  arrays[] are, in order: order, sizes, cursors, rich (int8), hot,
 * bases, locks, chunks, then the heap's state, free bases, free sizes, fit
 * keys and lock stack; each appendable one has room for scal[11] more
 * allocation events, after which the call returns REASON_ROOM, as it does
 * when scal[13] slots or more are retired (Python then compacts). */
long long ff_advance(uint32_t *mtstate, long long *scal, const double *cd,
                     const long long *ci, void *const *arrays,
                     long long *const *out)
{
    MT st = { mtstate, scal[6] };
    int64_t remaining = scal[0], vr = scal[1], gc = scal[2], depth = scal[3];
    int64_t room = scal[11], populate = scal[12], compact_at = scal[13];
    const double alloc_p = cd[0], ac_hi = cd[1], mem_hi = cd[2], br_hi = cd[3];
    const double ptr_f = cd[4], word_f = cd[5], wordfp_f = cd[6], fpc = cd[7];
    const double temporal = cd[8], spatial = cd[9], global_frac = cd[10];
    const double load_f = cd[11], mis_rate = cd[12];
    const int64_t span_g = ci[0], span_p = ci[1], ws = ci[2];
    const int64_t min_keep = ci[3], size_low = ci[4], size_nslots = ci[5];
    const int64_t cold_pool = ci[6];
    const int64_t gbase = ci[8], glock = ci[9];
    const int64_t stop = out ? 1 : 14;
    Rows rows = { 0, 0, 0, 0, scal[10] };
    Slots s;
    long long rich_pool[MAX_COLD_POOL];
    int64_t reason = 0, pool = 0, start = 0, n_rich = 0, lock = 0;

    s.order = arrays[0]; s.sizes = arrays[1]; s.cursors = arrays[2];
    s.rich = arrays[3]; s.hot = arrays[4]; s.bases = arrays[5];
    s.locks = arrays[6]; s.chunks = arrays[7];
    s.n_order = scal[4]; s.n_slots = scal[8]; s.hot_len = scal[5];
    s.hot_max = ci[7]; s.allocations = scal[9];
    s.heap.st = arrays[8]; s.heap.fbase = arrays[9]; s.heap.fsize = arrays[10];
    s.heap.fit = arrays[11]; s.heap.lstack = arrays[12];
    s.heap.nfree = scal[14]; s.heap.nlocks = scal[15];
    if (out) {
        rows.shape = out[0]; rows.addr = out[1];
        rows.lock = out[2]; rows.mis = out[3];
    }
    while (populate > 0 && !reason) {             /* _populate_working_set */
        if (room == 0) {
            reason = REASON_ROOM;
        } else {
            reason = allocate(&s, size_low + 16 * randbelow(&st, size_nslots),
                              &lock);
            populate--;
            room--;
        }
    }
    if (!reason) {
        pool = s.n_order < cold_pool ? s.n_order : cold_pool;
        start = s.n_order - pool;
        n_rich = list_rich(&s, start, rich_pool);
    }
    while (!reason && remaining >= stop) {
        double roll = rnd(&st);
        if (roll >= br_hi) {                           /* ALU op */
            put(&rows, alu(&st, fpc, &vr), NONE, NONE, 0);
            remaining -= 1;
        } else if (roll >= mem_hi) {                   /* branch */
            int64_t mis = rnd(&st) < mis_rate;
            vr = (vr + 1) % 6;
            put(&rows, SH_BRANCH + vr, NONE, NONE, mis);
            remaining -= 1;
        } else if (roll >= ac_hi) {                    /* memory op */
            double roll2 = rnd(&st);
            int64_t is_load = rnd(&st) < load_f;
            int ptr = roll2 < ptr_f;
            int64_t kind = ptr ? 0 : roll2 < word_f ? 1
                         : roll2 < wordfp_f ? 2 : 3;
            int64_t nbytes = kind == 3 ? 4 : 8;
            int64_t addr, offset, areg, dreg;
            if (rnd(&st) < global_frac || s.n_order == 0) {  /* global */
                int64_t span = ptr ? span_p : span_g;
                if (rnd(&st) < spatial) {
                    offset = gc % span;
                    gc += nbytes;
                } else {
                    offset = randbelow(&st, span);
                }
                addr = gbase + (offset & ~(nbytes - 1));
                lock = glock;
            } else {                                   /* heap target */
                int64_t slot;
                if (s.hot_len > 0 && rnd(&st) < temporal) {
                    if (ptr) {
                        int64_t cnt = 0, tmp[16], i;
                        for (i = 0; i < s.hot_len; i++)
                            if (s.rich[s.hot[i]])
                                tmp[cnt++] = s.hot[i];
                        slot = cnt ? tmp[randbelow(&st, cnt)]
                                   : s.hot[randbelow(&st, s.hot_len)];
                    } else {
                        slot = s.hot[randbelow(&st, s.hot_len)];
                    }
                } else {
                    if (ptr && n_rich)
                        slot = rich_pool[randbelow(&st, n_rich)];
                    else
                        slot = s.order[start + randbelow(&st, pool)];
                    hot_touch(&s, slot);
                }
                {
                    int64_t size = s.sizes[slot];
                    int64_t limit = size - nbytes;
                    if (limit < 1)
                        limit = 1;
                    if (rnd(&st) < spatial) {
                        int64_t m = size > nbytes ? size : nbytes;
                        offset = s.cursors[slot] % limit;
                        s.cursors[slot] = (s.cursors[slot] + nbytes) % m;
                    } else {
                        offset = randbelow(&st, limit);
                    }
                }
                addr = s.bases[slot] + (offset & ~(nbytes - 1));
                lock = s.locks[slot];
            }
            areg = randbelow(&st, 6);                  /* address register */
            if (rnd(&st) < 0.25) {                     /* refresh ADD_RI */
                put(&rows, SH_REFRESH + areg, NONE, NONE, 0);
                remaining -= 2;
            } else {
                remaining -= 1;
            }
            if (kind == 2) {
                dreg = randbelow(&st, 6);
            } else {
                vr = (vr + 1) % 6;
                dreg = vr;
            }
            put(&rows, SH_MEM + ((kind * 2 + is_load) * 6 + areg) * 6 + dreg,
                addr, lock, 0);
        } else if (roll >= alloc_p) {                  /* call / return */
            if (depth < 16) {
                double r = rnd(&st);
                if (r < 0.6) {
                    depth++;
                    put(&rows, SH_CALL, NONE, NONE, 0);
                    remaining -= 1;
                } else if (depth > 0) {
                    depth--;
                    put(&rows, SH_RET, NONE, NONE, 0);
                    remaining -= 1;
                }
            } else {
                depth--;
                put(&rows, SH_RET, NONE, NONE, 0);
                remaining -= 1;
            }
        } else {                                       /* allocation event */
            if (s.n_order >= ws && s.n_order > min_keep) {
                lock = free_at(&s, randbelow(&st, s.n_order));
                runtime_call(&st, fpc, &vr, SH_GETIDENT, lock, &rows);
                remaining -= 7;
            }
            reason = allocate(&s, size_low + 16 * randbelow(&st, size_nslots),
                              &lock);
            if (reason)
                break;
            runtime_call(&st, fpc, &vr, SH_SETIDENT, lock, &rows);
            remaining -= 7;
            room--;
            pool = s.n_order < cold_pool ? s.n_order : cold_pool;
            start = s.n_order - pool;
            n_rich = list_rich(&s, start, rich_pool);
            if (room == 0 || s.n_slots - s.n_order >= compact_at)
                reason = REASON_ROOM;
        }
    }
    scal[0] = remaining; scal[1] = vr; scal[2] = gc; scal[3] = depth;
    scal[4] = s.n_order; scal[5] = s.hot_len; scal[6] = st.mti;
    scal[7] = reason; scal[8] = s.n_slots; scal[9] = s.allocations;
    scal[10] = rows.w; scal[11] = room; scal[12] = populate;
    scal[14] = s.heap.nfree; scal[15] = s.heap.nlocks;
    return reason;
}

/* Number the shapes of col[0..n) in first-seen order, in place, listing
 * each distinct shape in seen[]; returns the count, or -1 on a bad id. */
long long ff_intern(long long *col, long long n, long long *seen)
{
    long long tid_of[N_SHAPES];
    long long nseen = 0, i;
    for (i = 0; i < N_SHAPES; i++)
        tid_of[i] = -1;
    for (i = 0; i < n; i++) {
        long long shape = col[i], tid;
        if (shape < 0 || shape >= N_SHAPES)
            return -1;
        tid = tid_of[shape];
        if (tid < 0) {
            tid = tid_of[shape] = nseen;
            seen[nseen++] = shape;
        }
        col[i] = tid;
    }
    return nseen;
}

/* Draw-compatibility probe: 8 doubles then 8 bounded draws, so the loader
 * can verify this kernel against random.Random before trusting it. */
long long ff_selftest(uint32_t *mtstate, long long *mti_io, double *dout,
                      long long *iout)
{
    MT st = { mtstate, *mti_io };
    static const int64_t ns[8] = {6, 1, 192, 8192, 13, 7, 4096, 2000000};
    int i;
    for (i = 0; i < 8; i++)
        dout[i] = rnd(&st);
    for (i = 0; i < 8; i++)
        iout[i] = randbelow(&st, ns[i]);
    *mti_io = st.mti;
    return 0;
}
"""

def _bind(so_path: Path):
    lib = ctypes.CDLL(str(so_path))
    lib.ff_advance.restype = ctypes.c_longlong
    lib.ff_advance.argtypes = [ctypes.c_void_p] * 6
    lib.ff_heap.restype = ctypes.c_longlong
    lib.ff_heap.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_longlong,
                                                    ctypes.c_void_p]
    lib.ff_intern.restype = ctypes.c_longlong
    lib.ff_intern.argtypes = [ctypes.c_void_p, ctypes.c_longlong,
                              ctypes.c_void_p]
    lib.ff_selftest.restype = ctypes.c_longlong
    lib.ff_selftest.argtypes = [ctypes.c_void_p] * 4
    return lib


def raise_for(reason: int) -> None:
    """Raise what a failed ``ff_advance``/``ff_heap`` call stands for."""
    if reason == REASON_HEAP_FULL:
        raise OutOfMemoryError("heap exhausted")
    if reason == REASON_LOCKS_FULL:
        raise OutOfMemoryError("lock location region exhausted")
    raise RuntimeError(f"generator kernel stopped with reason {reason}")


class KernelHeap(WorkloadHeap):
    """A :class:`WorkloadHeap` whose malloc and free run in the kernel's
    heap code (``ff_heap``), one call per operation."""

    def __init__(self, lib, *segments):
        super().__init__(*segments)
        self._lib = lib

    def _call(self, size: int, entry) -> tuple:
        columns = (self.free_bases, self.free_sizes, self.fit,
                   self.lock_stack)
        counts = array("q", [len(self.free_bases), len(self.lock_stack)])
        for column in columns:
            column.append(0)
        table = array("Q", [column.buffer_info()[0] for column in columns])
        io = array("q", entry)
        reason = self._lib.ff_heap(self.state.buffer_info()[0],
                                   table.buffer_info()[0],
                                   counts.buffer_info()[0], size,
                                   io.buffer_info()[0])
        for column in columns[:3]:
            del column[counts[0]:]
        del self.lock_stack[counts[1]:]
        if reason:
            raise_for(reason)
        return tuple(io)

    def malloc(self, size: int):
        return self._call(size, (0, 0, 0))

    def free(self, base: int, chunk: int, lock: int) -> None:
        self._call(0, (base, chunk, lock))


def _rng_matches(lib) -> bool:
    """The kernel's RNG must reproduce random.Random draw for draw."""
    rng = random.Random(987654321)
    state = rng.getstate()
    mt = array("I", state[1][:624])
    mti = array("q", [state[1][624]])
    dout = array("d", [0.0] * 8)
    iout = array("q", [0] * 8)
    lib.ff_selftest(mt.buffer_info()[0], mti.buffer_info()[0],
                    dout.buffer_info()[0], iout.buffer_info()[0])
    expected_d = [rng.random() for _ in range(8)]
    expected_i = [rng._randbelow(n)
                  for n in (6, 1, 192, 8192, 13, 7, 4096, 2000000)]
    end_state = rng.getstate()
    return (list(dout) == expected_d and list(iout) == expected_i
            and tuple(mt) == end_state[1][:624] and mti[0] == end_state[1][624])


def _heap_matches(lib) -> bool:
    """A fixed run of 120 mallocs and frees — splits, reuses without one,
    and frees that merge with neither, either or both neighbours — through
    the kernel's heap and the Python one: every placement and the final
    columns must agree."""
    draws = random.Random(4242)
    heaps = (KernelHeap(lib), WorkloadHeap())
    live = []
    for _ in range(120):
        if live and draws.random() < 0.45:
            entry = live.pop(draws.randrange(len(live)))
            for heap in heaps:
                heap.free(*entry)
        else:
            size = draws.randrange(1, 160)
            placed = {heap.malloc(size) for heap in heaps}
            if len(placed) != 1:
                return False
            live.append(placed.pop())
    return heaps[0].columns() == heaps[1].columns()


def _emission_matches(lib) -> bool:
    """A short run on a small alloc-heavy profile, kernel against the
    Python generator: a second working set populated on each, windows that
    split allocation events, a skip window (the kernel's skip against the
    emission layer's dropped events), every column of every row (shapes,
    addresses, locks, flags), and the slot arrays and heap after."""
    from repro.workloads.profiles import BenchmarkProfile
    from repro.workloads.synthetic import SyntheticWorkload

    profile = BenchmarkProfile(
        name="ffcore-self-test", memory_fraction=0.35, load_fraction=0.6,
        word_integer_fraction=0.4, pointer_fraction=0.25,
        fp_access_fraction=0.1, fp_compute_fraction=0.3,
        branch_fraction=0.15, mispredict_rate=0.3, calls_per_kilo=60.0,
        allocs_per_kilo=60.0, typical_alloc_bytes=48,
        working_set_objects=10, temporal_locality=0.6,
        spatial_locality=0.5)
    # Built while the loader holds this kernel back, so both start in
    # Python; one then runs on the candidate.
    native = SyntheticWorkload(profile, seed=5)
    python = SyntheticWorkload(profile, seed=5)
    native._ffcore = lib
    native._populate_working_set()
    python._populate_working_set()
    for skip, take in ((0, 61), (3, 1), (40, 90), (5, 29), (0, 120)):
        native.fast_forward(skip)
        python.fast_forward(skip)
        if native.emit(take) != python.emit(take):
            return False
    return (native.rng.getstate() == python.rng.getstate()
            and native._pending == python._pending
            and native._order == python._order
            and native._hot == python._hot
            and native._slot_columns() == python._slot_columns()
            and native.heap.columns() == python.heap.columns())


def _self_test(lib):
    """Three stages: the RNG primitives, the heap, then emission against
    Python."""
    if not _rng_matches(lib):
        return False, "rng"
    if not _heap_matches(lib):
        return False, "heap"
    if not _emission_matches(lib):
        return False, "emission"
    return True, None


def load():
    """The compiled kernel, or ``None`` when unavailable (memoized)."""
    return build.load_kernel("ffcore", _SOURCE, switch_env="REPRO_FFCORE",
                             dir_env="REPRO_FFCORE_DIR", bind=_bind,
                             self_test=_self_test)


def status():
    """Why the last :func:`load` decision went the way it did (or ``None``)."""
    return build.status("ffcore")
