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
``MAX_EVENT_OPS`` remain, at about 8–11M ops/sec on a development machine.
With one it *emits*: each op becomes one token row (its static shape id, its
address, its lock location, its mispredict flag) until the window is full,
and ``ff_intern`` then numbers the shapes as
:func:`repro.sim.compiled.tokenize` numbers identities.

The kernel is strictly optional: when no compiler is available, compilation
fails, the self-test disagrees with the Python generator, or
``REPRO_FFCORE=0`` is set, :func:`load` returns ``None`` and the generator
runs in Python.  Both paths are verified bit-identical by the golden
fast-forward and emission tests.  Allocator events are *not* handled in C:
the kernel consumes their RNG draws (and, emitting, writes their rows), then
returns control so Python applies the malloc/free effects against the real
:class:`~repro.allocator.runtime.InstrumentedRuntime` and patches the
GETIDENT/SETIDENT lock locations.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from pathlib import Path

from repro.native import build

#: ``scal`` slot layout shared with the C kernel (int64 in/out registers).
SCAL_REMAINING = 0
SCAL_VALUE_ROTATION = 1
SCAL_GLOBAL_CURSOR = 2
SCAL_CALL_DEPTH = 3
SCAL_N_ORDER = 4
SCAL_HOT_LEN = 5
SCAL_MTI = 6
SCAL_REASON = 7
SCAL_FREED_INDEX = 8
SCAL_ALLOC_SIZE = 9
SCAL_WRITTEN = 10
SCAL_SLOTS = 12

#: ``ff_advance`` return/``SCAL_REASON`` codes.
REASON_DONE = 0
REASON_ALLOC = 1

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
 * pointer register.  Its lock location is Python's to fill in. */
static void runtime_call(MT *st, double fp_compute, int64_t *vr,
                         int64_t ident, Rows *rows) {
    int i;
    for (i = 0; i < 6; i++)
        put(rows, alu(st, fp_compute, vr), NONE, NONE, 0);
    put(rows, ident + randbelow(st, 6), NONE, NONE, 0);
}

/* Skip mode (out == NULL) advances whole events while MAX_EVENT_OPS (14)
 * ops remain, so it never overruns a window; emit mode writes every op as
 * a row at out[0..3][scal[10]...] until `remaining` ops are written, and
 * the event that crosses the limit is written whole (the caller keeps its
 * tail pending).  Both return early after an allocation event. */
long long ff_advance(uint32_t *mtstate, long long *scal, const double *cd,
                     const long long *ci, const long long *order,
                     const long long *sizes, long long *cursors,
                     const signed char *rich, long long *hot,
                     const long long *bases, const long long *locks,
                     long long *const *out)
{
    MT st = { mtstate, scal[6] };
    int64_t remaining = scal[0], vr = scal[1], gc = scal[2], depth = scal[3];
    int64_t n_order = scal[4], hot_len = scal[5];
    const double alloc_p = cd[0], ac_hi = cd[1], mem_hi = cd[2], br_hi = cd[3];
    const double ptr_f = cd[4], word_f = cd[5], wordfp_f = cd[6], fpc = cd[7];
    const double temporal = cd[8], spatial = cd[9], global_frac = cd[10];
    const double load_f = cd[11], mis_rate = cd[12];
    const int64_t span_g = ci[0], span_p = ci[1], ws = ci[2];
    const int64_t min_keep = ci[3], size_low = ci[4], size_nslots = ci[5];
    const int64_t cold_pool = ci[6], hot_max = ci[7];  /* hot_max <= 15 */
    const int64_t gbase = ci[8], glock = ci[9];
    const int64_t stop = out ? 1 : 14;
    Rows rows = { 0, 0, 0, 0, scal[10] };
    int64_t reason = 0, freed_idx = -1, alloc_size = 0;

    if (out) {
        rows.shape = out[0]; rows.addr = out[1];
        rows.lock = out[2]; rows.mis = out[3];
    }
    while (remaining >= stop) {
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
            int64_t addr, lock, offset, areg, dreg;
            if (rnd(&st) < global_frac || n_order == 0) {  /* global target */
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
                if (hot_len > 0 && rnd(&st) < temporal) {
                    if (ptr) {
                        int64_t cnt = 0, tmp[16], i;
                        for (i = 0; i < hot_len; i++)
                            if (rich[hot[i]])
                                tmp[cnt++] = hot[i];
                        slot = cnt ? tmp[randbelow(&st, cnt)]
                                   : hot[randbelow(&st, hot_len)];
                    } else {
                        slot = hot[randbelow(&st, hot_len)];
                    }
                } else {
                    int64_t pool = n_order < cold_pool ? n_order : cold_pool;
                    int64_t start = n_order - pool;
                    if (ptr) {
                        int64_t cnt = 0, j;
                        for (j = start; j < n_order; j++)
                            if (rich[order[j]])
                                cnt++;
                        if (cnt) {
                            int64_t pick = randbelow(&st, cnt);
                            for (j = start;; j++)
                                if (rich[order[j]] && pick-- == 0)
                                    break;
                            slot = order[j];
                        } else {
                            slot = order[start + randbelow(&st, pool)];
                        }
                    } else {
                        slot = order[start + randbelow(&st, pool)];
                    }
                    hot[hot_len++] = slot;
                    if (hot_len > hot_max) {
                        memmove(hot, hot + 1,
                                (size_t)(hot_len - 1) * sizeof(int64_t));
                        hot_len--;
                    }
                }
                {
                    int64_t size = sizes[slot];
                    int64_t limit = size - nbytes;
                    if (limit < 1)
                        limit = 1;
                    if (rnd(&st) < spatial) {
                        int64_t m = size > nbytes ? size : nbytes;
                        offset = cursors[slot] % limit;
                        cursors[slot] = (cursors[slot] + nbytes) % m;
                    } else {
                        offset = randbelow(&st, limit);
                    }
                }
                addr = bases[slot] + (offset & ~(nbytes - 1));
                lock = locks[slot];
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
            if (n_order >= ws && n_order > min_keep) {
                freed_idx = randbelow(&st, n_order);
                runtime_call(&st, fpc, &vr, SH_GETIDENT, &rows);
                remaining -= 7;
            }
            alloc_size = size_low + 16 * randbelow(&st, size_nslots);
            runtime_call(&st, fpc, &vr, SH_SETIDENT, &rows);
            remaining -= 7;
            reason = 1;  /* Python applies the malloc/free effects */
            break;
        }
    }
    scal[0] = remaining; scal[1] = vr; scal[2] = gc; scal[3] = depth;
    scal[5] = hot_len; scal[6] = st.mti; scal[7] = reason;
    scal[8] = freed_idx; scal[9] = alloc_size; scal[10] = rows.w;
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
    lib.ff_advance.argtypes = [ctypes.c_void_p] * 12
    lib.ff_intern.restype = ctypes.c_longlong
    lib.ff_intern.argtypes = [ctypes.c_void_p, ctypes.c_longlong,
                              ctypes.c_void_p]
    lib.ff_selftest.restype = ctypes.c_longlong
    lib.ff_selftest.argtypes = [ctypes.c_void_p] * 4
    return lib


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


def _emission_matches(lib) -> bool:
    """A short run on a small alloc-heavy profile, kernel against the
    Python generator: windows that split allocation events, a skip window
    (the kernel's skip against the emission layer's dropped events), and
    every column of every row (shapes, addresses, locks, flags)."""
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
    for skip, take in ((0, 61), (3, 1), (40, 90), (5, 29), (0, 120)):
        native.fast_forward(skip)
        python.fast_forward(skip)
        if native.emit(take) != python.emit(take):
            return False
    return (native.rng.getstate() == python.rng.getstate()
            and native._pending == python._pending
            and native._order == python._order
            and native._hot == python._hot
            and native._slot_cursors == python._slot_cursors)


def _self_test(lib):
    """Two stages: the RNG primitives, then emission against Python."""
    if not _rng_matches(lib):
        return False, "rng"
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
