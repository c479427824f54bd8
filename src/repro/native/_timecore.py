"""Native timing core: the compiled pipeline's hot loops in C.

The compiled trace pipeline compiles each (trace × configuration class)
into packed streams
(:meth:`repro.sim.compiled.StreamCompiler.compile_measured` /
:meth:`~repro.sim.compiled.StreamCompiler.compile_warm`) and runs each cell
in two passes — a batched memory-hierarchy replay
(:meth:`repro.memory.hierarchy.MemoryHierarchy.access_batch` /
:meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_batch`) and the
dispatch/ready/port-reservation/commit integer scheduler
(:meth:`repro.pipeline.core.OutOfOrderCore.simulate_compiled`).  All are
pure integer loops over packed arrays, which caps the Python interpreter at
a few hundred thousand µops per second.  This module compiles them to a
small C kernel through the shared :mod:`repro.native.build` machinery
(system cc, first use, cached on disk, self-tested at load).

The kernel consumes exactly the structures the Python loops consume, in
five entries:

* ``compile_run`` — a token window (:class:`~repro.sim.trace.TraceTokens`
  columns) replayed through one class's template table, the int64 columns
  of :class:`repro.sim.compiled._TemplateTable`, given each identity's row.
  In measured mode it writes the stream's packed words, latency prefill,
  access columns (position, address, spec), the data and shadow words the
  ``PageAccountant`` sets collect, and the statistics totals; in warm mode
  the warm stream's addresses and specs.  A first call with no outputs
  sizes every column (:func:`compile_tokens`).
* ``hier_batch`` — the hierarchy's own int64 arrays (``Cache.ways``,
  ``TLB.slots``, ``StreamPrefetcher.table``; the Python paths keep no other
  copy of that state) plus the packed ``(addrs, specs, positions)`` access
  sequence, writing latencies into ``lats`` and counter deltas into a
  counter block that ``MemoryHierarchy._apply`` folds back.  One entry
  point serves both the counted (``access_batch``) and warm-up
  (``warm_batch``) variants, toggled by the ``collect`` config slot;
  ``MemoryHierarchy._replay`` is its Python mirror.
* ``warm_fill`` — the working-set install of one cache (``Cache.fill`` in
  Python).
* ``ws_expand`` — the working-set columns themselves: a snapshot's
  per-object ``[start, end)`` line ranges expanded into the data lines and
  their shadow lines (:meth:`repro.sim.compiled.WorkingSetArrays.columns`,
  one ``array.extend(range(...))`` per range in Python).
* ``sched_run`` — per-µop words (flags, cost and the six register-slot
  operands in one int64 each), the post-hierarchy latency array, the
  flattened port-pool free times, and ring buffers for the ROB/IQ/LQ/SQ
  occupancy queues.  The words are every compiled stream's only µop form:
  the stream compiler packs each template once through
  :func:`pack_entry_words`
  (:meth:`repro.sim.compiled.StreamCompiler.compile_measured`), and the
  Python scheduler decodes the same words through :func:`unpack_words`.

All are replicas of the Python loops, statement for statement — every
column, counter, LRU movement, latency and stall decision lands on the same
value, and the load-time self-test plus the timecore golden tests enforce
bit-identical streams and ``TimingResult``/``HierarchyStats`` output.  The
kernel is strictly optional: ``REPRO_TIMECORE=0``, a missing compiler, a
failed build or a failed self-test all fall back to the Python loops
silently.
"""

from __future__ import annotations

import ctypes
from array import array
from pathlib import Path

from repro.memory.hierarchy import N_COUNTERS
from repro.native import build

#: Layout indices of the hierarchy config block (:func:`_config_array`).
CFG_COLLECT = 2
CFG_STRIDE = 3

_SOURCE = r"""
/* Native timing core: stream compilation, batched hierarchy replay and
 * the array scheduler.
 *
 * Replicates repro.sim.compiled.StreamCompiler's compile loops
 * (_measured_python and compile_warm),
 * repro.memory.hierarchy.MemoryHierarchy._replay (the Python loop behind
 * access_batch/warm_batch), Cache.fill,
 * repro.sim.compiled.WorkingSetArrays.columns and
 * repro.pipeline.core.OutOfOrderCore._schedule_python statement for
 * statement.  Any change to those Python loops must be mirrored here (the
 * load-time self-test and the timecore golden tests enforce equality).
 *
 * State encoding (the Python structures' own arrays, passed in place:
 * Cache.ways, TLB.slots, StreamPrefetcher.table):
 *   cache set:  `assoc` consecutive int64 slots per set, oldest first,
 *               compacted; 0 = empty, else ((block + 1) << 1) | dirty.
 *   TLB:        `entries` slots, oldest first, 0 = empty, else page + 1.
 *   prefetcher: [count, last_block0, dir0, last_block1, dir1, ...].
 * A hit moves the entry to the newest slot; an eviction drops slot 0.
 *
 * cfg layout (31 int64 slots):
 *   0 lock_cache_enabled, 1 ideal_shadow, 2 collect, 3 spec_stride,
 *   4-7   l1  num_sets, assoc, block_bytes, hit_latency,
 *   8-11  l2  ditto,   12-15 l3 ditto,   16-19 lock cache ditto,
 *   20 dram_latency,
 *   21-23 dtlb entries, page_bytes, miss_penalty,  24-26 lock tlb ditto,
 *   27-28 l1 prefetcher streams, depth,  29-30 l2 prefetcher ditto.
 *
 * counter layout (28 int64 slots, deltas the caller adds back):
 *   0-3   l1 hits, misses, evictions, writebacks,   4-7 l2,  8-11 l3,
 *   12-15 lock cache,  16-17 dtlb hits, misses,  18-19 lock tlb,
 *   20 l1-prefetches issued, 21 l2-prefetches issued,
 *   22-24 class access counts (data, lock, shadow),  25-27 class latency.
 *
 * collect=0 is warm_batch: identical state transitions, but the L1/lock
 * demand, TLB and L3-install counters stay untouched, while L2/L3 demand
 * and prefetch issue still count — reset_stats() erases them right after,
 * exactly as in the Python mirror.
 */
#include <stdint.h>
#include <string.h>

typedef long long i64;

/* repro.memory.address_space.SHADOW_BIT (the self-test pins the value). */
#define SHADOW_BIT (1LL << 47)

/* Demand access to one ordered set.  Returns 1 on hit (entry moved to
 * newest, dirty |= write); on miss inserts (evicting the oldest if full)
 * and reports the eviction through *evicted / *wb. */
static i64 set_demand(i64 *ways, i64 assoc, i64 key, i64 dirty,
                      i64 *evicted, i64 *wb)
{
    i64 i, n = 0, hit = -1, e;
    for (i = 0; i < assoc; i++) {
        if (!ways[i])
            break;
        n = i + 1;
        if ((ways[i] >> 1) == key)
            hit = i;
    }
    if (hit >= 0) {
        e = ways[hit] | dirty;
        memmove(ways + hit, ways + hit + 1, (size_t)(n - 1 - hit) * 8);
        ways[n - 1] = e;
        return 1;
    }
    *evicted = 0;
    *wb = 0;
    if (n >= assoc) {
        *evicted = 1;
        if (ways[0] & 1)
            *wb = 1;
        memmove(ways, ways + 1, (size_t)(assoc - 1) * 8);
        n = assoc - 1;
    }
    ways[n] = (key << 1) | dirty;
    return 0;
}

/* Install without demand counting (prefetch / inclusive-L3 install):
 * refresh LRU if present (keeping the dirty bit), else insert clean,
 * accumulating evictions/writebacks into the given counter slots. */
static void set_install(i64 *ways, i64 assoc, i64 key, i64 *evicted, i64 *wb)
{
    i64 i, n = 0, hit = -1, e;
    for (i = 0; i < assoc; i++) {
        if (!ways[i])
            break;
        n = i + 1;
        if ((ways[i] >> 1) == key)
            hit = i;
    }
    if (hit >= 0) {
        e = ways[hit];
        memmove(ways + hit, ways + hit + 1, (size_t)(n - 1 - hit) * 8);
        ways[n - 1] = e;
        return;
    }
    if (n >= assoc) {
        *evicted += 1;
        if (ways[0] & 1)
            *wb += 1;
        memmove(ways, ways + 1, (size_t)(assoc - 1) * 8);
        n = assoc - 1;
    }
    ways[n] = key << 1;
}

/* Fully-associative LRU TLB access; returns 1 on hit. */
static i64 tlb_access(i64 *ent, i64 cap, i64 key)
{
    i64 i, n = 0, hit = -1;
    for (i = 0; i < cap; i++) {
        if (!ent[i])
            break;
        n = i + 1;
        if (ent[i] == key)
            hit = i;
    }
    if (hit >= 0) {
        memmove(ent + hit, ent + hit + 1, (size_t)(n - 1 - hit) * 8);
        ent[n - 1] = key;
        return 1;
    }
    if (n >= cap) {
        memmove(ent, ent + 1, (size_t)(cap - 1) * 8);
        n = cap - 1;
    }
    ent[n] = key;
    return 0;
}

/* StreamPrefetcher.on_miss: find a stream within `depth` blocks (first
 * match wins); allocate (oldest stream dropped, no issue) when none, else
 * retarget the stream and install the next `depth` blocks. */
static void pf_on_miss(i64 *pf, i64 streams, i64 depth, i64 *ways, i64 nsets,
                       i64 assoc, i64 block, i64 *evicted, i64 *wb,
                       i64 *issued)
{
    i64 n = pf[0], i, si = -1, d, dir;
    for (i = 0; i < n; i++) {
        d = block - pf[1 + 2 * i];
        if (d < 0)
            d = -d;
        if (d <= depth) {
            si = i;
            break;
        }
    }
    if (si < 0) {
        if (n >= streams) {
            memmove(pf + 1, pf + 3, (size_t)(2 * (streams - 1)) * 8);
            n = streams - 1;
        }
        pf[1 + 2 * n] = block;
        pf[2 + 2 * n] = 1;
        pf[0] = n + 1;
        return;
    }
    dir = block >= pf[1 + 2 * si] ? 1 : -1;
    pf[1 + 2 * si] = block;
    pf[2 + 2 * si] = dir;
    for (i = 1; i <= depth; i++) {
        i64 b = block + i * dir;
        if (b < 0)
            continue;
        *issued += 1;
        set_install(ways + (b % nsets) * assoc, assoc, b + 1, evicted, wb);
    }
}

/* beyond_l1 in MemoryHierarchy._replay: L2 demand (prefetcher on miss),
 * then L3 demand, then DRAM; returns the added latency.  L2/L3 counters
 * always accumulate, warm-up included. */
static i64 beyond_l1(const i64 *cfg, i64 *ctr, i64 *l2w, i64 *l3w, i64 *pf2,
                     i64 a, i64 write)
{
    i64 ev, wb;
    i64 block = a / cfg[10];
    if (set_demand(l2w + (block % cfg[8]) * cfg[9], cfg[9], block + 1, write,
                   &ev, &wb)) {
        ctr[4] += 1;
        return cfg[11];
    }
    ctr[5] += 1;
    ctr[6] += ev;
    ctr[7] += wb;
    pf_on_miss(pf2, cfg[29], cfg[30], l2w, cfg[8], cfg[9], block,
               &ctr[6], &ctr[7], &ctr[21]);
    block = a / cfg[14];
    if (set_demand(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                   write, &ev, &wb)) {
        ctr[8] += 1;
        return cfg[11] + cfg[15];
    }
    ctr[9] += 1;
    ctr[10] += ev;
    ctr[11] += wb;
    return cfg[11] + cfg[15] + cfg[20];
}

long long hier_batch(const long long *cfg, long long *ctr,
                     long long *l1w, long long *l2w, long long *l3w,
                     long long *lkw, long long *dtlb, long long *ltlb,
                     long long *pf1, long long *pf2, long long n,
                     const long long *addrs, const long long *specs,
                     const long long *pos, long long *lats)
{
    const i64 lock_en = cfg[0], ideal = cfg[1], collect = cfg[2];
    const i64 stride = cfg[3];
    i64 dtlb_last = -1, ltlb_last = -1;
    i64 k, ev, wb, dummy = 0;
    for (k = 0; k < n; k++) {
        i64 a = addrs[k];
        i64 spec = specs[k * stride];
        i64 port = spec & 3;
        i64 write = (spec >> 2) & 1;
        i64 lat, block, hit, page;
        if (port == 1 && lock_en) {
            /* -- dedicated lock location cache (no L1 prefetcher) ------- */
            page = a / cfg[25];
            if (page == ltlb_last) {
                ctr[18] += collect;
                lat = cfg[19];
            } else if (tlb_access(ltlb, cfg[24], page + 1)) {
                ctr[18] += collect;
                ltlb_last = page;
                lat = cfg[19];
            } else {
                ctr[19] += collect;
                ltlb_last = page;
                lat = cfg[26] + cfg[19];
            }
            block = a / cfg[18];
            hit = set_demand(lkw + (block % cfg[16]) * cfg[17], cfg[17],
                             block + 1, write, &ev, &wb);
            if (hit) {
                ctr[12] += collect;
            } else {
                if (collect) {
                    ctr[13] += 1;
                    ctr[14] += ev;
                    ctr[15] += wb;
                }
                lat += beyond_l1(cfg, ctr, l2w, l3w, pf2, a, write);
            }
        } else if (port == 2 && ideal) {
            /* Idealized shadow: a port-occupying L1 hit, no allocation. */
            if (collect) {
                lat = cfg[7];
                ctr[24] += 1;
                ctr[27] += lat;
                if (spec & 8)
                    lats[pos[k]] = lat;
            }
            continue;
        } else {
            /* -- the L1 data cache (data, shadow, lock-on-data) ---------- */
            page = a / cfg[22];
            if (page == dtlb_last) {
                ctr[16] += collect;
                lat = cfg[7];
            } else if (tlb_access(dtlb, cfg[21], page + 1)) {
                ctr[16] += collect;
                dtlb_last = page;
                lat = cfg[7];
            } else {
                ctr[17] += collect;
                dtlb_last = page;
                lat = cfg[23] + cfg[7];
            }
            block = a / cfg[6];
            hit = set_demand(l1w + (block % cfg[4]) * cfg[5], cfg[5],
                             block + 1, write, &ev, &wb);
            if (hit) {
                ctr[0] += collect;
            } else {
                if (collect) {
                    ctr[1] += 1;
                    ctr[2] += ev;
                    ctr[3] += wb;
                }
                pf_on_miss(pf1, cfg[27], cfg[28], l1w, cfg[4], cfg[5], block,
                           &ctr[2], &ctr[3], &ctr[20]);
                lat += beyond_l1(cfg, ctr, l2w, l3w, pf2, a, write);
            }
        }
        /* inclusive L3 install (demand accesses of every class) */
        block = a / cfg[14];
        if (collect)
            set_install(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                        &ctr[10], &ctr[11]);
        else
            set_install(l3w + (block % cfg[12]) * cfg[13], cfg[13], block + 1,
                        &dummy, &dummy);
        if (collect) {
            ctr[22 + port] += 1;
            ctr[25 + port] += lat;
            if (spec & 8)
                lats[pos[k]] = lat;
        }
    }
    return 0;
}

/* Cache.fill: sequential warm install of `n` addresses (clean lines; LRU
 * refresh on re-touch, silent oldest-first eviction when a set is full —
 * no counters, warm-up is unobserved). */
long long warm_fill(i64 *ways, i64 nsets, i64 assoc, i64 block_bytes,
                    i64 n, const i64 *addrs)
{
    i64 k, block, dummy = 0;
    for (k = 0; k < n; k++) {
        block = addrs[k] / block_bytes;
        set_install(ways + (block % nsets) * assoc, assoc, block + 1,
                    &dummy, &dummy);
    }
    return 0;
}

/* The working set's range expansion (WorkingSetArrays.columns in
 * Python): ranges holds n flat [start, end) pairs.  Writes the lines
 * start, start + 64, ... < end of each pair into data and, for each pair
 * of m lines, the m * mw shadow lines SHADOW_BIT + start * mw + 64 * k into
 * shadow.  Returns the number of data lines; with data == NULL it writes
 * nothing, so a first call sizes the columns. */
long long ws_expand(const i64 *ranges, i64 n, i64 mw, i64 *data,
                    i64 *shadow)
{
    i64 r, k, first, lines = 0;
    for (r = 0; r < n; r++) {
        i64 start = ranges[2 * r], end = ranges[2 * r + 1];
        i64 m = end > start ? (end - start + 63) / 64 : 0;
        if (data) {
            for (k = 0; k < m; k++)
                data[lines + k] = start + 64 * k;
            first = SHADOW_BIT + start * mw;
            for (k = 0; k < m * mw; k++)
                *shadow++ = first + 64 * k;
        }
        lines += m;
    }
    return lines;
}

/* repro.sim.trace's address rules (the self-test runs every one). */
#define ADDR_DATA 1
#define ADDR_SHADOW 2
#define ADDR_LOCK 3
#define ADDR_FRAME_PUSH 4
#define NO_ADDRESS (-1LL)
#define META_SLOTS 17

/* SHADOW_BIT | ((a & ~7) * mw) % 2**47, Python's modulo for every int64 a:
 * 2**47 divides 2**64, so the wrapped unsigned product reduces alike. */
static i64 shadow_of(i64 a, i64 mw)
{
    return SHADOW_BIT
        | (i64)(((uint64_t)(a & ~7LL) * (uint64_t)mw) & (SHADOW_BIT - 1));
}

/* Stream compilation: StreamCompiler.compile_measured (cfg[0] = 0) and
 * compile_warm (cfg[0] = 1), statement for statement.  Replays the n token
 * rows (tids, addrs, locks, mis) through one class's template table:
 * rows[tid] is identity tid's row (ntids identities), and row r's
 * META_SLOTS slots at meta[META_SLOTS * r] hold
 *   0 the offset of its µops in twords/tmis/tlats, 1 their count,
 *   2 the offset of its address ops in taops (triples: µop offset, rule,
 *     spec), 3 their count, 4 the access size,
 *   5-16 its statistics: total cost, injected cost, the eight
 *     InjectionStats fields, memory ops, pointer ops.
 * tmis holds twords with the mispredict flag set on branch µops.
 * cfg: 0 mode, 1 metadata words (mw), 2 shadow lines after each warm data
 * access, 3 the frame-lock start, 4 its floor, 5 the shadow-read spec.
 *
 * Measured mode writes each row's µop words (from tmis when mispredicted)
 * and latencies, one (position, address, spec) access per address op whose
 * address exists, the 8-byte data words of each data access and the mw
 * shadow words of each shadow access; counts (ntids zeroed slots) gets each
 * identity's rows and totals the 12 statistics sums.  Warm mode writes
 * accesses (address, spec) only, plus mw shadow reads after each data
 * access when cfg[2] is set.  With sizes != NULL nothing else is written:
 * sizes gets the column lengths (words, accesses, data words, shadow
 * words), so a first call sizes the columns.  Returns -1 on a tid outside
 * the rows, else 0. */
long long compile_run(const i64 *cfg, const i64 *meta, const i64 *twords,
                      const i64 *tmis, const i64 *tlats, const i64 *taops,
                      const i64 *rows, i64 ntids, i64 n, const i64 *tids,
                      const i64 *addrs, const i64 *locks, const i64 *mis,
                      i64 *sizes, i64 *words, i64 *lats, i64 *mpos,
                      i64 *maddr, i64 *mspec, i64 *dwords, i64 *swords,
                      i64 *counts, i64 *totals)
{
    const i64 warm = cfg[0], mw = cfg[1], warm_shadow = cfg[2];
    const i64 floor = cfg[4], shadow_read = cfg[5];
    const int out = sizes == NULL;
    i64 frame = cfg[3], nw = 0, nm = 0, nd = 0, ns = 0;
    i64 k, j, i, t;
    for (k = 0; k < n; k++) {
        const i64 *m;
        i64 a = addrs[k];
        t = tids[k];
        if (t < 0 || t >= ntids)
            return -1;
        m = meta + META_SLOTS * rows[t];
        if (out && !warm) {
            const i64 *w = (mis[k] ? tmis : twords) + m[0];
            const i64 *l = tlats + m[0];
            counts[t] += 1;
            for (j = 0; j < m[1]; j++) {
                words[nw + j] = w[j];
                lats[nw + j] = l[j];
            }
        }
        for (j = 0; j < m[3]; j++) {
            const i64 *op = taops + 3 * (m[2] + j);
            i64 rule = op[1], addr;
            if (rule == ADDR_DATA) {
                if (a == NO_ADDRESS)
                    continue;
                addr = a;
            } else if (rule == ADDR_SHADOW) {
                if (a == NO_ADDRESS)
                    continue;
                addr = shadow_of(a, mw);
            } else if (rule == ADDR_LOCK) {
                addr = locks[k];
                if (addr == NO_ADDRESS)
                    continue;
            } else if (rule == ADDR_FRAME_PUSH) {
                frame += 8;
                addr = frame;
            } else {  /* ADDR_FRAME_POP */
                addr = frame;
                frame -= 8;
                if (frame < floor)
                    frame = floor;
            }
            if (out) {
                maddr[nm] = addr;
                mspec[nm] = op[2];
                if (!warm)
                    mpos[nm] = nw + op[0];
            }
            nm++;
            if (warm) {
                if (rule == ADDR_DATA && warm_shadow) {
                    for (i = 0; i < mw; i++, nm++)
                        if (out) {
                            maddr[nm] = shadow_of((a & ~63LL) + i * (64 / mw),
                                                  mw);
                            mspec[nm] = shadow_read;
                        }
                }
            } else if (rule == ADDR_DATA) {
                for (i = a & ~7LL; i < a + m[4]; i += 8, nd++)
                    if (out)
                        dwords[nd] = i;
            } else if (rule == ADDR_SHADOW) {
                for (i = 0; i < mw; i++, ns++)
                    if (out)
                        swords[ns] = addr + 8 * i;
            }
        }
        nw += m[1];
    }
    if (!out) {
        sizes[0] = nw;
        sizes[1] = nm;
        sizes[2] = nd;
        sizes[3] = ns;
    } else if (!warm) {
        for (t = 0; t < ntids; t++)
            for (j = 0; j < 12; j++)
                totals[j] += counts[t] * meta[META_SLOTS * rows[t] + 5 + j];
    }
    return 0;
}

/* OutOfOrderCore._schedule_python, the array scheduler.
 *
 * uops[k] is one µop in the only µop-stream format, the word that
 * pack_entry_words writes and unpack_words reads: bits 0-8 flags (kind code
 * | LQ 32 | SQ 64 | branch 128 | mispredict 256), bits 9-14 µop cost, then
 * six 6-bit register-slot fields (value + 1; 0 = none) for dest, s0, s1,
 * meta-dest, ms0, ms1 at bits 15/21/27/33/39/45.  ready and meta_ready
 * hold 64 slots, every value a field can encode.
 *
 * cfg: 0 dispatch_width, 1 dispatch_latency, 2 commit_width,
 *      3 mispredict_penalty, 4 first dispatch cycle (fetch+rename),
 *      5-8 ROB/IQ/LQ/SQ sizes (all positive: MachineConfig rejects the
 *      rest).
 *
 * robq/iqq/lqq/sqq are caller-provided ring buffers of the queue sizes
 * (occupancy never exceeds size at append time, so size slots suffice).
 * pool_free is the concatenation of every pool's next-free list (offsets in
 * pool_off); final values are left in place for the caller to copy back.
 * Returns the last commit cycle. */
long long sched_run(const long long *cfg, const long long *uops,
                    const long long *lats, long long n, long long *ready,
                    long long *meta_ready, const long long *pool_map,
                    long long *pool_free, const long long *pool_off,
                    long long *pool_uses, long long *pool_waits,
                    long long *robq, long long *iqq, long long *lqq,
                    long long *sqq)
{
    const i64 DW = cfg[0], DL = cfg[1], CW = cfg[2], MP = cfg[3];
    const i64 ROB = cfg[5], IQ = cfg[6], LQ = cfg[7], SQ = cfg[8];
    i64 dispatch_cycle = cfg[4], dispatched = 0, fetch_stall = 0;
    i64 last_commit = 0, commits = 0, commit_cycle = 0;
    i64 rob_h = 0, rob_n = 0, iq_h = 0, iq_n = 0;
    i64 lq_h = 0, lq_n = 0, sq_h = 0, sq_n = 0;
    i64 k, i, v, idx;
    for (k = 0; k < n; k++) {
        i64 w = uops[k];
        i64 flags = w & 511;
        i64 cost = (w >> 9) & 63;
        i64 t, r, p, lo, hi, b, bi, start, completion, c, slot;

        /* ---- dispatch: front-end width, window occupancy -------------- */
        if (dispatched >= DW) {
            dispatch_cycle += 1;
            dispatched = 0;
        }
        t = dispatch_cycle;
        if (fetch_stall > t)
            t = fetch_stall;
        if (rob_n >= ROB) {
            v = robq[rob_h];
            if (++rob_h == ROB)
                rob_h = 0;
            rob_n -= 1;
            if (v > t)
                t = v;
        } else if (rob_n && robq[rob_h] <= t) {
            if (++rob_h == ROB)
                rob_h = 0;
            rob_n -= 1;
        }
        if (iq_n >= IQ) {
            v = iqq[iq_h];
            if (++iq_h == IQ)
                iq_h = 0;
            iq_n -= 1;
            if (v > t)
                t = v;
        } else if (iq_n && iqq[iq_h] <= t) {
            if (++iq_h == IQ)
                iq_h = 0;
            iq_n -= 1;
        }
        if (flags & 96) {
            if (flags & 32) {
                while (lq_n && lqq[lq_h] <= t) {
                    if (++lq_h == LQ)
                        lq_h = 0;
                    lq_n -= 1;
                }
                if (lq_n >= LQ) {
                    v = lqq[lq_h];
                    if (++lq_h == LQ)
                        lq_h = 0;
                    lq_n -= 1;
                    if (v > t)
                        t = v;
                }
            } else {
                while (sq_n && sqq[sq_h] <= t) {
                    if (++sq_h == SQ)
                        sq_h = 0;
                    sq_n -= 1;
                }
                if (sq_n >= SQ) {
                    v = sqq[sq_h];
                    if (++sq_h == SQ)
                        sq_h = 0;
                    sq_n -= 1;
                    if (v > t)
                        t = v;
                }
            }
        }
        if (t > dispatch_cycle) {
            dispatch_cycle = t;
            dispatched = cost;
        } else {
            dispatched += cost;
        }

        /* ---- issue: operand readiness, then a port -------------------- */
        r = t + DL;
        slot = ((w >> 15) & 63) - 1;  /* dest (consumed at writeback) */
        i = ((w >> 21) & 63) - 1;     /* s0 */
        if (i >= 0) {
            if (ready[i] > r)
                r = ready[i];
            i = ((w >> 27) & 63) - 1; /* s1 (only considered when s0 set) */
            if (i >= 0 && ready[i] > r)
                r = ready[i];
        }
        i = ((w >> 39) & 63) - 1;     /* ms0 */
        if (i >= 0) {
            if (meta_ready[i] > r)
                r = meta_ready[i];
            i = ((w >> 45) & 63) - 1; /* ms1 (only considered when ms0 set) */
            if (i >= 0 && meta_ready[i] > r)
                r = meta_ready[i];
        }
        p = pool_map[flags & 31];
        lo = pool_off[p];
        hi = pool_off[p + 1];
        bi = lo;
        b = pool_free[lo];
        for (i = lo + 1; i < hi; i++)
            if (pool_free[i] < b) {
                b = pool_free[i];
                bi = i;
            }
        if (b > r) {
            start = b;
            pool_waits[p] += b - r;
        } else {
            start = r;
        }
        pool_free[bi] = start + cost;
        pool_uses[p] += 1;
        completion = start + lats[k];

        /* ---- writeback ------------------------------------------------ */
        if (slot >= 0)
            ready[slot] = completion;
        slot = ((w >> 33) & 63) - 1;  /* meta dest */
        if (slot >= 0)
            meta_ready[slot] = completion;

        /* ---- branch misprediction refill ------------------------------ */
        if (flags & 256) {
            v = completion + MP;
            if (v > fetch_stall)
                fetch_stall = v;
        }

        /* ---- in-order commit ------------------------------------------ */
        c = completion;
        if (last_commit > c)
            c = last_commit;
        if (c == commit_cycle) {
            commits += cost;
            if (commits >= CW) {
                c += 1;
                commits = 0;
            }
        } else {
            commit_cycle = c;
            commits = cost;
        }
        last_commit = c;

        /* ---- occupancy bookkeeping ------------------------------------ */
        idx = rob_h + rob_n;
        if (idx >= ROB)
            idx -= ROB;
        robq[idx] = c;
        rob_n += 1;
        idx = iq_h + iq_n;
        if (idx >= IQ)
            idx -= IQ;
        iqq[idx] = start;
        iq_n += 1;
        if (flags & 32) {
            idx = lq_h + lq_n;
            if (idx >= LQ)
                idx -= LQ;
            lqq[idx] = completion;
            lq_n += 1;
        } else if (flags & 64) {
            idx = sq_h + sq_n;
            if (idx >= SQ)
                idx -= SQ;
            sqq[idx] = c;
            sq_n += 1;
        }
    }
    return last_commit;
}
"""


def _bind(so_path: Path):
    lib = ctypes.CDLL(str(so_path))
    p, q = ctypes.c_void_p, ctypes.c_longlong
    lib.hier_batch.restype = q
    lib.hier_batch.argtypes = [p] * 10 + [q] + [p] * 4
    lib.warm_fill.restype = q
    lib.warm_fill.argtypes = [p, q, q, q, q, p]
    lib.ws_expand.restype = q
    lib.ws_expand.argtypes = [p, q, q, p, p]
    lib.compile_run.restype = q
    lib.compile_run.argtypes = [p] * 7 + [q, q] + [p] * 14
    lib.sched_run.restype = q
    lib.sched_run.argtypes = [p, p, p, q] + [p] * 11
    return lib


def pack_entry_words(uops):
    """Per-µop ``(flags, cost, dest, s0, s1, md, ms0, ms1)`` tuples packed
    into kernel words (the layout documented at ``sched_run``).

    The one encoder: the stream compiler packs each template's entries once
    at build time.  Raises :class:`ValueError` on a field that does not fit:
    a register slot outside -1..62, flags outside 0..511 or a cost outside
    0..63.
    """
    words = array("q")
    for entry in uops:
        flags, cost, dest, s0, s1, md, ms0, ms1 = entry
        d = dest + 1
        a = s0 + 1
        b = s1 + 1
        m = md + 1
        x = ms0 + 1
        y = ms1 + 1
        if (d | a | b | m | x | y) & -64 or flags & -512 or cost & -64:
            raise ValueError(f"µop does not fit the packed word: {entry}")
        words.append(flags | cost << 9 | d << 15 | a << 21 | b << 27
                     | m << 33 | x << 39 | y << 45)
    return words


def unpack_words(words):
    """Per-µop ``(flags, cost, dest, s0, s1, md, ms0, ms1)`` tuples of
    packed kernel words (the inverse of :func:`pack_entry_words`)."""
    return [(w & 511, (w >> 9) & 63,
             ((w >> 15) & 63) - 1, ((w >> 21) & 63) - 1,
             ((w >> 27) & 63) - 1, ((w >> 33) & 63) - 1,
             ((w >> 39) & 63) - 1, ((w >> 45) & 63) - 1)
            for w in words]


def _config_array(config):
    """The 31-slot int64 config block ``hier_batch`` expects (layout in C)."""
    levels = []
    for c in (config.l1d, config.l2, config.l3, config.lock_cache):
        levels += [c.num_sets, c.associativity, c.block_bytes, c.hit_latency]
    return array("q", [
        1 if config.lock_cache_enabled else 0,
        1 if config.ideal_shadow else 0,
        0, 0,  # collect / spec-stride, set per batch
        *levels,
        config.dram_latency,
        config.l1_tlb.entries, config.l1_tlb.page_bytes,
        config.l1_tlb.miss_penalty,
        config.lock_tlb.entries, config.lock_tlb.page_bytes,
        config.lock_tlb.miss_penalty,
        config.l1d_prefetcher.streams, config.l1d_prefetcher.depth,
        config.l2_prefetcher.streams, config.l2_prefetcher.depth])


def fill(lib, cache, addrs) -> None:
    """:meth:`repro.memory.cache.Cache.fill` of an ``array("q")`` through
    the kernel's ``warm_fill``."""
    if len(addrs):
        lib.warm_fill(cache.ways.buffer_info()[0], cache._num_sets,
                      cache._assoc, cache._block_bytes, len(addrs),
                      addrs.buffer_info()[0])


def expand_ranges(lib, ranges, mw: int):
    """``(data, shadow)`` columns of the flat ``[start, end)`` line ranges in
    ``ranges`` (an ``array("q")``) through the kernel's ``ws_expand``."""
    n = len(ranges) // 2
    src = ranges.buffer_info()[0]
    lines = lib.ws_expand(src, n, mw, None, None)
    data = array("q", [0]) * lines
    shadow = array("q", [0]) * (lines * mw)
    if lines:
        lib.ws_expand(src, n, mw, data.buffer_info()[0],
                      shadow.buffer_info()[0])
    return data, shadow


def _zeros(n: int) -> array:
    return array("q", [0]) * n


def compile_tokens(lib, cfg, table, rows, tokens):
    """One token window through the kernel's ``compile_run`` (layout in C).

    ``cfg`` is its six-slot config block (an ``array("q")``), ``table``
    holds the template columns (``meta``, ``words``, ``mis_words``,
    ``lats``, ``aops``) and ``rows`` lists each identity's table row.
    Returns ``(addrs, specs)`` in warm mode, else ``(words, lats, mem_pos,
    mem_addr, mem_spec, data_words, shadow_words, totals)``.
    """
    rows = array("q", rows)
    columns = [col if isinstance(col, array) and col.typecode == "q"
               else array("q", col)
               for col in (tokens.tids, tokens.addrs, tokens.locks,
                           tokens.mis)]
    head = [col.buffer_info()[0]
            for col in (cfg, table.meta, table.words, table.mis_words,
                        table.lats, table.aops, rows)]
    head += [len(rows), len(columns[0])]
    head += [col.buffer_info()[0] for col in columns]
    sizes = _zeros(4)
    if lib.compile_run(*head, sizes.buffer_info()[0], *[None] * 9) < 0:
        raise IndexError("token identity outside the window's identities")
    n_words, n_mem, n_data, n_shadow = sizes
    mem_addr = _zeros(n_mem)
    mem_spec = _zeros(n_mem)
    if cfg[0]:
        lib.compile_run(*head, None, None, None, None,
                        mem_addr.buffer_info()[0], mem_spec.buffer_info()[0],
                        None, None, None, None)
        return mem_addr, mem_spec
    out = (_zeros(n_words), _zeros(n_words), _zeros(n_mem), mem_addr,
           mem_spec, _zeros(n_data), _zeros(n_shadow), _zeros(len(rows)),
           _zeros(12))
    lib.compile_run(*head, None, *[col.buffer_info()[0] for col in out])
    return out[:7] + out[8:]


def run_batch(lib, h, addrs, specs, positions, lats, collect: bool):
    """Replay one access batch through the C kernel, in place of
    ``MemoryHierarchy._replay``; returns the counter deltas.

    The kernel updates the hierarchy's own arrays in place.  ``specs`` may
    be a per-access sequence or a single int (warm-up);
    ``positions``/``lats`` are ignored when not collecting.
    """
    n = len(addrs)
    if not (isinstance(addrs, array) and addrs.typecode == "q"):
        addrs = array("q", addrs)
    if isinstance(specs, int):
        stride = 0
        specs = array("q", (specs,))
    else:
        stride = 1
        if not (isinstance(specs, array) and specs.typecode == "q"):
            specs = array("q", specs)
    pos_ptr = lat_ptr = None
    lats_q = lats_out = None
    if collect:
        if not (isinstance(positions, array) and positions.typecode == "q"):
            positions = array("q", positions)
        if isinstance(lats, array) and lats.typecode == "q":
            lats_q = lats
        else:
            lats_q = array("q", lats)
            lats_out = lats  # write the kernel's latencies back at the end
        pos_ptr = positions.buffer_info()[0]
        lat_ptr = lats_q.buffer_info()[0]

    cfg = _config_array(h.config)
    cfg[CFG_COLLECT] = 1 if collect else 0
    cfg[CFG_STRIDE] = stride
    ctr = array("q", bytes(8 * N_COUNTERS))
    lib.hier_batch(
        cfg.buffer_info()[0], ctr.buffer_info()[0],
        h.l1d.ways.buffer_info()[0], h.l2.ways.buffer_info()[0],
        h.l3.ways.buffer_info()[0], h.lock_cache.ways.buffer_info()[0],
        h.dtlb.slots.buffer_info()[0], h.lock_tlb.slots.buffer_info()[0],
        h.l1d_prefetcher.table.buffer_info()[0],
        h.l2_prefetcher.table.buffer_info()[0],
        n, addrs.buffer_info()[0], specs.buffer_info()[0], pos_ptr, lat_ptr)
    if lats_out is not None:
        lats_out[:] = lats_q
    return ctr


def _self_test_hier(lib) -> bool:
    """The hierarchy kernel must match the Python batch loops exactly."""
    import random

    from repro.memory.cache import CacheConfig
    from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
    from repro.memory.prefetcher import PrefetcherConfig
    from repro.memory.tlb import TLBConfig

    rng = random.Random(20120609)
    geometry = dict(
        l1d=CacheConfig("L1D", size_bytes=1024, associativity=2,
                        block_bytes=64, hit_latency=3),
        l2=CacheConfig("L2", size_bytes=4096, associativity=4,
                       block_bytes=64, hit_latency=10),
        l3=CacheConfig("L3", size_bytes=16384, associativity=4,
                       block_bytes=64, hit_latency=25),
        lock_cache=CacheConfig("LockLoc", size_bytes=512, associativity=2,
                               block_bytes=64, hit_latency=3),
        l1d_prefetcher=PrefetcherConfig(streams=2, depth=3),
        l2_prefetcher=PrefetcherConfig(streams=2, depth=4),
        l1_tlb=TLBConfig("DTLB", entries=4, miss_penalty=20),
        lock_tlb=TLBConfig("LockTLB", entries=2, miss_penalty=20),
        dram_latency=200)
    for lock_en, ideal in ((True, False), (False, True), (True, True)):
        config = HierarchyConfig(lock_cache_enabled=lock_en,
                                 ideal_shadow=ideal, **geometry)
        # Tiny geometry + mixed address locality: every path (hits, misses,
        # evictions, writebacks, TLB churn, both prefetch directions, lock
        # and shadow ports, idealized shadow) triggers within ~200 accesses.
        addrs, specs, positions = [], [], []
        for _ in range(150):
            region = rng.randrange(3)
            if region == 0:
                a = rng.randrange(4096)
            elif region == 1:
                a = rng.randrange(1 << 20)
            else:
                a = rng.randrange(64) * 64 + rng.randrange(4) * (1 << 18)
            addrs.append(a)
            specs.append(rng.randrange(3) | rng.randrange(2) << 2 | 8)
            positions.append(len(positions))
        base = rng.randrange(1 << 16)
        for i in range(30):  # a descending run: negative-direction streams
            addrs.append(base + 64 * (30 - i))
            specs.append(8)
            positions.append(len(positions))
        # The batch's page memos, which random accesses reach only by luck:
        # per TLB (data port, then lock port) two fresh pages q, p, q, p.
        # The last p follows a TLB hit on q, so it must take the LRU move
        # that a memo left on p would skip.
        for port, (q, p) in ((0, (2, 3)), (1, (4, 5))):
            for page in (q, p, q, p):
                addrs.append(page << 21)
                specs.append(port | 8)
                positions.append(len(positions))
        ref = MemoryHierarchy(config)
        ref.timecore = False
        ker = MemoryHierarchy(config)
        lats_ref = [0] * len(addrs)
        lats_ker = array("q", bytes(8 * len(addrs)))
        ref.access_batch(addrs, specs, positions, lats_ref)
        ker._batch_native(lib, addrs, specs, positions, lats_ker, True)
        if list(lats_ker) != lats_ref or not _same_hierarchy(ref, ker):
            return False
        for warm_specs in (specs, 0):  # per-access and scalar-spec warm-up
            ref_w = MemoryHierarchy(config)
            ref_w.timecore = False
            ker_w = MemoryHierarchy(config)
            ref_w.warm_batch(addrs, warm_specs)
            ker_w._batch_native(lib, addrs, warm_specs, None, None, False)
            if not _same_hierarchy(ref_w, ker_w):
                return False
        # warm_fill must match Cache.fill, through the one working-set
        # install both serve (tail-limit slicing included), on sets that
        # the batch above left holding dirty lines: first re-installing
        # every resident L3 line (refreshes keep dirty bits), then filling.
        from repro.sim.compiled import _install_tail
        resident = [((slot >> 1) - 1) * config.l3.block_bytes
                    for slot in ref.l3.ways if slot]
        split = (addrs[:40], addrs[40:])
        for cache_of, pieces, limit in ((lambda h: h.l3, (resident,), None),
                                        (lambda h: h.l1d, split, 6),
                                        (lambda h: h.l2, split, None)):
            _install_tail(cache_of(ref), pieces, limit, None)
            _install_tail(cache_of(ker), pieces, limit, lib)
        if not _same_hierarchy(ref, ker):
            return False
    return True


def _same_hierarchy(a, b) -> bool:
    """Equal state arrays (LRU order included), counters and stats."""
    for ca, cb in ((a.l1d, b.l1d), (a.l2, b.l2), (a.l3, b.l3),
                   (a.lock_cache, b.lock_cache)):
        if (ca.hits, ca.misses, ca.evictions, ca.writebacks, ca.ways) != \
                (cb.hits, cb.misses, cb.evictions, cb.writebacks, cb.ways):
            return False
    for ta, tb in ((a.dtlb, b.dtlb), (a.lock_tlb, b.lock_tlb)):
        if (ta.hits, ta.misses, ta.slots) != (tb.hits, tb.misses, tb.slots):
            return False
    for pa, pb in ((a.l1d_prefetcher, b.l1d_prefetcher),
                   (a.l2_prefetcher, b.l2_prefetcher)):
        if (pa.prefetches_issued, pa.table) != \
                (pb.prefetches_issued, pb.table):
            return False
    return a.stats == b.stats


def _self_test_sched(lib) -> bool:
    """The scheduler kernel must match the Python array scheduler exactly."""
    import random
    from types import SimpleNamespace

    from repro.core.config import WatchdogConfig
    from repro.isa.microops import UopKind
    from repro.memory.cache import CacheConfig
    from repro.memory.hierarchy import HierarchyConfig
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.core import OutOfOrderCore

    rng = random.Random(42)
    # Tiny windows and widths so every structural stall (ROB/IQ/LQ/SQ full,
    # dispatch width, commit width, fetch refill) occurs within ~1k µops.
    # The stream makes no memory accesses, so a small L3 only spares each
    # core allocating (and faulting in) a 2MB Table 2 L3.
    machine = MachineConfig(rob_entries=12, iq_entries=6, lq_entries=3,
                            sq_entries=3, dispatch_width=2, commit_width=2,
                            branch_misprediction_penalty=5,
                            hierarchy=HierarchyConfig(l3=CacheConfig(
                                "L3", size_bytes=16384, associativity=16)))
    kinds = list(UopKind)
    uops, lat_template = [], []
    for _ in range(1200):
        kind = rng.choice(kinds)
        flags = kind.code
        if kind in (UopKind.LOAD, UopKind.SHADOW_LOAD):
            flags |= 32
        elif kind in (UopKind.STORE, UopKind.SHADOW_STORE):
            flags |= 64
        if kind is UopKind.BRANCH:
            flags |= 128
            if rng.random() < 0.3:
                flags |= 256
        s0 = rng.randrange(-1, 32)
        ms0 = rng.randrange(-1, 32)
        uops.append((flags, rng.choice((1, 1, 1, 2, 4)),
                     rng.randrange(-1, 32), s0,
                     rng.randrange(-1, 32) if s0 >= 0 else -1,
                     rng.randrange(-1, 32), ms0,
                     rng.randrange(-1, 32) if ms0 >= 0 else -1))
        lat_template.append(rng.choice((1, 1, 3, 3, 13, 23, 258)))
    stream = SimpleNamespace(
        words=pack_entry_words(uops), total_uops=sum(u[1] for u in uops),
        injected_uops=0, macro_instructions=len(uops), memory_accesses=0)
    lats = array("q", lat_template)
    for config in (WatchdogConfig.isa_assisted_uaf(),
                   WatchdogConfig.no_lock_cache()):
        ref_core = OutOfOrderCore(machine=machine, watchdog=config,
                                  timecore=False)
        ker_core = OutOfOrderCore(machine=machine, watchdog=config)
        ref_result = ref_core._schedule_python(stream, lats)
        ker_result = ker_core._schedule_native(stream, lats, lib)
        if ker_result != ref_result:
            return False
        for rp, kp in zip(ref_core.units.all_pools().values(),
                          ker_core.units.all_pools().values()):
            if (rp._next_free, rp.uses, rp.total_wait) != \
                    (kp._next_free, kp.uses, kp.total_wait):
                return False
    return True


def _self_test_ws(lib) -> bool:
    """``ws_expand`` must match the Python range expansion: a few ranges,
    one pair of objects sharing a line, a one-line global span."""
    from repro.sim.compiled import WorkingSetArrays

    ranges = array("q", [0x2000_0000, 0x2000_0030,   # shares its line ...
                         0x2000_0000, 0x2000_0070,   # ... with this one
                         0x2000_1040, 0x2000_1c58,
                         0x1000_0000, 0x1000_0040])
    for mw in (0, 2, 4):
        ws = WorkingSetArrays(ranges=ranges, locks=array("q"),
                              metadata_words=mw)
        if ws.columns(lib) != ws.columns(None):
            return False
    return True


def _same_streams(a, b) -> bool:
    """Equal fields of two compiled (or two warm) streams: columns,
    statistics and page word sets."""
    import dataclasses

    return all(getattr(a, field.name) == getattr(b, field.name)
               for field in dataclasses.fields(a))


def _self_test_compile(lib) -> bool:
    """``compile_run`` must match the Python compile loops in both modes.

    Six synthetic templates in a private table cover every address rule —
    data (one access straddling two words), shadow at mw 2 and 4 (one
    address past the 2**47 wrap), lock, frame push and a frame pop clamped
    at the floor — a mispredicted branch, ``NO_ADDRESS`` rows, and, with a
    disabled class, warm data accesses without shadow lines; then an empty
    window.
    """
    from repro.core.config import WatchdogConfig
    from repro.isa.instructions import Instruction, Opcode
    from repro.isa.registers import int_reg
    from repro.sim.compiled import (
        StreamCompiler,
        _Template,
        _TemplateTable,
        _identity_key,
    )
    from repro.sim.trace import (
        ADDR_DATA,
        ADDR_FRAME_POP,
        ADDR_FRAME_PUSH,
        ADDR_LOCK,
        ADDR_SHADOW,
        NO_ADDRESS as NONE,
        TraceTokens,
    )

    # (µops, branch offset or -1, access size, address ops) per template.
    shapes = ((3, -1, 8, ((0, ADDR_LOCK, 9), (1, ADDR_DATA, 8),
                          (2, ADDR_SHADOW, 10))),
              (3, -1, 4, ((0, ADDR_LOCK, 1), (1, ADDR_SHADOW, 6),
                          (2, ADDR_DATA, 4))),
              (2, 1, 8, ()),
              (3, 1, 8, ((2, ADDR_FRAME_PUSH, 5),)),
              (3, 2, 8, ((0, ADDR_FRAME_POP, 5),)),
              (1, -1, 1, ()))
    insts = [Instruction(Opcode.NOP, dest=int_reg(r))
             for r in range(len(shapes))]
    table = _TemplateTable()
    for r, (n, branch, size, ops) in enumerate(shapes):
        t = _Template()
        t.words = array("q", [(8 * r + j + 1) << 9 | (128 if j == branch
                                                      else 0)
                              for j in range(n)])
        t.mis_words = None if branch < 0 else \
            array("q", [w | 256 if w & 128 else w for w in t.words])
        t.lats = array("q", [8 * r + j + 3 for j in range(n)])
        t.n = n
        t.addr_ops = ops
        t.size = size
        t.stat_delta = tuple(r + i for i in range(8))
        t.pointer_delta = (r, 2 * r)
        t.total_cost = n + r
        t.injected_cost = r
        table.add(_identity_key(insts[r]), t)
    rows = [(4, NONE, NONE, 0)] * 3 + [  # a RET before any CALL
        (0, 0x2000_1003, 0x6000_0008, 0), (0, NONE, 0x6000_0010, 0),
        (0, 0x2000_2000, NONE, 0), (1, 0x2000_30fe, 0x6000_0018, 0),
        (2, NONE, NONE, 1), (2, NONE, NONE, 0), (3, NONE, NONE, 1),
        (3, NONE, NONE, 0), (5, NONE, NONE, 0),
        (0, 0x6000_0000_0408, 0x6000_0020, 0), (4, NONE, NONE, 1),
        (1, NONE, NONE, 0)]
    tokens = TraceTokens(*(array("q", column) for column in zip(*rows)),
                         insts)
    for config in (WatchdogConfig.isa_assisted_uaf(),
                   WatchdogConfig.full_safety_fused(),
                   WatchdogConfig.disabled()):
        compilers = [StreamCompiler(config, lib=kernel)
                     for kernel in (lib, None)]
        for compiler in compilers:
            compiler._table = table
            compiler._frame_start = compiler._frame_floor + 8
        for window in (tokens, TraceTokens()):
            ker, ref = (c.compile_measured(window) for c in compilers)
            if not _same_streams(ker, ref):
                return False
            ker, ref = (c.compile_warm(window) for c in compilers)
            if not _same_streams(ker, ref):
                return False
    return True


def _self_test(lib):
    """All kernels must reproduce the Python loops before being trusted.

    Returns ``(ok, detail)`` — the failing stage's name lets the loader's
    refusal message say *which* kernel diverged.
    """
    for check, stage in ((_self_test_hier, "hier_batch/warm_fill"),
                         (_self_test_sched, "sched_run"),
                         (_self_test_ws, "ws_expand"),
                         (_self_test_compile, "compile_run")):
        if not check(lib):
            return False, stage
    return True, None


def load():
    """The compiled timing core, or ``None`` when unavailable (memoized)."""
    return build.load_kernel("timecore", _SOURCE, switch_env="REPRO_TIMECORE",
                             dir_env="REPRO_TIMECORE_DIR", bind=_bind,
                             self_test=_self_test)


def status():
    """Why the last :func:`load` decision went the way it did (or ``None``)."""
    return build.status("timecore")
