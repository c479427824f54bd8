"""Compiled µop streams: template-based trace expansion into packed arrays.

Every timing run expands its dynamic trace into µops through this module.
Rather than decoding, injecting and annotating a ``MicroOp`` object per µop
of every dynamic instance, it compiles in three steps:

1. **Tokens** (configuration-independent, once per trace): every dynamic
   op is reduced to the *identity* of its static instruction — opcode,
   register operands, access size, pointer hint — plus its dynamic
   annotations (effective address, lock location, misprediction flag).
   Identities are interned, so a trace becomes four parallel arrays
   (:class:`~repro.sim.trace.TraceTokens`).  The synthetic workloads emit
   this form directly; :func:`tokenize` builds it from ``DynamicOp`` s.

2. **Template expansion** (once per identity per configuration class): the
   real injector expands each unique identity once
   (:func:`repro.core.uop_injection.compile_template`); the expansion is
   lowered into packed per-µop words (kind/queue/branch flags, µop cost,
   register *slots* instead of ``ArchReg`` objects) plus address-derivation
   rules from :data:`repro.sim.trace.ANNOTATION_RULES`.

3. **Stream packing** (once per configuration class): replaying the token
   arrays through the template table yields one :class:`CompiledStream` —
   flat ``array("q")`` columns in the native kernel's wire format (packed
   µop words, a latency prefill, and the memory-access sequence the
   hierarchy replays in a single batch) — along with exact
   injection/pointer/page statistics reconstructed from per-template
   deltas.  Each template's µop words are packed once at build time
   (:func:`~repro.native._timecore.pack_entry_words`) and appended to its
   class's table, one append-only set of int64 columns per configuration
   class.  When the run's ``timecore`` decision resolves the
   timing kernel, its ``compile_run`` replays a window through those
   columns in one C pass; otherwise the Python loops here, its oracle,
   assemble the columns with ``array.extend``.  The packed word is the
   only µop form: the kernel consumes it with zero further marshalling,
   and the Python scheduler decodes it
   (:func:`~repro.native._timecore.unpack_words`).  Every template fits
   the word, because :class:`~repro.isa.registers.ArchReg` admits only its
   class's 16 registers.

Two Watchdog configurations that inject identically (same ``enabled``,
pointer-identification mode, bounds mode and copy-elimination setting) share
one compiled stream: the *class key* deliberately excludes knobs that only
affect timing (lock cache, idealized shadow).  The array scheduler that
consumes these streams lives in
:meth:`repro.pipeline.core.OutOfOrderCore.simulate_compiled`; the golden
tests pin its results bit for bit to digests recorded from the retired
object-per-µop reference model.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.native import _timecore
from repro.native._timecore import pack_entry_words

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdStats
from repro.core.uop_injection import InjectionStats, UopInjector, \
    compile_template
from repro.isa.instructions import Instruction, SINGLE_SOURCE_PROPAGATORS
from repro.isa.microops import MicroOp, UopKind, WATCHDOG_KINDS
from repro.isa.registers import reg_slot
from repro.memory.address_space import SHADOW_BIT, AddressSpaceLayout
from repro.memory.hierarchy import (
    PORT_CODES,
    PORT_SHADOW,
    SPEC_USE_LATENCY,
    SPEC_WRITE,
)
from repro.memory.pages import PageAccountant
from repro.memory.tlb import tlb_access
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import (
    FLAG_BRANCH,
    FLAG_LQ,
    FLAG_MISPREDICT,
    FLAG_SQ,
)
from repro.sim.trace import (
    ADDR_DATA,
    ADDR_FRAME_PUSH,
    ADDR_LOCK,
    ADDR_SHADOW,
    ANNOTATION_RULES,
    DynamicOp,
    HIERARCHY_LATENCY_KINDS,
    LQ_KINDS,
    NO_ADDRESS,
    SQ_KINDS,
    TraceTokens,
)

_M47 = 1 << 47

#: The warm-up access spec of a shadow line (a read on the shadow port).
SPEC_SHADOW_READ = PORT_SHADOW


def stream_class_key(config: WatchdogConfig) -> tuple:
    """The configuration-equivalence class of a compiled stream.

    Exactly the knobs that change which µops are injected and how they are
    annotated; lock-cache presence and idealized shadow only affect
    *timing* and therefore share streams.
    """
    return (config.enabled, config.pointer_identification,
            config.bounds_mode, config.copy_elimination)


# -- tokenization ---------------------------------------------------------------------

def _identity_key(inst: Instruction) -> tuple:
    """The template-relevant identity of an instruction, as a flat tuple.

    Covers every instruction field that can influence µop injection or
    timing annotation under the default (stateless) pointer identifiers:
    opcode, register operands, access size and pointer hint.  Immediates,
    labels and comments are deliberately excluded — they never reach the
    timing model.  :func:`tokenize` interns by it and the template tables
    key their rows on it.
    """
    dest = inst.dest
    return (inst.opcode.code,
            -1 if dest is None else reg_slot(dest),
            tuple(reg_slot(reg) for reg in inst.srcs),
            int(inst.size),
            inst.pointer_hint.code)


def tokenize(trace: Iterable[DynamicOp]) -> TraceTokens:
    """Intern a :class:`DynamicOp` trace into :class:`TraceTokens` columns.

    The synthetic workloads emit tokens directly; this serves every other
    source — functional-machine traces, :meth:`Simulator.run_trace` input —
    and the workloads' pure-Python emitter.

    Instructions with equal :func:`_identity_key` s share one identity,
    numbered in first-seen order.  The synthetic workload generator interns
    :class:`Instruction` objects per shape, so most dynamic ops repeat a
    handful of object identities; those resolve through an ``id()``-keyed
    memo (the ``keepalive`` list pins the memoized objects, so an id can
    never be recycled mid-call) and only the first occurrence of each
    object pays for the structural key.
    """
    key_to_tid = {}
    id_to_tid = {}
    keepalive: List[Instruction] = []
    insts: List[Instruction] = []
    tids: List[int] = []
    addrs: List[int] = []
    locks: List[int] = []
    mis: List[bool] = []
    get = key_to_tid.get
    id_get = id_to_tid.get
    keep = keepalive.append
    append_tid = tids.append
    append_addr = addrs.append
    append_lock = locks.append
    append_mis = mis.append

    for dop in trace:
        inst = dop.instruction
        tid = id_get(id(inst))
        if tid is None:
            key = _identity_key(inst)
            tid = get(key)
            if tid is None:
                tid = key_to_tid[key] = len(insts)
                insts.append(inst)
            id_to_tid[id(inst)] = tid
            keep(inst)
        append_tid(tid)
        address = dop.address
        append_addr(NO_ADDRESS if address is None else address)
        lock = dop.lock_address
        append_lock(NO_ADDRESS if lock is None else lock)
        append_mis(dop.mispredicted)
    return TraceTokens(array("q", tids), array("q", addrs), array("q", locks),
                       array("q", mis), insts)


# -- compiled artifacts ----------------------------------------------------------------

@dataclass(eq=False)
class CompiledStream:
    """One trace × configuration-class, packed for the array scheduler.

    The µop column is carried in the native kernel's wire format: one
    packed int64 word per µop (flags | cost << 9 | six 6-bit register-slot
    fields — the layout documented at ``sched_run`` in
    :mod:`repro.native._timecore`), which both schedulers read.
    """

    #: Packed µop words, one per µop.
    words: array
    #: Per-µop execution latency prefill (fixed latencies; load positions are
    #: overwritten from the hierarchy batch during simulation).  Callers
    #: copy before mutating — this is the stream's own arena.
    lat_template: array
    #: Packed memory-access sequence in program order.
    mem_pos: array
    mem_addr: array
    mem_spec: array
    # -- exact whole-stream statistics -------------------------------------------
    total_uops: int
    injected_uops: int
    macro_instructions: int
    memory_accesses: int
    injection: InjectionStats
    pointer: PointerIdStats
    pages: PageAccountant

    def __len__(self) -> int:
        return len(self.words)


@dataclass(eq=False)
class WarmStream:
    """The warm-up portion as a bare hierarchy access sequence.

    Contains, interleaved in program order, every address-carrying µop of the
    expanded warm-up trace plus (for metadata-maintaining classes) the shadow
    lines of each data access (see :meth:`StreamCompiler.compile_warm`).
    Both columns are int64 arrays, so the native warm replay consumes them
    without conversion.
    """

    addrs: array
    specs: array

    def __len__(self) -> int:
        return len(self.addrs)


@dataclass(eq=False)
class WorkingSetArrays:
    """One configuration class's view of a working-set snapshot.

    Built by :func:`working_set_arrays`: the snapshot's own ``ranges`` and
    ``locks`` columns (``locks`` empty for classes that maintain no
    metadata) and the class's ``metadata_words`` (0 then).  The timing
    kernel's install reads the ranges as they are; the Python install
    expands them per run, by :meth:`columns`.
    """

    ranges: array
    locks: array
    metadata_words: int

    def columns(self):
        """``(data, shadow)`` install columns (``array("q")``).

        ``data`` lists the 64-byte lines of the ranges in order; each data
        line owns ``metadata_words`` (mw) shadow lines, exactly as the timed
        shadow µops would touch them: line ``line`` owns the shadow lines
        of ``line + i·64/mw`` for i < mw, and because ``(line + i·64/mw)·mw
        = line·mw + 64·i`` a range of n lines from ``first`` maps to the
        contiguous shadow run ``SHADOW_BIT + first·mw + 64·k``, k < n·mw.
        (The segments of the address space lie far below 2**47 / mw, so the
        shadow mapping's ``% 2**47`` never wraps here.)  One
        ``array.extend(range(...))`` per range and column.
        """
        mw = self.metadata_words
        ranges = self.ranges
        data = array("q")
        shadow = array("q")
        for i in range(0, len(ranges), 2):
            start = ranges[i]
            lines = range(start, ranges[i + 1], 64)
            data.extend(lines)
            if mw:
                first = SHADOW_BIT + start * mw
                shadow.extend(range(first, first + 64 * mw * len(lines), 64))
        return data, shadow


@dataclass(eq=False)
class BundleStreams:
    """Everything one (bundle × configuration-class) replay needs."""

    measured: CompiledStream
    warm: Optional[WarmStream]
    working_set: WorkingSetArrays


class _Template:
    """Numeric expansion of one instruction identity under one class.

    Carries the packed kernel words of its µops (``words``, and
    ``mis_words`` with the misprediction flag on its branches, ``None``
    without a branch).  Stream assembly extends flat arrays from the words,
    so the packing cost is paid once per identity, not once per dynamic
    instance.
    """

    __slots__ = ("words", "mis_words", "lats", "n", "addr_ops", "size",
                 "stat_delta", "pointer_delta", "total_cost", "injected_cost")


class _TemplateTable:
    """One configuration class's templates, append-only.

    Row ``r`` is ``templates[r]``, and the same template in the int64
    columns the kernel's ``compile_run`` reads: ``meta`` holds 17 slots per
    row (its offsets and counts in ``words``/``mis_words``/``lats`` and in
    the ``aops`` triples, its access size and statistics deltas; layout at
    ``compile_run`` in the C source).  Rows never change, so a window
    builds only its tid → row map.
    """

    __slots__ = ("index", "id_rows", "pins", "templates", "meta", "words",
                 "mis_words", "lats", "aops")

    def __init__(self):
        #: :func:`_identity_key` -> row.
        self.index: Dict[tuple, int] = {}
        #: Rows memoized per interned-instruction object, keyed by id():
        #: the generator interns one Instruction per static shape, so every
        #: window, sample and bundle compiled against this table resolves
        #: the same few hundred objects, and only an object's first window
        #: pays for its identity key.  ``pins`` keeps every memoized
        #: instruction alive so an id is never recycled.
        self.id_rows: Dict[int, int] = {}
        self.pins: List[Instruction] = []
        self.templates: List[_Template] = []
        self.meta = array("q")
        self.words = array("q")
        self.mis_words = array("q")
        self.lats = array("q")
        self.aops = array("q")

    def add(self, key: tuple, t: _Template) -> int:
        """Append ``t`` as the row of identity ``key``; returns the row."""
        row = self.index[key] = len(self.templates)
        self.templates.append(t)
        self.meta.extend((len(self.words), t.n, len(self.aops) // 3,
                          len(t.addr_ops), t.size, t.total_cost,
                          t.injected_cost, *t.stat_delta, *t.pointer_delta))
        self.words.extend(t.words)
        self.mis_words.extend(t.words if t.mis_words is None
                              else t.mis_words)
        self.lats.extend(t.lats)
        for op in t.addr_ops:
            self.aops.extend(op)
        return row


# -- the compiler ----------------------------------------------------------------------

#: Cross-bundle template tables: one per configuration class.  The tables
#: share the built templates and their id() memo across samples, bundles and
#: sweeps.  The limit is a backstop for unbounded sweeps and for
#: traces that build their own Instruction objects (program traces): a
#: compiler starting a window on a table whose rows or pinned instructions
#: reach it installs a fresh one, and compilers still holding the old table
#: keep valid rows.
_TEMPLATE_CACHE: Dict[tuple, _TemplateTable] = {}
_TEMPLATE_CACHE_LIMIT = 1 << 16

#: The Table 2 machine, whose execution latencies every template carries.
_MACHINE = MachineConfig()


class StreamCompiler:
    """Compiles tokenized traces for one configuration class on the
    Table 2 machine.

    ``lib`` is the run's timing kernel (:func:`repro.native._timecore.load`)
    or ``None``: :meth:`compile_measured` and :meth:`compile_warm` run the
    kernel's ``compile_run`` with it and their Python loops, the kernel's
    oracle, without.
    """

    def __init__(self, config: WatchdogConfig, lib=None):
        self.config = config
        self._lib = lib
        #: The template expansions run through a real injector so the
        #: statistics deltas (injection counts, pointer classification,
        #: copy-elimination ablation) are captured by construction.
        self.injector = UopInjector(config)
        layout = AddressSpaceLayout()
        self._frame_floor = layout.lock_region.base
        self._frame_start = self._frame_floor + layout.lock_region.size // 2
        self._mw = config.metadata_words
        self._shadow_step = 64 // self._mw
        self._cache_key = stream_class_key(config)
        table = _TEMPLATE_CACHE.get(self._cache_key)
        if table is None:
            table = _TEMPLATE_CACHE[self._cache_key] = _TemplateTable()
        self._table = table

    # -- template lowering ---------------------------------------------------------
    def _full_expand(self, inst: Instruction) -> List[MicroOp]:
        """The injector's expansion plus the copy-elimination ablation.

        Without rename-time copy elimination (§6.2), a single-source
        propagation into an integer register costs an explicit
        metadata-copy µop, counted as "other".
        """
        uops = self.injector.expand(inst)
        config = self.config
        if config.enabled and not config.copy_elimination \
                and inst.opcode in SINGLE_SOURCE_PROPAGATORS \
                and inst.dest is not None and inst.dest.is_int:
            self.injector.stats.other_uops += 1
            uops = uops + [MicroOp(kind=UopKind.META_SELECT,
                                   meta_dest=inst.dest, meta_srcs=inst.srcs)]
        return uops

    def _window_rows(self, insts: List[Instruction]) -> List[int]:
        """Each window identity's row in the compiler's table (tid → row),
        building the templates it lacks."""
        table = self._table
        if len(table.templates) >= _TEMPLATE_CACHE_LIMIT \
                or len(table.pins) >= _TEMPLATE_CACHE_LIMIT:
            table = self._table = _TEMPLATE_CACHE[self._cache_key] = \
                _TemplateTable()
        memo = table.id_rows
        rows = []
        for inst in insts:
            row = memo.get(id(inst))
            if row is None:
                key = _identity_key(inst)
                row = table.index.get(key)
                if row is None:
                    row = table.add(key, self._build_template(inst))
                memo[id(inst)] = row
                table.pins.append(inst)
            rows.append(row)
        return rows

    def _build_template(self, inst: Instruction) -> _Template:
        compiled = compile_template(self.injector, inst, self._full_expand)
        t = _Template()
        entries = []
        lats = []
        addr_ops = []
        injected_cost = 0
        has_branch = False
        for off, uop in enumerate(compiled.uops):
            kind = uop.kind
            flags = kind.code
            if kind in LQ_KINDS:
                flags |= FLAG_LQ
            elif kind in SQ_KINDS:
                flags |= FLAG_SQ
            elif kind is UopKind.BRANCH:
                flags |= FLAG_BRANCH
                has_branch = True
            if uop.is_injected:
                injected_cost += uop.uop_cost
            dest = -1
            if uop.dest is not None and kind not in WATCHDOG_KINDS:
                dest = reg_slot(uop.dest)
            srcs = uop.srcs
            meta_srcs = uop.meta_srcs
            s0 = reg_slot(srcs[0]) if srcs else -1
            s1 = reg_slot(srcs[1]) if len(srcs) == 2 else -1
            md = reg_slot(uop.meta_dest) if uop.meta_dest is not None else -1
            ms0 = reg_slot(meta_srcs[0]) if meta_srcs else -1
            ms1 = reg_slot(meta_srcs[1]) if len(meta_srcs) == 2 else -1
            entries.append((flags, uop.uop_cost, dest, s0, s1, md, ms0, ms1))
            lats.append(_MACHINE.latency_for(kind))
            rule = ANNOTATION_RULES.get(kind)
            if rule is not None:
                addr_rule, port, is_write = rule
                spec = PORT_CODES[port]
                if is_write:
                    spec |= SPEC_WRITE
                if kind in HIERARCHY_LATENCY_KINDS:
                    spec |= SPEC_USE_LATENCY
                addr_ops.append((off, addr_rule, spec))
        t.words = pack_entry_words(entries)
        t.mis_words = None
        if has_branch:
            t.mis_words = pack_entry_words(
                (entry[0] | FLAG_MISPREDICT,) + entry[1:]
                if entry[0] & FLAG_BRANCH else entry
                for entry in entries)
        t.lats = array("q", lats)
        t.n = len(entries)
        t.addr_ops = tuple(addr_ops)
        t.size = int(inst.size)
        t.stat_delta = compiled.stat_delta
        t.pointer_delta = compiled.pointer_delta
        t.total_cost = compiled.total_cost
        t.injected_cost = injected_cost
        return t

    def _kernel_cfg(self, warm: bool) -> array:
        """``compile_run``'s config block (layout in the C source)."""
        return array("q", (int(warm), self._mw, int(self.config.enabled),
                           self._frame_start, self._frame_floor,
                           SPEC_SHADOW_READ))

    # -- measured stream ----------------------------------------------------------
    def compile_measured(self, tokens: TraceTokens) -> CompiledStream:
        """Pack the measured stream plus its exact statistics.

        Emits the kernel's wire format directly: each template's µop words
        are packed once at build time.  With a kernel, ``compile_run``
        writes every column in one pass; otherwise :meth:`_measured_python`
        assembles them with ``array("q").extend``.
        """
        rows = self._window_rows(tokens.insts)
        pages = PageAccountant()
        if self._lib is not None:
            (words, lats, mem_pos, mem_addr, mem_spec, data, shadow,
             totals) = _timecore.compile_tokens(
                 self._lib, self._kernel_cfg(False), self._table, rows,
                 tokens)
            pages.data_words.update(data)
            pages.shadow_words.update(shadow)
        else:
            (words, lats, mem_pos, mem_addr, mem_spec,
             totals) = self._measured_python(rows, tokens, pages)
        return CompiledStream(
            words=words,
            lat_template=lats,
            mem_pos=mem_pos,
            mem_addr=mem_addr,
            mem_spec=mem_spec,
            total_uops=totals[0],
            injected_uops=totals[1],
            macro_instructions=len(tokens.tids),
            memory_accesses=len(mem_pos),
            injection=InjectionStats(*totals[2:10]),
            pointer=PointerIdStats(memory_ops=totals[10],
                                   pointer_ops=totals[11]),
            pages=pages,
        )

    def _measured_python(self, rows: List[int], tokens: TraceTokens,
                         pages: PageAccountant) -> tuple:
        """The measured columns, filling ``pages``, and the 12 statistics
        totals (``compile_run``'s layout), in Python."""
        templates = [self._table.templates[row] for row in rows]
        words = array("q")
        main = [t.words for t in templates]
        mis = [t.words if t.mis_words is None else t.mis_words
               for t in templates]
        lats_by_tid = [t.lats for t in templates]
        ops_by_tid = [t.addr_ops for t in templates]
        size_by_tid = [t.size for t in templates]
        n_by_tid = [t.n for t in templates]
        lats = array("q")
        mem_pos = array("q")
        mem_addr = array("q")
        mem_spec = array("q")
        extend_words = words.extend
        extend_lats = lats.extend
        add_pos = mem_pos.append
        add_addr = mem_addr.append
        add_spec = mem_spec.append
        data_words = pages.data_words
        shadow_words = pages.shadow_words
        mw = self._mw
        mw8 = mw * 8
        frame_lock = self._frame_start
        frame_floor = self._frame_floor
        none = NO_ADDRESS
        base = 0

        for tid, address, lock, mispredicted in zip(
                tokens.tids, tokens.addrs, tokens.locks, tokens.mis):
            extend_words(mis[tid] if mispredicted else main[tid])
            extend_lats(lats_by_tid[tid])
            addr_ops = ops_by_tid[tid]
            if addr_ops:
                for off, rule, spec in addr_ops:
                    if rule == ADDR_DATA:
                        if address != none:
                            add_pos(base + off)
                            add_addr(address)
                            add_spec(spec)
                            word = address & ~7
                            end = address + size_by_tid[tid]
                            while word < end:
                                data_words.add(word)
                                word += 8
                    elif rule == ADDR_SHADOW:
                        if address != none:
                            shadow = SHADOW_BIT | ((address & ~7) * mw) % _M47
                            add_pos(base + off)
                            add_addr(shadow)
                            add_spec(spec)
                            word = shadow
                            end = shadow + mw8
                            while word < end:
                                shadow_words.add(word)
                                word += 8
                    elif rule == ADDR_LOCK:
                        if lock != none:
                            add_pos(base + off)
                            add_addr(lock)
                            add_spec(spec)
                    elif rule == ADDR_FRAME_PUSH:
                        frame_lock += 8
                        add_pos(base + off)
                        add_addr(frame_lock)
                        add_spec(spec)
                    else:  # ADDR_FRAME_POP
                        add_pos(base + off)
                        add_addr(frame_lock)
                        add_spec(spec)
                        frame_lock -= 8
                        if frame_lock < frame_floor:
                            frame_lock = frame_floor
            base += n_by_tid[tid]

        # -- exact totals from per-template deltas -------------------------------
        totals = [0] * 12
        for tid, count in Counter(tokens.tids).items():
            template = templates[tid]
            for i, delta in enumerate((template.total_cost,
                                       template.injected_cost,
                                       *template.stat_delta,
                                       *template.pointer_delta)):
                totals[i] += count * delta
        return words, lats, mem_pos, mem_addr, mem_spec, totals

    # -- warm-up stream ------------------------------------------------------------
    def compile_warm(self, tokens: TraceTokens) -> WarmStream:
        """Lower the warm-up trace to its bare hierarchy access sequence.

        Each address-carrying µop becomes one access.  For
        metadata-maintaining classes every data access is followed by its
        ``metadata_words`` shadow lines: during the paper's long warm-up
        windows the metadata working set is fully resident, and short
        synthetic traces would otherwise charge the measured window with
        artificial first-touch misses.  (The ideal-shadow ablation filters
        all shadow accesses at replay.)  Emits int64 arrays directly, so the
        native warm replay (:func:`repro.native._timecore.run_batch`) skips
        its conversion; with a kernel, ``compile_run`` writes them.
        """
        rows = self._window_rows(tokens.insts)
        if self._lib is not None:
            addrs, specs = _timecore.compile_tokens(
                self._lib, self._kernel_cfg(True), self._table, rows, tokens)
            return WarmStream(addrs=addrs, specs=specs)
        templates = self._table.templates
        ops_by_tid = [templates[row].addr_ops for row in rows]
        addrs = array("q")
        specs = array("q")
        add_addr = addrs.append
        add_spec = specs.append
        mw = self._mw
        step = self._shadow_step
        warm_shadow = self.config.enabled
        frame_lock = self._frame_start
        frame_floor = self._frame_floor
        none = NO_ADDRESS

        for tid, address, lock in zip(tokens.tids, tokens.addrs, tokens.locks):
            for off, rule, spec in ops_by_tid[tid]:
                if rule == ADDR_DATA:
                    if address != none:
                        add_addr(address)
                        add_spec(spec)
                        if warm_shadow:
                            line = address & ~63
                            for i in range(mw):
                                data = line + i * step
                                add_addr(SHADOW_BIT | ((data & ~7) * mw) % _M47)
                                add_spec(SPEC_SHADOW_READ)
                elif rule == ADDR_SHADOW:
                    if address != none:
                        add_addr(SHADOW_BIT | ((address & ~7) * mw) % _M47)
                        add_spec(spec)
                elif rule == ADDR_LOCK:
                    if lock != none:
                        add_addr(lock)
                        add_spec(spec)
                elif rule == ADDR_FRAME_PUSH:
                    frame_lock += 8
                    add_addr(frame_lock)
                    add_spec(spec)
                else:  # ADDR_FRAME_POP
                    add_addr(frame_lock)
                    add_spec(spec)
                    frame_lock -= 8
                    if frame_lock < frame_floor:
                        frame_lock = frame_floor
        return WarmStream(addrs=addrs, specs=specs)

    # -- working set ---------------------------------------------------------------
    def working_set_arrays(self, working_set) -> WorkingSetArrays:
        """A working-set snapshot as seen by this class."""
        return working_set_arrays(working_set, self.config)


def working_set_arrays(working_set, config: WatchdogConfig) -> WorkingSetArrays:
    """A :class:`~repro.workloads.bundle.WorkingSetSnapshot` as seen by the
    class of ``config``: metadata-maintaining classes get the snapshot's
    lock column and ``metadata_words`` shadow lines per data line.

    Nothing is expanded here: :func:`warm_working_set` installs the ranges
    with the run's own kernel decision, so a ``Simulator(timecore=False)``
    run never enters the kernel, and the bundle's stream cache pins two
    ints per object rather than the columns.
    """
    if not config.enabled:
        return WorkingSetArrays(ranges=working_set.ranges, locks=array("q"),
                                metadata_words=0)
    return WorkingSetArrays(ranges=working_set.ranges,
                            locks=working_set.locks,
                            metadata_words=config.metadata_words)


# -- working-set installation ----------------------------------------------------------
#
# The working-set pre-touch stands in for the paper's long (10M-instruction)
# warm-up windows, whose only observable effect at the measured window is the
# steady-state *residency* of the working set: data resident in the upper
# levels, metadata behind it, everything tracked by the shared L3.  Rather
# than replaying hundreds of thousands of demand accesses through the full
# miss/prefetch machinery (which dominated sweep wall-clock time), the warm
# state is installed directly: every warmed block enters the inclusive L3,
# and each bounded structure (L1D, L2, the lock location cache, the TLBs)
# receives the most-recent fill its capacity can hold, in access order, so
# LRU order matches a sequential touch.
#
# The Python install (:func:`_install_python`) is the definition: it expands
# the snapshot into columns and fills each cache in order, the oldest
# addresses first.  The timing kernel's ``ws_install``
# (:func:`repro.native._timecore.install_working_set`) reads the ranges and
# locks as they are and leaves the same state.  On an empty level it walks
# the sequence newest first, keeps each set's first ``associativity``
# distinct blocks and stops when the level's tail limit is consumed or every
# set is full, so most of a large snapshot's lines are never visited.  A
# level that already holds lines (a mix's shared levels, for every core
# after the first) takes the forward fill over the same tail, because a
# re-touched line keeps its dirty bit only if it was never evicted.

def _install_tail(cache, pieces, limit: Optional[int]) -> None:
    """Install the last ``limit`` addresses of ``pieces`` (concatenated, in
    order) into ``cache`` through :meth:`Cache.fill`; ``None`` installs
    everything."""
    if limit is not None:
        tail = []
        remaining = limit
        for piece in reversed(pieces):
            if remaining <= 0:
                break
            if len(piece) > remaining:
                piece = piece[len(piece) - remaining:]
            tail.append(piece)
            remaining -= len(piece)
        pieces = tuple(reversed(tail))
    addrs = array("q")
    for piece in pieces:
        addrs.extend(piece)
    cache.fill(addrs)


def _fill_tlb(tlb, pieces) -> None:
    """Leave ``tlb`` holding the last distinct pages of ``pieces`` in LRU order."""
    capacity = tlb.config.entries
    page_bytes = tlb.config.page_bytes
    seen = set()
    newest_first: List[int] = []
    add = newest_first.append
    for piece in reversed(pieces):
        for i in range(len(piece) - 1, -1, -1):
            page = piece[i] // page_bytes
            if page not in seen:
                seen.add(page)
                add(page)
                if len(newest_first) >= capacity:
                    break
        else:
            continue
        break
    slots = tlb.slots
    for page in reversed(newest_first):
        tlb_access(slots, page + 1)


def _install_python(hierarchy, ws: WorkingSetArrays,
                    config: WatchdogConfig) -> None:
    """The Python install, the kernel's oracle (see the comment above).

    Access order mirrors the §9.1-style pre-touch: shadow lines first (when
    metadata is maintained and not idealized), then lock locations, then
    data lines — so data ends up most-recently-used in every level.
    """
    data, shadow = ws.columns()
    if config.ideal_shadow:
        shadow = ()
    locks = ws.locks
    lock_en = hierarchy.config.lock_cache_enabled
    if lock_en and locks:
        l1_pieces = (shadow, data)
        lock_pieces = (locks,)
    else:
        l1_pieces = (shadow, locks, data)
        lock_pieces = ()
    all_pieces = (shadow, locks, data)

    l1 = hierarchy.l1d
    l2 = hierarchy.l2
    _install_tail(l1, l1_pieces, l1._num_sets * l1._assoc)
    _install_tail(l2, all_pieces, l2._num_sets * l2._assoc)
    _install_tail(hierarchy.l3, all_pieces, None)
    _fill_tlb(hierarchy.dtlb, l1_pieces)
    if lock_pieces:
        lock_cache = hierarchy.lock_cache
        _install_tail(lock_cache, lock_pieces,
                      lock_cache._num_sets * lock_cache._assoc)
        _fill_tlb(hierarchy.lock_tlb, lock_pieces)


def warm_working_set(hierarchy, ws: WorkingSetArrays,
                     config: WatchdogConfig) -> None:
    """Install the working set into ``hierarchy`` (see the comment above),
    through the timing kernel when the hierarchy's run uses it, and reset
    every statistic."""
    lib = _timecore.load() if hierarchy.timecore else None
    if lib is not None:
        _timecore.install_working_set(lib, hierarchy, ws, config.ideal_shadow)
    else:
        _install_python(hierarchy, ws, config)
    hierarchy.reset_stats()


def warm_trace(hierarchy, warm: WarmStream, config: WatchdogConfig) -> None:
    """Replay the warm-up trace accesses (:meth:`StreamCompiler.compile_warm`).

    Unlike the working-set pre-touch, the warm-up *trace* is part of the
    simulated methodology and replays through the full demand machinery
    (misses, prefetchers, TLBs) — only its statistics are discarded.
    """
    hierarchy.warm_batch(warm.addrs, warm.specs)
    hierarchy.reset_stats()
