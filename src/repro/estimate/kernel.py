"""Batched candidate evaluation over a compiled graph.

:class:`BatchKernel` scores a *batch* of candidate partitions against
one :class:`~repro.estimate.compile.CompiledGraph` as flat array
sweeps: compile once, evaluate many.  The results are **bit-identical**
to the memoized reference estimators — the compiler preserves the exact
summation orders of Eq. 1 (channel insertion order, concurrency-tag
grouping), Eqs. 4–5 (assignment insertion order per component) and
Eq. 3 (channel-mapping insertion order per bus), and every arithmetic
step repeats the reference expression shape — so exploration fronts and
served estimates do not change by a single bit when the kernel path is
active.

The division of labour with :mod:`repro.estimate.exectime` and friends:

* the kernel handles the **common fast path** — complete, well-annotated
  candidates on an acyclic graph;
* anything else (a call cycle, a missing weight, an unmapped object the
  sweep actually reaches) is *unsupported*: the kernel returns ``None``
  for that candidate and the caller re-evaluates it on the reference
  estimators, which either succeed or raise the precise, user-facing
  error.  The reference path therefore remains the oracle — the kernel
  can only ever agree with it or abstain.

Backends
--------

The default backend is pure stdlib (lists + int indexing).  Setting the
environment variable ``SLIF_KERNEL=numpy`` switches the design-point
sweep to a numpy backend that vectorises *across the batch* (one array
op per channel slot instead of one Python iteration per candidate)
while keeping the per-candidate operation order — elementwise IEEE-754
double ops match scalar Python floats exactly, so results stay
bit-identical.  ``SLIF_KERNEL=off`` disables the kernel entirely (every
caller keeps the reference path); ``SLIF_KERNEL=stdlib`` forces the
stdlib backend.  Asking for numpy without numpy installed degrades to
stdlib.

Example — compile once, evaluate a batch, cross-check the oracle:

>>> from repro.api import build_system
>>> from repro.estimate.kernel import BatchKernel
>>> from repro.partition.pareto import evaluate_design_point
>>> system = build_system("fuzzy")
>>> kernel = BatchKernel.for_graph(system.slif)
>>> [point] = kernel.evaluate([(system.partition, "all-sw")], ["HW"])
>>> point == evaluate_design_point(
...     system.slif, system.partition, ["HW"], "all-sw")
True

Counters (when :mod:`repro.obs` is enabled): ``kernel.compiles``,
``kernel.batches``, ``kernel.candidates``, ``kernel.unsupported``.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.compile import CompiledGraph, KernelUnavailable, compile_graph
from repro.obs import OBS

__all__ = [
    "BatchKernel",
    "KernelUnavailable",
    "compile_graph",
    "kernel_backend",
]

_ENV_FLAG = "SLIF_KERNEL"


def kernel_backend() -> Optional[str]:
    """The configured kernel backend: ``"stdlib"``, ``"numpy"`` or ``None``.

    ``None`` means the kernel is disabled (``SLIF_KERNEL=off``) and
    every caller should stay on the reference estimators.
    """
    value = os.environ.get(_ENV_FLAG, "").strip().lower()
    if value in ("off", "0", "none", "reference"):
        return None
    if value == "numpy":
        try:
            import numpy  # noqa: F401
        except ImportError:
            return "stdlib"
        return "numpy"
    return "stdlib"


class _Unsupported(Exception):
    """Internal: this candidate needs the reference path.  Never escapes."""


class BatchKernel:
    """Evaluate batches of candidate partitions against one compiled graph.

    Construct through :meth:`for_graph` (which compiles and honours
    ``SLIF_KERNEL``); instances are cheap to keep and safe to reuse for
    any number of batches, but hold no partition state — every candidate
    is converted fresh from its :class:`~repro.core.partition.Partition`.

    Thread safety: evaluation only reads the compiled arrays, so one
    kernel may serve concurrent callers as long as the underlying graph
    is not mutated mid-call (the contract the reference estimators have
    too).
    """

    def __init__(self, compiled: CompiledGraph, backend: str = "stdlib") -> None:
        self.cg = compiled
        self.backend = backend
        # Exploration candidates share almost all their structure: the
        # object-mapping keys are the node names in graph order, the
        # channel mapping is one of very few distinct vectors, and the
        # sorted mapping tuple always uses the same key permutation.
        # Precompute what is candidate-invariant so the per-candidate
        # work is a handful of C-level passes (see _fast_convert).
        names = compiled.node_names
        self._n_nodes = compiled.n_nodes
        self._node_names = names
        perm = sorted(range(len(names)), key=names.__getitem__)
        self._sorted_keys = tuple(names[j] for j in perm)
        if len(perm) > 1:
            self._perm_values = itemgetter(*perm)
        elif perm:
            self._perm_values = lambda vals: (vals[0],)
        else:
            self._perm_values = lambda vals: ()
        flat_sizes = [w for row in compiled.size for w in row]
        #: every (node, comp) size annotated — no per-pair None checks
        #: needed, the kernel can never abstain on a size lookup
        self._size_complete = all(w is not None for w in flat_sizes)
        self._size_cols = [
            [row[c] for row in compiled.size]
            for c in range(compiled.n_comps)
        ]
        #: every size weight is a float and none is -0.0, so a sweep
        #: that adds +0.0 for non-matching nodes and the weight for
        #: matching ones — in node order — produces bit-identical
        #: partial sums (x + 0.0 == x for every float except -0.0);
        #: int weights are excluded because the reference sum stays int
        self._size_vec_ok = self._size_complete and all(
            type(w) is float and not (w == 0.0 and math.copysign(1.0, w) < 0)
            for w in flat_sizes
        )
        #: any missing ict weight at all? when False the batched sweep
        #: skips its per-node NaN abstention mask entirely
        self._ict_has_none = any(
            w is None for row in compiled.ict for w in row
        )
        self._bus_cache: Dict[Any, Any] = {}
        self._bus_memo: Optional[Tuple[Dict[str, str], Any]] = None
        self._hw_cache: Dict[Tuple[str, ...], List[Optional[int]]] = {}
        #: component vectors pack into ``bytes`` (C-level batch joins,
        #: zero-copy numpy views) whenever indices fit a byte
        self._bytes_comp = compiled.n_comps < 256
        if backend == "numpy":
            import numpy

            self._np = numpy
            nan = float("nan")
            width = max(compiled.n_comps, 1)
            self._ict_np = numpy.array(
                [
                    [nan if w is None else w for w in row] + [nan] * (width - len(row))
                    for row in compiled.ict
                ],
                dtype=numpy.float64,
            ).reshape(max(compiled.n_nodes, 1), width)
            self._tt_np = [
                numpy.array(matrix, dtype=numpy.float64)
                for matrix in compiled.tt
            ]
            if self._size_vec_ok and compiled.n_nodes and compiled.n_comps:
                self._size_np = numpy.array(
                    compiled.size, dtype=numpy.float64
                )
            else:
                self._size_np = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def for_graph(cls, slif: Slif, backend: Optional[str] = None) -> "BatchKernel":
        """Compile ``slif`` and wrap it in a kernel.

        Raises :class:`KernelUnavailable` when the graph cannot be
        compiled (call cycle) or the kernel is disabled via
        ``SLIF_KERNEL=off`` — in both cases the caller keeps the
        reference estimators.
        """
        if backend is None:
            backend = kernel_backend()
        if backend is None:
            raise KernelUnavailable(f"kernel disabled via {_ENV_FLAG}")
        kernel = cls(compile_graph(slif), backend)
        if OBS.enabled:
            OBS.inc("kernel.compiles")
        return kernel

    # ------------------------------------------------------------------
    # candidate conversion

    def _convert(
        self, partition: Partition, channels: bool = False
    ) -> Tuple[
        List[Tuple[int, int]],
        List[int],
        List[int],
        List[Tuple[int, int]],
    ]:
        """Partition → (assignment pairs, comp-of-node, bus-of-slot, chan pairs).

        ``pairs`` preserves the partition's assignment insertion order —
        the order Eqs. 4–5 sum sizes in.  ``chan_pairs`` (only built
        when ``channels`` is set) preserves the channel-mapping
        insertion order Eq. 3 sums bitrates in.
        """
        cg = self.cg
        node_index = cg.node_index
        comp_index = cg.comp_index
        pairs: List[Tuple[int, int]] = []
        comp_of = [-1] * cg.n_nodes
        for obj, comp in partition.object_mapping().items():
            ni = node_index.get(obj)
            ci = comp_index.get(comp)
            if ni is None or ci is None:
                raise _Unsupported
            pairs.append((ni, ci))
            comp_of[ni] = ci
        slot_of = cg.slot_of_channel
        bus_index = cg.bus_index
        bus_of = [-1] * cg.n_slots
        chan_pairs: List[Tuple[int, int]] = []
        for chan, bus in partition.channel_mapping().items():
            slot = slot_of.get(chan)
            bi = bus_index.get(bus)
            if slot is None or bi is None:
                raise _Unsupported
            bus_of[slot] = bi
            if channels:
                chan_pairs.append((slot, bi))
        return pairs, comp_of, bus_of, chan_pairs

    def _fast_convert(self, partition: Partition):
        """Identity-order conversion: ``(values, comp-of-node, bus entry)``.

        Exploration candidates assign objects in graph insertion order,
        so their mapping keys *are* ``node_names`` — the component
        vector is then a single C-level ``map`` over the mapping values
        and doubles as both the assignment pairs (Eqs. 4–5 order) and
        ``comp_of``.  Returns ``False`` when the candidate does not have
        that shape (the generic :meth:`_convert` path handles it) and
        ``None`` when it is unsupported (unknown component or bus — the
        reference path owns the error).

        Reads the partition's internal dicts directly (no
        ``object_mapping()`` copies): this is a read-only peek under the
        same no-mutation-mid-call contract the estimators already have.
        """
        bv = partition._bv_comp
        if len(bv) != self._n_nodes or list(bv) != self._node_names:
            return False
        values = list(bv.values())
        try:
            if self._bytes_comp:
                # bytes index like a list of ints but batch-concatenate
                # at C speed for the numpy component matrix
                comp_of: Any = bytes(map(self.cg.comp_index.__getitem__, values))
            else:
                comp_of = list(map(self.cg.comp_index.__getitem__, values))
        except KeyError:
            return None
        bus_entry = self._bus_vector(partition._chan_bus)
        if bus_entry is None:
            return None
        return values, comp_of, bus_entry

    def _bus_vector(self, chan_bus: Dict[str, str]):
        """Channel→bus dict to a per-slot bus vector, cached.

        Exploration sweeps reuse a handful of channel mappings across
        thousands of candidates, so the converted vector is cached by
        the mapping's (keys, values) tuples.  Returns ``(bus_of,
        bus_key)`` — the list the sweep indexes and a hashable form the
        numpy backend groups batches by — or ``None`` when a channel or
        bus is unknown (unsupported; cached too).
        """
        memo = self._bus_memo
        if memo is not None and memo[0] == chan_bus:
            return memo[1]
        cache_key = (tuple(chan_bus), tuple(chan_bus.values()))
        hit = self._bus_cache.get(cache_key)
        if hit is not None:
            if hit is False:
                return None
            self._bus_memo = (dict(chan_bus), hit)
            return hit
        cg = self.cg
        slot_of = cg.slot_of_channel
        bus_index = cg.bus_index
        bus_of = [-1] * cg.n_slots
        entry: Any = False
        for chan, bus in chan_bus.items():
            slot = slot_of.get(chan)
            bi = bus_index.get(bus)
            if slot is None or bi is None:
                break
            bus_of[slot] = bi
        else:
            entry = (bus_of, tuple(bus_of))
        if len(self._bus_cache) >= 256:
            self._bus_cache.clear()
        self._bus_cache[cache_key] = entry
        if entry is False:
            return None
        self._bus_memo = (dict(chan_bus), entry)
        return entry

    def _hw_components(self, hardware: Sequence[str]) -> List[Optional[int]]:
        """Component indices of the ``hardware`` names (None = unknown)."""
        key = tuple(hardware)
        cis = self._hw_cache.get(key)
        if cis is None:
            comp_index = self.cg.comp_index
            cis = [comp_index.get(name) for name in hardware]
            self._hw_cache[key] = cis
        return cis

    # ------------------------------------------------------------------
    # the stdlib sweep (the reference arithmetic, flattened)

    def _sweep(
        self,
        comp_of: List[int],
        bus_of: List[int],
        mode_key: str,
        concurrent: bool,
        order: List[int],
    ) -> List[Any]:
        """Execution time of every node in ``order``, callees first.

        Each step repeats the reference expression for that node —
        ``ict + sum(freq * (transfer + dst_time))`` with the identical
        summation order and start value — so the produced floats match
        the memoized recursion bit for bit.
        """
        cg = self.cg
        n_beh = cg.n_behaviors
        ict = cg.ict
        chan_lo, chan_hi = cg.chan_lo, cg.chan_hi
        slot_dst, slot_tag, slot_bits = cg.slot_dst, cg.slot_tag, cg.slot_bits
        transfers, tt = cg.transfers, cg.tt
        freq = cg.freq[mode_key]
        span = cg.n_comps + 1
        times: List[Any] = [None] * cg.n_nodes
        for ni in order:
            ci = comp_of[ni]
            if ci < 0:
                raise _Unsupported  # reached an unmapped object
            w = ict[ni][ci]
            if w is None:
                raise _Unsupported  # technology never preprocessed
            if ni >= n_beh:  # variable: its access time on the component
                times[ni] = w
                continue
            base = (ci + 1) * span + 1
            if not concurrent:
                total: Any = 0  # sum() starts from int 0
                for s in range(chan_lo[ni], chan_hi[ni]):
                    f = freq[s]
                    if f == 0.0:
                        total = total + 0.0
                        continue
                    di = slot_dst[s]
                    if slot_bits[s] == 0:
                        per_access = 0.0
                    else:
                        bi = bus_of[s]
                        if bi < 0:
                            raise _Unsupported  # channel not mapped to a bus
                        dci = comp_of[di] if di >= 0 else -1
                        per_access = tt[bi][base + dci] * transfers[s][bi]
                    dst_time = times[di] if di >= 0 else 0.0
                    total = total + f * (per_access + dst_time)
                times[ni] = w + total
                continue
            # concurrent mode: same-tag groups combine by max (first-seen
            # tag order), untagged channels stay sequential
            seq = 0.0
            groups: Dict[str, float] = {}
            for s in range(chan_lo[ni], chan_hi[ni]):
                f = freq[s]
                if f == 0.0:
                    cost = 0.0
                else:
                    di = slot_dst[s]
                    if slot_bits[s] == 0:
                        per_access = 0.0
                    else:
                        bi = bus_of[s]
                        if bi < 0:
                            raise _Unsupported
                        dci = comp_of[di] if di >= 0 else -1
                        per_access = tt[bi][base + dci] * transfers[s][bi]
                    dst_time = times[di] if di >= 0 else 0.0
                    cost = f * (per_access + dst_time)
                tag = slot_tag[s]
                if tag is None:
                    seq += cost
                else:
                    groups[tag] = max(groups.get(tag, 0.0), cost)
            gsum: Any = 0  # sum() starts from int 0
            for value in groups.values():
                gsum = gsum + value
            times[ni] = w + (seq + gsum)
        return times

    def _sizes(self, pairs: List[Tuple[int, int]]) -> List[Any]:
        """Per-component summed size weights, assignment insertion order."""
        size = self.cg.size
        acc: List[Any] = [0] * self.cg.n_comps  # sum() starts from int 0
        for ni, ci in pairs:
            w = size[ni][ci]
            if w is None:
                raise _Unsupported
            acc[ci] = acc[ci] + w
        return acc

    def _hardware_size(self, acc: List[Any], hw_cis: List[Optional[int]]) -> Any:
        total: Any = 0  # sum() starts from int 0
        for ci in hw_cis:
            total = total + (acc[ci] if ci is not None else 0.0)
        return total

    def _fast_hw_size(self, comp_of: List[int], hw_cis: List[Optional[int]]) -> Any:
        """Summed hardware size without materialising all components.

        Only the hardware components' totals feed a design point, and
        for component ``c`` the reference accumulation is exactly the
        insertion-order subsequence of size weights assigned to ``c``
        starting from int 0 — which is what the filtered ``sum`` below
        computes, bit for bit.  Requires every size weight annotated
        (``_size_complete``); otherwise the per-pair None checks of
        :meth:`_sizes` decide abstention exactly like the reference.
        """
        if not self._size_complete:
            return self._hardware_size(
                self._sizes(list(enumerate(comp_of))), hw_cis
            )
        cols = self._size_cols
        total: Any = 0  # sum() starts from int 0
        for ci in hw_cis:
            if ci is None:
                total = total + 0.0
            else:
                total = total + sum(
                    w for c, w in zip(comp_of, cols[ci]) if c == ci
                )
        return total

    # ------------------------------------------------------------------
    # design points

    def evaluate(
        self,
        candidates: Sequence[Tuple[Partition, str]],
        hardware: Sequence[str],
    ) -> List[Optional[Any]]:
        """Score a batch of ``(partition, label)`` candidates in one call.

        Returns one :class:`~repro.partition.pareto.DesignPoint` per
        candidate — ``system_time`` from the Eq. 1 sweep (AVG mode,
        sequential, exactly like the reference
        ``evaluate_design_point``), ``hardware_size`` as the summed
        Eq. 4 sizes of the ``hardware`` components — or ``None`` where
        the candidate is unsupported and must be re-evaluated on the
        reference path.  This is the single kernel invocation the
        exploration engine makes per chunk.
        """
        if not candidates:
            return []
        from repro.partition.pareto import DesignPoint

        hw_cis = self._hw_components(hardware)
        n = len(candidates)
        points: List[Optional[Any]] = [None] * n
        fast: List[Tuple[int, List[str], List[int], Tuple, str]] = []
        fast_convert = self._fast_convert
        for i, (partition, label) in enumerate(candidates):
            conv = fast_convert(partition)
            if conv is None:
                continue  # unsupported: stays None
            if conv is False:
                # generic shape (incomplete or reordered mapping): the
                # original per-candidate conversion and sweep
                try:
                    pairs, comp_of, bus_of, _ = self._convert(partition)
                    acc = self._sizes(pairs)
                    times = self._sweep(
                        comp_of, bus_of, "avg", False, self.cg.order_design
                    )
                except _Unsupported:
                    continue
                pt = [times[p] for p in self.cg.processes]
                points[i] = DesignPoint(
                    system_time=max(pt) if pt else 0.0,
                    hardware_size=self._hardware_size(acc, hw_cis),
                    mapping=tuple(sorted(partition.object_mapping().items())),
                    label=label,
                )
                continue
            values, comp_of, bus_entry = conv
            fast.append((i, values, comp_of, bus_entry, label))
        if self.backend == "numpy":
            self._fast_values_numpy(fast, hw_cis, points, DesignPoint)
        else:
            self._fast_values_stdlib(fast, hw_cis, points, DesignPoint)
        if OBS.enabled:
            OBS.inc("kernel.batches")
            OBS.inc("kernel.candidates", n)
            unsupported = points.count(None)
            if unsupported:
                OBS.inc("kernel.unsupported", unsupported)
        return points

    def design_point(
        self, partition: Partition, label: str, hardware: Sequence[str]
    ) -> Optional[Any]:
        """Single-candidate convenience over :meth:`evaluate`."""
        return self.evaluate([(partition, label)], hardware)[0]

    def _fast_values_stdlib(self, fast, hw_cis, points, point_cls):
        cg = self.cg
        order = cg.order_design
        sorted_keys = self._sorted_keys
        perm_values = self._perm_values
        for i, values, comp_of, (bus_of, _bus_key), label in fast:
            try:
                times = self._sweep(comp_of, bus_of, "avg", False, order)
                hardware_size = self._fast_hw_size(comp_of, hw_cis)
            except _Unsupported:
                continue
            pt = [times[p] for p in cg.processes]
            points[i] = point_cls(
                system_time=max(pt) if pt else 0.0,
                hardware_size=hardware_size,
                # the same tuple sorted(mapping.items()) builds, via
                # the precomputed key permutation
                mapping=tuple(zip(sorted_keys, perm_values(values))),
                label=label,
            )

    def _fast_values_numpy(self, fast, hw_cis, points, point_cls):
        """Across-the-batch vectorised design-point sweep.

        Candidates are grouped by their channel→bus vector (uniform
        within an exploration payload); within a group every Eq. 1 step
        is one elementwise array op across the candidates, in the same
        per-candidate order as the scalar sweep — elementwise IEEE-754
        double ops are order-free, so identical doubles come out.  Sizes
        vectorise too when provably exact (``_sizes_integral``) and
        otherwise keep the order-sensitive stdlib accumulation.
        """
        if not fast:
            return
        np = self._np
        cg = self.cg
        n_nodes = cg.n_nodes
        span = cg.n_comps + 1
        groups: Dict[Tuple[int, ...], List[Tuple]] = {}
        for item in fast:
            groups.setdefault(item[3][1], []).append(item)
        for bus_key, members in groups.items():
            bus_of = members[0][3][0]
            n = len(members)
            if n < 8:
                # array sweeps only pay off across a batch; tiny groups
                # (e.g. hand-built candidates with unique channel maps)
                # run the scalar path
                self._fast_values_stdlib(members, hw_cis, points, point_cls)
                continue
            # one (nodes × candidates) component matrix per group —
            # transposed so the per-node sweep reads contiguous rows;
            # every fast candidate is complete, so no unmapped entries
            if self._bytes_comp:
                blob = b"".join(m[2] for m in members)
                compT = (
                    np.frombuffer(blob, dtype=np.uint8)
                    .reshape(n, n_nodes)
                    .T.astype(np.int64)
                )
            else:
                compT = np.ascontiguousarray(
                    np.fromiter(
                        chain.from_iterable(m[2] for m in members),
                        dtype=np.int64,
                        count=n * n_nodes,
                    )
                    .reshape(n, n_nodes)
                    .T
                )
            bad = np.zeros(n, dtype=bool)
            times = np.zeros((n_nodes or 1, n), dtype=np.float64)
            compT1 = compT + 1  # tt-matrix row/column indices
            ict_np, tt_np = self._ict_np, self._tt_np
            ict_has_none = self._ict_has_none
            n_behaviors = cg.n_behaviors
            chan_lo, chan_hi = cg.chan_lo, cg.chan_hi
            slot_dst, slot_bits = cg.slot_dst, cg.slot_bits
            transfers, freq_avg = cg.transfers, cg.freq["avg"]
            try:
                for ni in cg.order_design:
                    ci = compT[ni]
                    w = ict_np[ni, ci]
                    if ict_has_none:
                        bad |= np.isnan(w)  # missing weight: row abstains
                    if ni >= n_behaviors:
                        times[ni] = w
                        continue
                    total = None
                    base = None
                    for s in range(chan_lo[ni], chan_hi[ni]):
                        f = freq_avg[s]
                        if f == 0.0:
                            continue  # adds exactly 0.0 in the reference
                        di = slot_dst[s]
                        dst_time = times[di] if di >= 0 else 0.0
                        if slot_bits[s] == 0:
                            cost = f * dst_time if di >= 0 else np.zeros(n)
                        else:
                            bi = bus_of[s]
                            if bi < 0:
                                raise _Unsupported  # whole group: unmapped channel
                            if base is None:
                                base = compT1[ni] * span
                            idx = base + compT1[di] if di >= 0 else base
                            per_access = tt_np[bi][idx] * transfers[s][bi]
                            cost = f * (per_access + dst_time)
                        total = cost if total is None else total + cost
                    times[ni] = w if total is None else w + total
            except _Unsupported:
                continue  # every member falls back to the reference path
            hw_totals = None
            if self._size_np is not None and n >= 16:
                hw_totals = []
                for ci in hw_cis:
                    if ci is None:
                        hw_totals.append(None)
                        continue
                    # sequential accumulation in node order, vectorised
                    # across the batch: non-matching nodes add +0.0,
                    # which leaves every partial sum bit-identical to
                    # the reference's filtered accumulation
                    mask = compT == ci
                    contrib = np.where(mask, self._size_np[:, ci, None], 0.0)
                    total = np.zeros(n, dtype=np.float64)
                    for ni in range(n_nodes):
                        total += contrib[ni]
                    counts = mask.sum(axis=0)
                    hw_totals.append((total.tolist(), counts.tolist()))
            # tolist() turns the arrays back into exact Python floats,
            # and per-row scalars hoist into C-level listcomps so the
            # assembly loop only builds the mapping tuple + the point
            if cg.processes:
                st_rows = [
                    max(pt) for pt in times[cg.processes].T.tolist()
                ]
            else:
                st_rows = [0.0] * n
            hs_rows: Optional[List[Any]] = None
            if hw_totals is not None:
                hs_rows = [0] * n  # sum() starts from int 0
                for entry in hw_totals:
                    if entry is None:
                        hs_rows = [h + 0.0 for h in hs_rows]
                    else:
                        totals, counts = entry
                        # int 0 where a component has no objects (sum()
                        # over nothing), the reference float otherwise
                        hs_rows = [
                            h + (0 if c == 0 else t)
                            for h, t, c in zip(hs_rows, totals, counts)
                        ]
            bad_rows = bad.tolist()
            sorted_keys = self._sorted_keys
            perm_values = self._perm_values
            for row, item in enumerate(members):
                if bad_rows[row]:
                    continue
                if hs_rows is None:
                    try:
                        hardware_size = self._fast_hw_size(item[2], hw_cis)
                    except _Unsupported:
                        continue
                else:
                    hardware_size = hs_rows[row]
                points[item[0]] = point_cls(
                    system_time=st_rows[row],
                    hardware_size=hardware_size,
                    mapping=tuple(zip(sorted_keys, perm_values(item[1]))),
                    label=item[4],
                )

    # ------------------------------------------------------------------
    # full reports (the serving path)

    def reports(
        self,
        items: Sequence[Tuple[Partition, FreqMode, bool]],
        time_constraint: Optional[float] = None,
    ) -> List[Optional[Any]]:
        """Full :class:`~repro.estimate.engine.EstimateReport` per item.

        ``items`` are ``(partition, mode, concurrent)`` triples — one
        batch of queued estimate requests becomes one kernel call.
        Unsupported items come back ``None`` (incomplete partition,
        missing weight, zero-time bitrate source, call cycle reached)
        and the caller re-runs them through the reference
        :class:`~repro.estimate.engine.Estimator`.
        """
        from repro.estimate.bitrate import BusLoad
        from repro.estimate.engine import EstimateReport, Violation

        cg = self.cg
        out: List[Optional[Any]] = []
        unsupported = 0
        for partition, mode, concurrent in items:
            try:
                pairs, comp_of, bus_of, chan_pairs = self._convert(
                    partition, channels=True
                )
                if len(pairs) != cg.n_nodes or len(chan_pairs) != cg.n_slots:
                    raise _Unsupported  # incomplete: reference raises
                acc = self._sizes(pairs)
                times = self._sweep(
                    comp_of, bus_of, mode.value, concurrent, cg.order_report
                )
                sizes = dict(zip(cg.comp_names, acc))
                ios = self._component_ios(comp_of, chan_pairs)
                process_times = {
                    name: times[ni]
                    for name, ni in zip(cg.process_names, cg.processes)
                }
                system_time = (
                    max(process_times.values()) if process_times else 0.0
                )
                violations = []
                for name in cg.comp_names:
                    comp = cg.slif.get_component(name)  # constraints read live
                    if comp.size_constraint is not None:
                        used = sizes[name]
                        if used > comp.size_constraint:
                            violations.append(
                                Violation(name, "size", used, comp.size_constraint)
                            )
                    limit = getattr(comp, "io_constraint", None)
                    if limit is not None:
                        used_io = ios[name]
                        if used_io > limit:
                            violations.append(Violation(name, "io", used_io, limit))
                if time_constraint is not None and system_time > time_constraint:
                    violations.append(
                        Violation("<system>", "time", system_time, time_constraint)
                    )
                moved = cg.moved[mode.value]
                bus_loads = {}
                for k, bus_name in enumerate(cg.bus_names):
                    demand: Any = 0  # sum() starts from int 0
                    for slot, bi in chan_pairs:
                        if bi != k:
                            continue
                        src_time = times[cg.slot_src[slot]]
                        if src_time <= 0.0:
                            raise _Unsupported  # reference raises EstimationError
                        mv = moved[slot]
                        demand = demand + (0.0 if mv == 0.0 else mv / src_time)
                    bus_loads[bus_name] = BusLoad(
                        bus=bus_name, demand=demand, capacity=cg.bus_capacity[k]
                    )
                out.append(
                    EstimateReport(
                        partition_name=partition.name,
                        component_sizes=sizes,
                        component_ios=ios,
                        process_times=process_times,
                        system_time=system_time,
                        bus_loads=bus_loads,
                        violations=violations,
                    )
                )
            except _Unsupported:
                out.append(None)
                unsupported += 1
        if OBS.enabled:
            OBS.inc("kernel.batches")
            OBS.inc("kernel.candidates", len(items))
            if unsupported:
                OBS.inc("kernel.unsupported", unsupported)
        return out

    def report(
        self,
        partition: Partition,
        mode: FreqMode = FreqMode.AVG,
        concurrent: bool = False,
        time_constraint: Optional[float] = None,
    ) -> Optional[Any]:
        """Single-item convenience over :meth:`reports`."""
        return self.reports([(partition, mode, concurrent)], time_constraint)[0]

    def _component_ios(
        self, comp_of: List[int], chan_pairs: List[Tuple[int, int]]
    ) -> Dict[str, int]:
        """Eq. 6 over the compiled arrays (cut-bus bitwidth sums)."""
        cg = self.cg
        bus_of_slot = dict(chan_pairs)
        cut: List[set] = [set() for _ in range(cg.n_comps)]
        for slot in cg.report_slots:
            bi = bus_of_slot.get(slot)
            if bi is None:
                continue
            src_comp = comp_of[cg.slot_src[slot]]
            di = cg.slot_dst[slot]
            dst_comp = comp_of[di] if di >= 0 else -1
            if src_comp == dst_comp:
                continue  # internal (or fully unmapped): cut for no component
            for comp in (src_comp, dst_comp):
                if comp >= 0:
                    cut[comp].add(bi)
        widths = [cg.slif.get_bus(name).bitwidth for name in cg.bus_names]
        return {
            name: sum(widths[bi] for bi in cut[ci])
            for ci, name in enumerate(cg.comp_names)
        }
