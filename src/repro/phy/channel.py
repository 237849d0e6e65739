"""The shared wireless medium: delivers frame edges to in-range radios.

A :class:`Channel` owns a set of radios and a propagation model.  When a
radio transmits, the channel computes the received power at every reachable
radio from their *current* positions (node movement over one frame airtime is
sub-millimetre at the paper's 3 m/s, so the gain is sampled once per frame)
and delivers ``signal_start`` / ``signal_end`` edges, optionally offset by
the propagation delay.

Arrivals below ``interference_floor_w`` are culled — they could affect
neither decoding nor carrier sense nor any SINR the capture threshold could
care about.  This is the main scalability lever: a 1 mW transmission only
generates events at radios within a few hundred metres.

The channel is deliberately decode-agnostic: every edge above the
interference floor is delivered whether or not the receiver could decode
it, which is the contract the ``reception`` slot builds on — a
:class:`~repro.phy.reception.sinr.SinrReceiver` sees the same arrival
ledger the inline threshold rules do and only changes what the radio
*concludes* from it.  At equal timestamps trailing edges dispatch before
leading edges (``sig_end`` events tie-break ahead of ``sig_start``), so a
back-to-back handoff never reads the departing frame's power as
interference against the new one.

Fan-out strategies
------------------
The naive fan-out is a Python loop over *all* attached radios, recomputing
the pairwise propagation gain before culling — O(N) work per frame even
though only a handful of radios are reachable.  Two optimisations make the
fan-out sub-linear, enabled by ``spatial_index=True``:

* **Uniform-grid spatial index.**  Radios are bucketed into square cells of
  side ``propagation.range_for(max_tx_power_w, interference_floor_w) +
  max_speed_mps * reindex_interval_s``; a transmission can only reach radios
  in the 3×3 block of cells around the transmitter, so only those are
  visited.  Mobile radios drift, so the grid is refreshed lazily (inside
  ``transmit``, never via simulator events — the event schedule stays
  byte-identical to the brute-force scan) whenever it is older than
  ``reindex_interval_s``; the cell-size padding covers the maximum drift
  between refreshes, keeping the candidate set an exact superset of the
  reachable radios.
* **Epoch-cached link gains.**  Mobility models expose a movement epoch
  (:class:`~repro.mobility.base.MobilityModel`) that bumps only when a
  position sample actually moves.  Per-link ``(gain, distance)`` pairs are
  cached keyed on both endpoints' epochs: static scenarios compute each link
  gain exactly once, and mobile scenarios get hits during pause legs and
  repeated same-instant samples.  Radios whose mobility bound is 0 m/s are
  flagged static at attach and skip position polling entirely.
* **Batched gain evaluation with conservative culling.**  When a transmit
  finds many cache-missed candidates (a mobile source after movement, or a
  first transmit), their gains are evaluated in one
  :meth:`~repro.phy.propagation.PropagationModel.gain_at_many` numpy call.
  Bulk gains match the scalar path only to ~1 ulp, so they are used
  **solely to cull** candidates whose received power falls below the
  interference floor by a safety margin; every candidate that might cross
  the floor gets the exact scalar ``gain_at`` value, and *only* exact
  gains ever reach a scheduled edge or a reusable cache entry (approximate
  entries are cached with an ``exact=False`` flag and upgraded on demand).
  Edges are numbered in a second pass, strictly in attach order, so event
  sequence numbers — and with them same-time tie-breaking — are untouched.
* **Static replay.**  In an all-static world (``max_speed_mps == 0``) the
  survivor list of each ``(source, tx power)`` is computed once through
  the scalar path and replayed on every later transmit.
* **Edge batches.**  The brute scan schedules every edge as its own event;
  the indexed path hands all edges of one transmit to the kernel in one
  :meth:`~repro.sim.kernel.Simulator.schedule_edges` call, numbered with
  the seqs those ``schedule`` calls would take (receiver *i* in attach
  order: start ``next_seq + 2i``, end ``next_seq + 2i + 1``).  The kernel
  keeps one heap entry per batch and dispatches the edges in the same
  ``(time, priority, seq)`` order.  Edges are uncancellable, which suits
  physics: energy in flight always arrives (see :meth:`Channel.detach`).

All paths produce bit-identical event schedules (same times, powers and
tie-breaking order — candidates are visited in attach order); the
brute-force scan remains the default and serves as the oracle in
``tests/phy/test_channel_equivalence.py``.  The spatial index requires that
radio positions change only through mobility models whose speed is bounded
by ``max_speed_mps`` — ``attach`` rejects radios without a mobility model
(a bare ``position_fn`` could teleport, silently breaking the culling
guarantee) and radios whose model reports a higher bound.

The paper's PCMAC uses **two** channels with identical propagation (its
assumption 1): instantiate one ``Channel`` for data and one for power-control
notifications, sharing the propagation model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.phy.frame import PhyFrame
from repro.phy.propagation import PropagationModel, distance
from repro.phy.radio import Radio
from repro.sim.kernel import Simulator
from repro.units import SPEED_OF_LIGHT


#: Minimum cache-missed candidates before gains are evaluated in one numpy
#: batch; below this the scalar loop wins (numpy call overhead dominates —
#: measured crossover on CPython 3.11 sits around two dozen links).
_BATCH_MIN_MISSES = 24

#: Adaptive gate for the batch path: after this many bulk-evaluated links,
#: batching is abandoned for the run unless at least ``_BATCH_MIN_CULL_NUM /
#: _BATCH_MIN_CULL_DEN`` of them were culled.  Bulk gains can only *cull*
#: (scheduled powers always come from the scalar path), so in dense fields
#: where every candidate is above the interference floor the batch is pure
#: extra work — the gate caps that waste at a fixed, trivial amount while
#: keeping the win in sparse fields where most of a 3×3 block is out of
#: range.  The decision depends only on simulated data, never on wall time,
#: and the event schedule is identical either way.
_BATCH_PROBE_LINKS = 4096
_BATCH_MIN_CULL_NUM = 1
_BATCH_MIN_CULL_DEN = 4

#: Upper bound on memoised static fan-outs (keys are ``(src_seq,
#: tx_power)``, so continuous-power protocols could otherwise grow the
#: cache without bound).  Generous enough for 10k sources at the paper's
#: ten discrete power levels; on overflow the cache is simply cleared and
#: rebuilt on demand — correctness never depends on a hit.
_STATIC_FANOUT_CAP = 131072

#: Event labels of a signal's leading and trailing edge (profiler buckets).
_START = "phy.sig_start"
_END = "phy.sig_end"


class _RadioEntry:
    """Channel-side bookkeeping for one attached radio.

    ``seq`` is the attach sequence number: candidate receivers are visited
    in ascending ``seq`` so the indexed fan-out schedules events in exactly
    the order the brute-force list scan would (the event queue breaks
    same-time ties by insertion order).  Re-attaching assigns a fresh
    ``seq``, matching the list's remove-then-append semantics.

    ``static`` is set when the mobility model's speed bound is 0 m/s — the
    position (and hence the movement epoch) can never change, so the hot
    fan-out loop reads the attach-time sample instead of polling.
    ``poll_mob`` is the mobility model's bound ``poll`` — the fan-out calls
    it directly, skipping one Python frame per candidate per transmit.
    """

    __slots__ = (
        "radio", "seq", "mobility", "poll_mob", "pos", "epoch", "cell", "static"
    )

    def __init__(self, radio: Radio, seq: int, now: float) -> None:
        self.radio = radio
        self.seq = seq
        self.mobility = getattr(radio, "mobility", None)
        self.static = False
        if self.mobility is not None:
            self.poll_mob = self.mobility.poll
            self.pos, self.epoch = self.poll_mob(now)
            self.static = self.mobility.max_speed_mps() == 0.0
        self.cell: tuple[int, int] | None = None

    def poll(self, now: float) -> tuple[tuple[float, float], int]:
        """Fresh ``(position, epoch)``; the epoch bumps only on movement."""
        pos, ep = self.mobility.poll(now)
        self.pos = pos
        self.epoch = ep
        return pos, ep


def _entry_seq(entry: _RadioEntry) -> int:
    return entry.seq


class Channel:
    """A broadcast medium connecting radios under one propagation model.

    Args:
        sim: the simulation kernel.
        propagation: pairwise gain model shared by every link.
        interference_floor_w: received-power floor below which arrivals are
            culled entirely.
        model_propagation_delay: offset arrivals by distance / c when True.
        name: label for traces ("data" / "control").
        spatial_index: enable the uniform-grid fan-out (see module docs).
            The default False keeps the brute-force scan — the oracle path.
        max_tx_power_w: largest transmit power any frame on this channel
            will use; required when ``spatial_index`` is set (it determines
            the maximum reach and hence the grid cell size).  Transmitting
            above it raises, as that would break the culling guarantee.
        max_speed_mps: upper bound on any attached radio's speed; pads the
            cell size so grid staleness can never miss a reachable radio.
        reindex_interval_s: maximum grid staleness for mobile radios.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        *,
        interference_floor_w: float = 1e-14,
        model_propagation_delay: bool = True,
        name: str = "data",
        spatial_index: bool = False,
        max_tx_power_w: float | None = None,
        max_speed_mps: float = 0.0,
        reindex_interval_s: float = 1.0,
    ) -> None:
        if interference_floor_w <= 0:
            raise ValueError("interference_floor_w must be positive")
        self.sim = sim
        self.propagation = propagation
        self.interference_floor_w = interference_floor_w
        #: Conservative cull threshold for *approximate* (bulk) gains: a
        #: candidate is skipped without an exact computation only when its
        #: approximate received power misses the floor by a margin far wider
        #: than the bulk path's ~1 ulp error, so no reachable radio can be
        #: culled.  Borderline candidates fall through to the exact gain.
        self._cull_floor = interference_floor_w * (1.0 - 1e-9)
        self.model_propagation_delay = model_propagation_delay
        self.name = name
        self._radios: list[Radio] = []

        self._cell_size: float | None = None
        self._max_tx_power_w = max_tx_power_w
        self._entries: dict[Radio, _RadioEntry] = {}
        self._cells: dict[tuple[int, int], list[_RadioEntry]] = {}
        #: Memoised sorted candidate list per centre cell; any grid mutation
        #: (attach, detach, a radio changing cell) clears it.  Static
        #: scenarios therefore sort each 3×3 block exactly once.
        self._blocks: dict[tuple[int, int], list[_RadioEntry]] = {}
        #: Per-link gain cache: src_seq → (src_epoch, {rx_seq: (rx_epoch,
        #: gain, dist, exact)}).  A source's inner dict is dropped wholesale
        #: when its epoch advances (none of its entries can hit again), and a
        #: receiver's slot is overwritten on epoch mismatch, so memory is
        #: O(pairs currently in range), not O(pairs ever in range) —
        #: static scenarios still keep every link gain forever.  ``exact``
        #: marks gains computed by the scalar ``gain_at`` (usable for event
        #: powers); False marks bulk ``gain_at_many`` values, sound only for
        #: below-floor culling and upgraded to exact on demand.
        self._gains: dict[
            int, tuple[int, dict[int, tuple[int, float, float, bool]]]
        ] = {}
        self._next_seq = 0
        #: Batch-gate bookkeeping (see _BATCH_PROBE_LINKS).
        self._batch_enabled = True
        self._batch_links = 0
        self._batch_culled = 0
        #: All-static fast path: with ``max_speed_mps == 0`` every attached
        #: radio is pinned (attach enforces the bound), so the fan-out of a
        #: given (source, tx power) never changes — cache it as a replayable
        #: ``[(rx, rx_power, delay), ...]`` list (attach order).  Any attach
        #: or detach invalidates the whole cache.
        self._static_fanouts: dict[tuple[int, float], list] = {}
        self._max_speed_mps = max_speed_mps
        self._reindex_interval_s = reindex_interval_s
        self._reindex_due_at = math.inf
        if spatial_index:
            if max_tx_power_w is None or max_tx_power_w <= 0:
                raise ValueError("spatial_index requires a positive max_tx_power_w")
            if max_speed_mps < 0:
                raise ValueError("max_speed_mps must be non-negative")
            if not math.isfinite(max_speed_mps):
                raise ValueError("spatial_index requires a finite max_speed_mps")
            if reindex_interval_s <= 0:
                raise ValueError("reindex_interval_s must be positive")
            reach = propagation.range_for(max_tx_power_w, interference_floor_w)
            self._cell_size = reach + max_speed_mps * reindex_interval_s
            if max_speed_mps > 0:
                self._reindex_due_at = 0.0  # refresh on the first transmit

    @property
    def spatial_index(self) -> bool:
        """Whether the grid-indexed fan-out is active."""
        return self._cell_size is not None

    @property
    def cell_size_m(self) -> float | None:
        """Grid cell side [m] when the spatial index is active, else None."""
        return self._cell_size

    @property
    def radios(self) -> tuple[Radio, ...]:
        """Radios currently attached to this channel."""
        return tuple(self._radios)

    def attach(self, radio: Radio) -> None:
        """Join a radio to the medium.

        With the spatial index active, the radio must carry a mobility model
        whose speed is bounded by the channel's ``max_speed_mps`` —
        otherwise the grid's drift padding could not guarantee the candidate
        superset, and arrivals the brute-force scan would deliver could be
        silently missed.  Violations fail loudly here instead.
        """
        if radio in self._radios:
            raise ValueError(f"radio of node {radio.node_id} already attached")
        if self._cell_size is not None:
            entry = _RadioEntry(radio, self._next_seq, self.sim.now)
            if entry.mobility is None:
                raise ValueError(
                    f"radio of node {radio.node_id} has no mobility model — "
                    "the spatial index cannot bound a bare position_fn's "
                    "drift; construct the radio with mobility=... (e.g. "
                    "StaticMobility) or use spatial_index=False"
                )
            speed = entry.mobility.max_speed_mps()
            if speed > self._max_speed_mps:
                raise ValueError(
                    f"radio of node {radio.node_id} moves at up to "
                    f"{speed!r} m/s, above the spatial index's "
                    f"max_speed_mps {self._max_speed_mps!r} — culling "
                    "would be unsound"
                )
            self._next_seq += 1
            self._entries[radio] = entry
            self._move_to_cell(entry, entry.pos)
            self._static_fanouts.clear()
        self._radios.append(radio)

    def detach(self, radio: Radio) -> None:
        """Remove a radio from the medium.

        Semantics: detaching only stops *future* transmissions from reaching
        the radio (and removes it from the spatial index / gain cache).
        Signal edges already scheduled — the ``signal_start`` / ``signal_end``
        events of frames in flight at detach time — still fire at the
        detached radio, mirroring physics: energy already en route arrives
        regardless of any bookkeeping change, and delivering the matching
        ``signal_end`` keeps the radio's interference accounting consistent
        if it is later re-attached.  Callers that want a radio to go
        genuinely deaf mid-frame must model that at the radio, not by
        detaching.
        """
        self._radios.remove(radio)
        entry = self._entries.pop(radio, None)
        if entry is not None:
            if entry.cell is not None:
                self._cells[entry.cell].remove(entry)
            self._blocks.clear()
            self._static_fanouts.clear()
            seq = entry.seq
            self._gains.pop(seq, None)
            for _, links in self._gains.values():
                links.pop(seq, None)

    # --------------------------------------------------------------- indexing

    def _move_to_cell(self, entry: _RadioEntry, pos: tuple[float, float]) -> None:
        size = self._cell_size
        cell = (int(pos[0] // size), int(pos[1] // size))
        if cell == entry.cell:
            return
        if entry.cell is not None:
            self._cells[entry.cell].remove(entry)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = []
        bucket.append(entry)
        entry.cell = cell
        self._blocks.clear()

    def _reindex(self, now: float) -> None:
        """Re-bucket every radio from a fresh position sample.

        Runs inside ``transmit`` (never as a scheduled event, which would
        perturb event sequence numbers) at most once per
        ``reindex_interval_s`` of simulated time, bounding both the grid
        staleness and the amortised cost.  Static radios cannot change cell
        and are skipped.
        """
        for entry in self._entries.values():
            if entry.static:
                continue
            pos, _ = entry.poll(now)
            self._move_to_cell(entry, pos)
        self._reindex_due_at = now + self._reindex_interval_s

    def _block_candidates(self, block_key: tuple[int, int]) -> list[_RadioEntry]:
        """Memoised, attach-order candidate list for one 3×3 cell block."""
        candidates = self._blocks.get(block_key)
        if candidates is None:
            cx, cy = block_key
            cells = self._cells
            candidates = []
            for ix in (cx - 1, cx, cx + 1):
                for iy in (cy - 1, cy, cy + 1):
                    bucket = cells.get((ix, iy))
                    if bucket:
                        candidates.extend(bucket)
            candidates.sort(key=_entry_seq)
            self._blocks[block_key] = candidates
        return candidates

    def _build_static_fanout(
        self, entry: _RadioEntry, tx_power: float
    ) -> list[tuple[Radio, float, float]]:
        """Survivor list ``[(rx, rx_power, delay)]`` for one static source.

        Computed exactly as the dynamic scalar path would (same candidate
        block, same attach-order visit, same cache-consistent ``gain_at``
        values, same ``tx_power * gain`` products), so replaying it is
        bit-identical to re-running the loop.  Only valid in an all-static
        world (``max_speed_mps == 0``); invalidated on attach/detach.

        NOTE: the per-candidate resolve below is deliberately duplicated
        across this method, the scalar path and batch pass 1 of
        ``_fanout_indexed`` (a shared helper would cost one Python call per
        candidate per transmit on the hottest loop).  Any change to the
        cull/cache rule must be applied to all three in lockstep — the
        equivalence suite (``tests/phy/test_channel_equivalence.py``, whose
        static cases run max_speed 0 and therefore exercise this replay
        path against the brute oracle) is the enforcement.
        """
        src_pos = entry.pos
        src_epoch = entry.epoch
        cached = self._gains.get(entry.seq)
        if cached is None or cached[0] != src_epoch:
            links = {}
            self._gains[entry.seq] = (src_epoch, links)
        else:
            links = cached[1]
        size = self._cell_size
        candidates = self._block_candidates(
            (int(src_pos[0] // size), int(src_pos[1] // size))
        )

        floor = self.interference_floor_w
        cull_floor = self._cull_floor
        gain_at = self.propagation.gain_at
        model_delay = self.model_propagation_delay
        src_radio = entry.radio
        out: list[tuple[Radio, float, float]] = []
        for cand in candidates:
            rx = cand.radio
            if rx is src_radio:
                continue
            rx_epoch = cand.epoch
            hit = links.get(cand.seq)
            if hit is not None and hit[0] == rx_epoch:
                gain = hit[1]
                dist = hit[2]
                if not hit[3]:
                    if tx_power * gain < cull_floor:
                        continue
                    gain = gain_at(dist)
                    links[cand.seq] = (rx_epoch, gain, dist, True)
            else:
                dist = distance(src_pos, cand.pos)
                gain = gain_at(dist)
                links[cand.seq] = (rx_epoch, gain, dist, True)
            rx_power = tx_power * gain
            if rx_power < floor:
                continue
            delay = dist / SPEED_OF_LIGHT if model_delay else 0.0
            out.append((rx, rx_power, delay))
        return out

    # ------------------------------------------------------------------ TX

    def transmit(self, src: Radio, frame: PhyFrame) -> None:
        """Emit ``frame`` from ``src`` and fan out edges to other radios."""
        src.begin_tx(frame)
        if self._cell_size is None:
            self._fanout_brute(src, frame)
        else:
            self._fanout_indexed(src, frame)

    def _fanout_brute(self, src: Radio, frame: PhyFrame) -> None:
        """Reference fan-out: scan every radio, recompute every gain.

        Each edge is its own ``schedule`` call (no edge batch), so this path
        stays an independent oracle for the batched dispatch too.
        """
        sim = self.sim
        now = sim.now
        duration = frame.duration_s
        src_pos = src.position
        floor = self.interference_floor_w
        for rx in self._radios:
            if rx is src:
                continue
            rx_pos = rx.position
            gain = self.propagation.gain(src_pos, rx_pos)
            rx_power = frame.tx_power_w * gain
            if rx_power < floor:
                continue
            delay = 0.0
            if self.model_propagation_delay:
                delay = distance(src_pos, rx_pos) / SPEED_OF_LIGHT
            # priority 1 for ends vs. priority 0 for starts at the exact same
            # instant is unnecessary (start/end of the *same* frame differ by
            # the airtime), but back-to-back frames can abut: let the earlier
            # frame's end fire before the next frame's start when times tie.
            sim.schedule(
                now + delay,
                rx.signal_start,
                args=(frame, rx_power),
                priority=1,
                label=_START,
            )
            sim.schedule(
                now + delay + duration,
                rx.signal_end,
                args=(frame.frame_id,),
                priority=0,
                label=_END,
            )

    def _fanout_indexed(self, src: Radio, frame: PhyFrame) -> None:
        """Grid-indexed fan-out with epoch-cached, batch-culled gains.

        Produces the exact event schedule of :meth:`_fanout_brute`: the
        candidate set is a superset of every radio above the interference
        floor, gains/distances reuse only values computed from identical
        positions (validated by movement epochs), bulk-evaluated gains are
        used only to cull candidates safely below the floor (scheduled
        powers are always the scalar ``gain_at`` value), and edges are
        numbered in attach order so same-time ties break identically.  All
        edges go to the kernel as one batch (see the module docs).
        """
        if frame.tx_power_w > self._max_tx_power_w:
            raise ValueError(
                f"tx power {frame.tx_power_w!r} W exceeds the channel's "
                f"max_tx_power_w {self._max_tx_power_w!r} — the spatial index "
                "cannot guarantee reachability beyond it"
            )
        sim = self.sim
        now = sim.now
        if self._max_speed_mps == 0.0:
            # All-static world: the survivor set, received powers and delays
            # for this (source, tx power) can never change — replay the
            # precomputed fan-out (built through the normal scalar path the
            # first time, so every float is bit-identical to it).
            entry = self._entries.get(src)
            if entry is not None:
                key = (entry.seq, frame.tx_power_w)
                fanouts = self._static_fanouts
                hits = fanouts.get(key)
                if hits is None:
                    hits = self._build_static_fanout(entry, frame.tx_power_w)
                    if len(fanouts) >= _STATIC_FANOUT_CAP:
                        fanouts.clear()
                    fanouts[key] = hits
                duration = frame.duration_s
                end_args = (frame.frame_id,)
                seq = sim.next_seq
                edges = []
                append = edges.append
                for rx, rx_power, delay in hits:
                    t = now + delay
                    append((t, 1, seq, rx.signal_start, (frame, rx_power), _START))
                    append((t + duration, 0, seq + 1, rx.signal_end, end_args, _END))
                    seq += 2
                sim.schedule_edges(edges)
                return
        if now >= self._reindex_due_at:
            self._reindex(now)
        size = self._cell_size
        entry = self._entries.get(src)
        if entry is not None:
            if entry.static:
                src_pos = entry.pos
                src_epoch = entry.epoch
            else:
                src_pos, src_epoch = entry.poll(now)
                self._move_to_cell(entry, src_pos)
            cached = self._gains.get(entry.seq)
            if cached is None or cached[0] != src_epoch:
                # The source moved: none of its cached links can hit again,
                # so drop them wholesale (bounds the cache for mobile runs).
                links: dict | None = {}
                self._gains[entry.seq] = (src_epoch, links)
            else:
                links = cached[1]
        else:
            # Unattached transmitter: legal (the brute path allows it), but
            # there is no entry to key the cache on — compute directly.
            src_pos = src.position
            links = None
        candidates = self._block_candidates(
            (int(src_pos[0] // size), int(src_pos[1] // size))
        )

        tx_power = frame.tx_power_w
        floor = self.interference_floor_w
        cull_floor = self._cull_floor
        gain_at = self.propagation.gain_at
        duration = frame.duration_s
        model_delay = self.model_propagation_delay
        end_args = (frame.frame_id,)
        # The seqs the brute path's schedule calls would take: receiver i (in
        # attach order) gets start = base + 2i and end = base + 2i + 1.
        seq = sim.next_seq
        edges: list[tuple] = []
        append = edges.append

        # Expected cache misses ≈ candidates not yet in the link cache; with
        # a fully warm cache (static scenarios after the first transmit per
        # source) this is ~0 and the single-pass scalar loop is optimal.
        if not (
            self._batch_enabled
            and links is not None
            and len(candidates) - len(links) >= _BATCH_MIN_MISSES
        ):
            # Scalar fast path: one pass in attach order, building edges
            # inline (identical structure to the historical loop, so dense
            # fields — where the batch gate has tripped — pay no two-pass
            # overhead).
            for cand in candidates:
                rx = cand.radio
                if rx is src:
                    continue
                if cand.static:
                    rx_pos = cand.pos
                    rx_epoch = cand.epoch
                else:
                    rx_pos, rx_epoch = cand.poll_mob(now)
                if links is not None:
                    hit = links.get(cand.seq)
                    if hit is not None and hit[0] == rx_epoch:
                        gain = hit[1]
                        dist = hit[2]
                        if not hit[3]:
                            # Approximate (bulk) gain: good for culling only.
                            # At a higher tx power it may cross — upgrade.
                            if tx_power * gain < cull_floor:
                                continue
                            gain = gain_at(dist)
                            links[cand.seq] = (rx_epoch, gain, dist, True)
                    else:
                        dist = distance(src_pos, rx_pos)
                        gain = gain_at(dist)
                        links[cand.seq] = (rx_epoch, gain, dist, True)
                else:
                    dist = distance(src_pos, rx_pos)
                    gain = gain_at(dist)
                rx_power = tx_power * gain
                if rx_power < floor:
                    continue
                t = now + (dist / SPEED_OF_LIGHT if model_delay else 0.0)
                append((t, 1, seq, rx.signal_start, (frame, rx_power), _START))
                append((t + duration, 0, seq + 1, rx.signal_end, end_args, _END))
                seq += 2
            sim.schedule_edges(edges)
            return

        # Batch path — pass 1 resolves, in attach order, every candidate to
        # either an exact (rx, gain, dist) or a sound below-floor cull.
        # Cache misses are parked (a placeholder keeps their slot in the
        # order) and bulk-evaluated, then pass 2 numbers the edges strictly
        # in attach order, so sequence numbers match the brute scan.
        resolved: list[tuple[Radio, float, float] | None] = []
        resolve = resolved.append
        misses: list[tuple[int, _RadioEntry, tuple[float, float], int]] = []
        for cand in candidates:
            rx = cand.radio
            if rx is src:
                continue
            if cand.static:
                rx_pos = cand.pos
                rx_epoch = cand.epoch
            else:
                rx_pos, rx_epoch = cand.poll_mob(now)
            hit = links.get(cand.seq)
            if hit is not None and hit[0] == rx_epoch:
                gain = hit[1]
                dist = hit[2]
                if not hit[3]:
                    if tx_power * gain < cull_floor:
                        continue
                    gain = gain_at(dist)
                    links[cand.seq] = (rx_epoch, gain, dist, True)
                if tx_power * gain >= floor:
                    resolve((rx, gain, dist))
                continue
            misses.append((len(resolved), cand, rx_pos, rx_epoch))
            resolve(None)

        if misses:
            if len(misses) >= _BATCH_MIN_MISSES:
                # One vectorised gain evaluation for all missed links; the
                # distances stay scalar (they feed delays and the cache).
                dists = [distance(src_pos, m[2]) for m in misses]
                bulk = self.propagation.gain_at_many(np.asarray(dists))
                culled = 0
                for (idx, cand, _pos, rx_epoch), dist, approx in zip(
                    misses, dists, bulk
                ):
                    approx = float(approx)
                    if tx_power * approx < cull_floor:
                        links[cand.seq] = (rx_epoch, approx, dist, False)
                        culled += 1
                        continue
                    gain = gain_at(dist)
                    links[cand.seq] = (rx_epoch, gain, dist, True)
                    if tx_power * gain >= floor:
                        resolved[idx] = (cand.radio, gain, dist)
                self._batch_links += len(misses)
                self._batch_culled += culled
                if (
                    self._batch_links >= _BATCH_PROBE_LINKS
                    and self._batch_culled * _BATCH_MIN_CULL_DEN
                    < self._batch_links * _BATCH_MIN_CULL_NUM
                ):
                    # Dense field: bulk culling is not paying for itself.
                    self._batch_enabled = False
            else:
                for idx, cand, rx_pos, rx_epoch in misses:
                    dist = distance(src_pos, rx_pos)
                    gain = gain_at(dist)
                    links[cand.seq] = (rx_epoch, gain, dist, True)
                    if tx_power * gain >= floor:
                        resolved[idx] = (cand.radio, gain, dist)

        for item in resolved:
            if item is None:
                continue
            rx, gain, dist = item
            rx_power = tx_power * gain
            t = now + (dist / SPEED_OF_LIGHT if model_delay else 0.0)
            append((t, 1, seq, rx.signal_start, (frame, rx_power), _START))
            append((t + duration, 0, seq + 1, rx.signal_end, end_args, _END))
            seq += 2
        sim.schedule_edges(edges)

    # --------------------------------------------------------------- queries

    def gain_now(self, a: Radio, b: Radio) -> float:
        """Current propagation gain between two attached radios.

        Omniscient helper for tests and scenario validation — protocol code
        must estimate gains from received frames instead.
        """
        return self.propagation.gain(a.position, b.position)

    def rx_power_now(self, src: Radio, dst: Radio, tx_power_w: float) -> float:
        """Received power at ``dst`` if ``src`` transmitted now [W]."""
        return tx_power_w * self.gain_now(src, dst)
