//! The discrete-event simulation engine.
//!
//! A deployment is a pipeline of queueing stages. Each stage has a
//! bounded FIFO, `servers` parallel executors (cores, NIC cores, or a
//! pipeline slot), and a [`ServiceModel`] that decides each packet's
//! verdict and service time. Packets flow source → stage 0 → stage 1 →
//! … → sink; stage queues drop on overflow (overload loss), NF verdicts
//! drop by policy (counted separately — a firewall denying a packet did
//! its job).
//!
//! Time is `u64` nanoseconds. Events are totally ordered by
//! `(time, sequence)` so runs are exactly reproducible.
//!
//! ## Memory discipline and the SoA event layout
//!
//! The hot path is allocation-free in steady state. Events are split
//! struct-of-arrays (DESIGN.md §10): the *hot* half is the scheduler
//! entry itself — `(t_ns, seq, tag)`, 24 bytes, where the tag packs the
//! event kind, the stage, and a cold-payload index — so wheel buckets
//! are cache-line-dense. The *cold* half (the packet in service, its
//! verdict, batch result buffers) lives in flat per-stage pools and
//! engine-level slabs touched only at dispatch, reclaimed through free
//! lists the moment an event fires, so resident memory is O(live
//! events), not O(total events). Timer and fault events have no cold
//! half at all: their whole payload fits in the tag.
//!
//! Zero-latency forwards (a stage settling a packet into the next stage
//! at the same timestamp) are *fused*: they ride a FIFO straight back
//! into the dispatch walk instead of re-enqueueing through the wheel,
//! while still minting seqs so the processing order — and therefore
//! every report and trace — is bit-identical to the unfused reference
//! path ([`Engine::with_fusion`]).
//!
//! Workload arrivals are injected lazily from the stub iterator
//! (arrival times are monotone), so a week-long simulated run holds one
//! pending arrival at a time instead of the whole packet sequence.
//! Batch result buffers are pooled and reused across kernel
//! invocations; all pools persist across runs of a reused engine.

use crate::fault::{FaultAction, FaultPlan};
use crate::nf::NfVerdict;
use crate::packet::{Packet, PayloadSynth};
use crate::sanitizer::OrderSanitizer;
use crate::sched::{EventScheduler, SchedulerKind};
use crate::service::ServiceModel;
use crate::stats::{DropReason, SinkStats};
use apples_obs::span::SpanToken;
use apples_obs::{Phase, RunObserver, TraceDrop, TraceFault};
use apples_workload::WorkloadSpec;
use std::collections::VecDeque;

/// A per-packet steering function: maps a packet to the next stage
/// index, or `None` for the sink.
pub type SteerFn = Box<dyn Fn(&Packet) -> Option<usize> + Send>;

/// Where a stage's forwarded packets go next.
pub enum NextHop {
    /// The next stage in configuration order, or the sink after the
    /// last stage (the default linear pipeline).
    Linear,
    /// A fixed stage index.
    Stage(usize),
    /// Straight to the sink.
    Sink,
    /// Per-packet steering (e.g. RSS: hash the flow to one of several
    /// core stages). Returning `None` sends the packet to the sink.
    Steer(SteerFn),
}

/// Batch-processing policy for vector accelerators (GPUs, wide SIMD
/// engines): packets accumulate until `max_batch` are waiting or the
/// head of the buffer has waited `timeout_ns`, then a server processes
/// the whole batch in one `kernel_overhead_ns + per-packet` invocation.
///
/// Batching trades latency (packets wait for the batch to form) for
/// throughput (the kernel overhead amortizes) — the defining shape of
/// GPU packet processing, and a natural §4.3 subject: no amount of
/// batching hardware buys back the formation delay.
///
/// The formation timer is measured from the *head packet's enqueue
/// time*: when a server is available, no packet waits in the formation
/// buffer longer than `timeout_ns` before its batch launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum packets per batch.
    pub max_batch: usize,
    /// Flush a partial batch once its head packet has waited this long.
    pub timeout_ns: u64,
    /// Fixed per-invocation cost (kernel launch, DMA setup).
    pub kernel_overhead_ns: u64,
}

impl BatchPolicy {
    /// Creates a policy; panics on degenerate parameters.
    pub fn new(max_batch: usize, timeout_ns: u64, kernel_overhead_ns: u64) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        assert!(timeout_ns > 0, "timeout must be positive");
        BatchPolicy { max_batch, timeout_ns, kernel_overhead_ns }
    }
}

/// Configuration for one pipeline stage.
pub struct StageConfig {
    /// Stage name for reports.
    pub name: &'static str,
    /// Parallel servers (cores).
    pub servers: u32,
    /// Queue capacity in packets (excluding those in service).
    pub queue_capacity: usize,
    /// The service model.
    pub service: Box<dyn ServiceModel>,
    /// Forwarding target for packets this stage passes.
    pub next: NextHop,
    /// Batch-processing policy; `None` = serve packets one at a time.
    pub batch: Option<BatchPolicy>,
    /// Declared target set of a [`NextHop::Steer`] function. Steering
    /// closures are opaque to static analysis; the shard planner needs
    /// the edge set to partition the pipeline, so steered stages that
    /// want to participate in sharded runs declare their reachable
    /// stages here. Leaving it `None` is always safe — the planner
    /// falls back to the serial engine.
    pub steer_targets: Option<Vec<usize>>,
}

impl StageConfig {
    /// Creates a stage that forwards linearly (to the next stage, or the
    /// sink if it is the last one).
    pub fn new(
        name: &'static str,
        servers: u32,
        queue_capacity: usize,
        service: Box<dyn ServiceModel>,
    ) -> Self {
        StageConfig {
            name,
            servers,
            queue_capacity,
            service,
            next: NextHop::Linear,
            batch: None,
            steer_targets: None,
        }
    }

    /// Overrides the forwarding target.
    pub fn with_next(mut self, next: NextHop) -> Self {
        self.next = next;
        self
    }

    /// Declares the stages a [`NextHop::Steer`] closure can return, so
    /// the shard planner knows this stage's outgoing edges.
    pub fn with_steer_targets(mut self, targets: Vec<usize>) -> Self {
        self.steer_targets = Some(targets);
        self
    }

    /// Enables batch processing on this stage.
    pub fn with_batching(mut self, policy: BatchPolicy) -> Self {
        self.batch = Some(policy);
        self
    }
}

pub(crate) struct StageState {
    pub(crate) cfg: StageConfig,
    /// Waiting packets, each with its enqueue timestamp (the batch
    /// formation timer is measured from the head's enqueue time).
    pub(crate) queue: VecDeque<(u64, Packet)>,
    pub(crate) busy: u32,
    pub(crate) busy_ns: u128,
    pub(crate) arrivals: u64,
    pub(crate) served: u64,
    pub(crate) queue_drops: u64,
    pub(crate) policy_drops: u64,
    /// Packets currently inside servers (equals `busy` for per-packet
    /// stages; a multiple for batch stages).
    pub(crate) in_service_pkts: u64,
    /// Invalidates stale batch timers.
    pub(crate) batch_epoch: u64,
    /// A batch timeout fired while all servers were busy; flush a
    /// partial batch as soon as one frees.
    pub(crate) batch_flush_pending: bool,
    /// Service-time multiplier from the fault plan (1.0 = nominal).
    pub(crate) slow_factor: f64,
    /// The stage is in an outage window: arrivals drop, in-flight work
    /// completes, no new work starts until recovery.
    pub(crate) down: bool,
    /// Packets lost to faults at this stage (outage-window arrivals).
    pub(crate) fault_drops: u64,
    /// Flat pool of cold `Done` payloads for this stage (SoA layout):
    /// the event tag carries only the pool index. Free-listed, and
    /// persisted across runs under the pool-reuse contract.
    pool: Vec<Option<DoneSlot>>,
    pool_free: Vec<usize>,
}

impl StageState {
    /// Fresh run state around a stage configuration.
    pub(crate) fn from_cfg(cfg: StageConfig) -> Self {
        StageState {
            cfg,
            queue: VecDeque::new(),
            busy: 0,
            busy_ns: 0,
            arrivals: 0,
            served: 0,
            queue_drops: 0,
            policy_drops: 0,
            in_service_pkts: 0,
            batch_epoch: 0,
            batch_flush_pending: false,
            slow_factor: 1.0,
            down: false,
            fault_drops: 0,
            pool: Vec::new(),
            pool_free: Vec::new(),
        }
    }

    /// Resets everything a run mutates so an engine can be reused.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.busy = 0;
        self.busy_ns = 0;
        self.arrivals = 0;
        self.served = 0;
        self.queue_drops = 0;
        self.policy_drops = 0;
        self.in_service_pkts = 0;
        self.batch_epoch = 0;
        self.batch_flush_pending = false;
        self.slow_factor = 1.0;
        self.down = false;
        self.fault_drops = 0;
        self.pool.clear();
        self.pool_free.clear();
    }

    /// The outgoing stage edges of this stage, for the shard planner.
    /// `None` means the edge set is statically unknown (an undeclared
    /// steering function) — partitioning must not be attempted.
    pub(crate) fn successors(&self, index: usize, n_stages: usize) -> Option<Vec<usize>> {
        match &self.cfg.next {
            NextHop::Linear => {
                Some(if index + 1 < n_stages { vec![index + 1] } else { Vec::new() })
            }
            NextHop::Stage(j) => Some(vec![*j]),
            NextHop::Sink => Some(Vec::new()),
            NextHop::Steer(_) => self.cfg.steer_targets.clone(),
        }
    }
    fn pool_insert(&mut self, slot: DoneSlot) -> usize {
        match self.pool_free.pop() {
            Some(idx) => {
                debug_assert!(self.pool[idx].is_none(), "free list hit a live pool slot");
                self.pool[idx] = Some(slot);
                idx
            }
            None => {
                self.pool.push(Some(slot));
                self.pool.len() - 1
            }
        }
    }

    fn pool_take(&mut self, idx: usize) -> DoneSlot {
        // lint: allow(P1, reason = "invariant: Done tags are minted by begin_service and consumed exactly once; a vacant slot here is tag corruption")
        let slot = self.pool[idx].take().expect("Done tag referenced a vacant pool slot");
        self.pool_free.push(idx);
        slot
    }

    /// Starts service on `pkt` at time `t`: one `serve()` call, the
    /// cold-pool insert, and the Done event push. Shared by arrivals,
    /// queue pulls on completion, and outage-recovery drains — the
    /// caller has already bumped `busy`/`in_service_pkts` and emitted
    /// its dispatch hook.
    #[inline]
    fn begin_service(&mut self, stage: usize, mut pkt: Packet, t: u64, core: &mut EventCore) {
        core.fill_payload(&mut pkt);
        let (verdict, svc_ns) = self.cfg.service.serve(&pkt);
        let svc_ns = scaled(svc_ns, self.slow_factor);
        self.busy_ns += u128::from(svc_ns);
        let idx = self.pool_insert((pkt, verdict, svc_ns));
        core.push_done(t + svc_ns, stage, idx);
    }
}

/// Per-stage outcome of a run, for utilization-driven power accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: &'static str,
    /// Fraction of server-time spent busy, `[0, 1]`.
    pub utilization: f64,
    /// Packets that arrived at this stage.
    pub arrivals: u64,
    /// Packets that completed service here.
    pub served: u64,
    /// Packets dropped at this stage's queue.
    pub queue_drops: u64,
    /// Packets dropped here by NF policy.
    pub policy_drops: u64,
    /// Packets lost to injected faults at this stage (arrivals during
    /// an outage window).
    pub fault_drops: u64,
    /// Packets still queued or in service when the run ended.
    pub in_flight: u64,
}

impl StageReport {
    /// Packet-conservation check: every arrival is served, dropped at
    /// the queue, lost to a fault, or still in flight at cutoff.
    pub fn conserves_packets(&self) -> bool {
        self.arrivals == self.served + self.queue_drops + self.fault_drops + self.in_flight
    }
}

/// Optional payload synthesis for payload-inspecting pipelines.
pub struct PayloadConfig {
    /// Probability a packet carries one of the needles.
    pub attack_prob: f64,
    /// Patterns to embed (the DPI experiments' ground truth).
    pub needles: Vec<Vec<u8>>,
}

// ── SoA event layout ────────────────────────────────────────────────
//
// A scheduled event is the scheduler entry `(t_ns, seq, tag)` alone.
// The tag packs everything dispatch needs to find the cold payload:
//
//   bits 60..64  event kind (KIND_*)
//   bits 48..60  stage index (pipelines are capped at MAX_STAGES)
//   bits  0..48  payload — a pool/slab index, a batch epoch, or a
//                fault action code, depending on the kind
//
// Done events index the owning stage's packet pool; BatchDone events
// index the engine's batch slab; Arrive events (unfused mode only)
// index the arrive slab; BatchTimeout and Fault events need no cold
// storage at all.

const TAG_KIND_SHIFT: u32 = 60;
const TAG_STAGE_SHIFT: u32 = 48;
const TAG_STAGE_MASK: u64 = (1 << (TAG_KIND_SHIFT - TAG_STAGE_SHIFT)) - 1;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_STAGE_SHIFT) - 1;

/// Largest pipeline the packed event tag can address (12 stage bits).
pub const MAX_STAGES: usize = 1 << (TAG_KIND_SHIFT - TAG_STAGE_SHIFT);

const KIND_DONE: u64 = 0;
const KIND_ARRIVE: u64 = 1;
const KIND_BATCH_TIMEOUT: u64 = 2;
const KIND_BATCH_DONE: u64 = 3;
const KIND_FAULT: u64 = 4;

// Size-regression guards: the hot slot must never regrow past a cache
// line (it is the entire per-event footprint inside wheel buckets), and
// the tag packing assumes the scheduler's payload word holds 64 bits.
const _: () = assert!(std::mem::size_of::<crate::sched::EventKey>() <= 64);
const _: () = assert!(std::mem::size_of::<usize>() == 8);

#[inline]
fn pack_tag(kind: u64, stage: usize, payload: usize) -> usize {
    debug_assert!((stage as u64) <= TAG_STAGE_MASK, "stage exceeds tag width");
    debug_assert!((payload as u64) <= TAG_PAYLOAD_MASK, "payload exceeds tag width");
    ((kind << TAG_KIND_SHIFT) | ((stage as u64) << TAG_STAGE_SHIFT) | payload as u64) as usize
}

#[inline]
fn tag_kind(tag: usize) -> u64 {
    tag as u64 >> TAG_KIND_SHIFT
}

#[inline]
pub(crate) fn tag_stage(tag: usize) -> usize {
    ((tag as u64 >> TAG_STAGE_SHIFT) & TAG_STAGE_MASK) as usize
}

#[inline]
fn tag_payload(tag: usize) -> usize {
    (tag as u64 & TAG_PAYLOAD_MASK) as usize
}

/// Cold payload of a `Done` event: the packet in service, its verdict,
/// and its (fault-scaled) service time. Lives in the owning stage's
/// flat pool; the event tag carries only the pool index.
type DoneSlot = (Packet, NfVerdict, u64);

/// Cold payload of a `BatchDone` event: the completed batch results and
/// the batch's total service time. Lives in the batch slab; the event
/// tag carries only the slab index.
type BatchSlot = (Vec<(Packet, NfVerdict)>, u64);

/// Bytes per *hot* event slot: one scheduler entry `(t_ns, seq, tag)`.
/// This is what wheel buckets and the heap actually move per event.
pub fn hot_slot_bytes() -> usize {
    std::mem::size_of::<crate::sched::EventKey>()
}

/// Bytes per *cold* payload slot: one entry of a stage's packet pool,
/// touched only at dispatch. (Batch events amortize a larger buffer
/// over the whole batch; timers and faults have no cold half.)
pub fn cold_slot_bytes() -> usize {
    std::mem::size_of::<Option<DoneSlot>>()
}

/// A zero-latency forward waiting in the fused-hop FIFO: a packet that
/// finished service and settles into its next stage at the same
/// timestamp, carrying the seq it was minted with so the dispatch walk
/// can merge it in exact `(t, seq)` order against wheel events.
struct FusedHop {
    seq: u64,
    stage: usize,
    pkt: Packet,
}

/// Hot-path event state threaded through the dispatch helpers: the
/// scheduler, the seq mint, the live/peak/total accounting the old
/// event slab kept, the fused-hop FIFO, and the engine-level cold
/// slabs of the SoA layout.
pub(crate) struct EventCore {
    pub(crate) events: EventScheduler,
    seq: u64,
    live: usize,
    pub(crate) peak_live: usize,
    pub(crate) total: u64,
    /// Same-time forwards bypassing the scheduler (fusion on). Always
    /// empty between timestamps: the dispatch walk drains it fully.
    fwd: VecDeque<FusedHop>,
    /// Arrive payloads (fusion off: every hop re-enqueues through the
    /// scheduler — the reference path the A/B property tests pin).
    arrive_slots: Vec<Option<Packet>>,
    arrive_free: Vec<usize>,
    /// BatchDone payloads: the result buffer and the batch's total ns.
    batch_slots: Vec<Option<BatchSlot>>,
    batch_free: Vec<usize>,
    fused: bool,
    /// Sharded runs only: the stage-ownership map and per-destination
    /// outboxes. `None` (serial runs) keeps `forward` on its old path.
    pub(crate) route: Option<crate::shard::ShardRoute>,
    /// Payload synthesis for payload pipelines, applied as each packet
    /// starts service. `None` leaves packets header-only.
    pub(crate) synth: Option<PayloadSynth>,
}

impl EventCore {
    /// Mints the next seq, counting the event as live — the accounting
    /// the old event slab did on insert, kept so `total_events` and
    /// `peak_live_events` stay bit-identical.
    #[inline]
    fn mint(&mut self) -> u64 {
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        self.total += 1;
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Gives `pkt` its payload bytes as it starts service — the single
    /// point where payload pipelines synthesize them.
    #[inline]
    fn fill_payload(&self, pkt: &mut Packet) {
        if let Some(synth) = &self.synth {
            synth.fill(pkt);
        }
    }

    /// Counts a dispatched event (the old slab's take-side accounting).
    #[inline]
    fn retire(&mut self) {
        self.live -= 1;
    }

    /// Currently live (scheduled, not yet dispatched) events — the
    /// time-series gauge the per-bucket tick samples.
    #[inline]
    pub(crate) fn live_now(&self) -> usize {
        self.live
    }

    #[inline]
    fn push_done(&mut self, t: u64, stage: usize, pool_idx: usize) {
        let seq = self.mint();
        self.events.push(t, seq, pack_tag(KIND_DONE, stage, pool_idx));
    }

    fn push_batch_timeout(&mut self, t: u64, stage: usize, epoch: u64) {
        let seq = self.mint();
        self.events.push(t, seq, pack_tag(KIND_BATCH_TIMEOUT, stage, epoch as usize));
    }

    fn push_batch_done(
        &mut self,
        t: u64,
        stage: usize,
        results: Vec<(Packet, NfVerdict)>,
        total_ns: u64,
    ) {
        let idx = match self.batch_free.pop() {
            Some(idx) => {
                debug_assert!(self.batch_slots[idx].is_none(), "free list hit a live batch slot");
                self.batch_slots[idx] = Some((results, total_ns));
                idx
            }
            None => {
                self.batch_slots.push(Some((results, total_ns)));
                self.batch_slots.len() - 1
            }
        };
        let seq = self.mint();
        self.events.push(t, seq, pack_tag(KIND_BATCH_DONE, stage, idx));
    }

    fn take_batch(&mut self, idx: usize) -> (Vec<(Packet, NfVerdict)>, u64) {
        // lint: allow(P1, reason = "invariant: batch tags are minted by push_batch_done and consumed exactly once; a vacant slot here is tag corruption")
        let slot = self.batch_slots[idx].take().expect("batch tag referenced a vacant slot");
        self.batch_free.push(idx);
        slot
    }

    pub(crate) fn push_fault(&mut self, t: u64, action: FaultAction) {
        let (stage, code) = action.encode();
        let seq = self.mint();
        self.events.push(t, seq, pack_tag(KIND_FAULT, stage, code));
    }

    /// Routes a same-time forward: into the fused-hop FIFO (fusion on),
    /// or back through the scheduler as an Arrive event (fusion off).
    /// Both sides mint a seq, so the dispatch order is identical.
    ///
    /// Sharded runs divert forwards to remote stages into the outbox
    /// for the destination shard *without* minting a seq: the seq is
    /// minted by the destination's epoch-barrier merge, which is what
    /// keeps per-shard seq streams dense and the merge order exactly
    /// the serial dispatch order.
    #[inline]
    pub(crate) fn forward(&mut self, t: u64, stage: usize, pkt: Packet) {
        if let Some(route) = self.route.as_mut() {
            let dst = route.owner[stage];
            if dst != route.me {
                route.out[dst].push((t, stage, pkt));
                return;
            }
        }
        if self.fused {
            let seq = self.mint();
            self.fwd.push_back(FusedHop { seq, stage, pkt });
        } else {
            self.enqueue_arrive(t, stage, pkt);
        }
    }

    /// Slab-inserts `pkt` and schedules a `KIND_ARRIVE` event at `t`.
    /// Shared by the unfused forward path and the cross-shard inbox
    /// merge (merged hops always go through the scheduler: their seqs
    /// are minted here, in merge order, above every local seq already
    /// scheduled for that timestamp).
    pub(crate) fn enqueue_arrive(&mut self, t: u64, stage: usize, pkt: Packet) {
        let idx = match self.arrive_free.pop() {
            Some(idx) => {
                debug_assert!(self.arrive_slots[idx].is_none(), "free list hit a live arrive slot");
                self.arrive_slots[idx] = Some(pkt);
                idx
            }
            None => {
                self.arrive_slots.push(Some(pkt));
                self.arrive_slots.len() - 1
            }
        };
        let seq = self.mint();
        self.events.push(t, seq, pack_tag(KIND_ARRIVE, stage, idx));
    }

    /// A fresh event core for one run (sharded workers build one per
    /// shard; the serial path reuses the engine's pooled buffers
    /// instead).
    pub(crate) fn new_for_run(
        kind: SchedulerKind,
        fused: bool,
        route: Option<crate::shard::ShardRoute>,
    ) -> Self {
        EventCore {
            events: EventScheduler::new(kind),
            seq: 0,
            live: 0,
            peak_live: 0,
            total: 0,
            fwd: VecDeque::new(),
            arrive_slots: Vec::new(),
            arrive_free: Vec::new(),
            batch_slots: Vec::new(),
            batch_free: Vec::new(),
            fused,
            route,
            synth: None,
        }
    }

    fn take_arrive(&mut self, idx: usize) -> Packet {
        // lint: allow(P1, reason = "invariant: arrive tags are minted by forward() and consumed exactly once; a vacant slot here is tag corruption")
        let pkt = self.arrive_slots[idx].take().expect("arrive tag referenced a vacant slot");
        self.arrive_free.push(idx);
        pkt
    }
}

/// The simulator.
pub struct Engine {
    pub(crate) stages: Vec<StageState>,
    pub(crate) payload: Option<PayloadConfig>,
    pub(crate) scheduler: SchedulerKind,
    /// Fault plan applied to every run; `None` = fault-free.
    pub(crate) fault_plan: Option<FaultPlan>,
    /// Pooled batch-result buffers, persisted across `run` calls so a
    /// reused engine's steady state allocates nothing (the old per-run
    /// pool started empty every run and reallocated from scratch).
    batch_pool: Vec<Vec<(Packet, NfVerdict)>>,
    /// Persisted timestamp-bucket buffer for the dispatch loop.
    bucket_buf: Vec<(u64, u64, usize)>,
    /// Scratch for same-time scheduler re-drains inside the dispatch
    /// walk (events minted at the timestamp being processed).
    redrain_buf: Vec<(u64, u64, usize)>,
    /// Fused-hop FIFO, persisted across runs (pool-reuse contract).
    fwd_buf: VecDeque<FusedHop>,
    /// Cold slabs for Arrive / BatchDone payloads, persisted likewise.
    arrive_slots: Vec<Option<Packet>>,
    arrive_free: Vec<usize>,
    batch_slots: Vec<Option<BatchSlot>>,
    batch_free: Vec<usize>,
    /// Zero-latency hop fusion (default on). `false` re-enqueues every
    /// hop through the scheduler — the reference path the fused/unfused
    /// property tests compare against, bit for bit.
    pub(crate) fused: bool,
    /// Shard count for single-run parallelism (default 1 = serial).
    /// Sharding engages only when the pipeline partitions provably
    /// (see `crate::shard::plan`); otherwise the run stays serial.
    shards: usize,
    /// Optional observability hooks (tracing / telemetry / spans).
    /// `None` — the default — leaves the hot path byte-identical to an
    /// uninstrumented engine: every site is a single `Option` branch.
    pub(crate) observer: Option<RunObserver>,
    /// Optional order sanitizer (invariant checks + interleaving
    /// perturber); gated exactly like the observer: `None` costs one
    /// branch per site.
    pub(crate) sanitizer: Option<OrderSanitizer>,
    /// Scaling diagnosis from the most recent *sharded* run: per-shard
    /// wall-time decomposition (compute / barrier / merge), barrier-wait
    /// histograms, and mailbox traffic. `None` after serial runs.
    /// Wall-clock only — never flows into simulated results.
    pub(crate) shard_diag: Option<crate::shard::ShardDiag>,
}

/// The raw result of a run.
///
/// `PartialEq` compares every field (histogram counts included) — the
/// A/B scheduler tests lean on it to assert byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Sink-side statistics over the measurement window.
    pub sink: SinkStats,
    /// Per-stage reports.
    pub stages: Vec<StageReport>,
    /// Measurement window length, ns.
    pub window_ns: u64,
    /// Packets injected into stage 0 over the whole run.
    pub injected: u64,
    /// Packets the fault plan dropped at the injection point (these
    /// never reached stage 0 and are not part of `injected`).
    pub injected_drops: u64,
    /// Packets the fault plan marked corrupted at the injection point.
    pub corrupted: u64,
    /// Total events scheduled over the run (what the old grow-forever
    /// arena would have held in memory).
    pub total_events: u64,
    /// High-water mark of simultaneously live events — the slab's
    /// actual footprint.
    pub peak_live_events: usize,
}

/// Applies a stage's fault slowdown factor to a service time. The
/// nominal case takes the exact identity path so fault-free runs are
/// bit-for-bit unchanged.
#[inline]
fn scaled(svc_ns: u64, factor: f64) -> u64 {
    // lint: allow(N1, reason = "exact sentinel: 1.0 is assigned verbatim, never computed")
    if factor == 1.0 {
        svc_ns
    } else {
        (svc_ns as f64 * factor).ceil() as u64
    }
}

/// Maps a fault-plan action to its trace representation.
fn fault_trace(action: FaultAction) -> (usize, TraceFault) {
    match action {
        FaultAction::SlowdownStart { stage } => (stage, TraceFault::SlowdownStart),
        FaultAction::SlowdownEnd { stage } => (stage, TraceFault::SlowdownEnd),
        FaultAction::DeviceDown { stage } => (stage, TraceFault::DeviceDown),
        FaultAction::DeviceUp { stage } => (stage, TraceFault::DeviceUp),
    }
}

/// Starts as many batches as servers and buffered packets allow.
/// `force_partial` flushes a below-max batch (the formation timer fired).
fn try_flush_batches(
    st: &mut StageState,
    stage: usize,
    t: u64,
    force_partial: bool,
    core: &mut EventCore,
    batch_pool: &mut Vec<Vec<(Packet, NfVerdict)>>,
    obs: &mut Option<RunObserver>,
) {
    let Some(policy) = st.cfg.batch else { return };
    if st.down {
        // No new kernels launch during an outage; a pending flush (or
        // queued packets) will be picked up again at DeviceUp.
        return;
    }
    let force = force_partial || st.batch_flush_pending;
    let mut launched = false;
    while st.busy < st.cfg.servers
        && (st.queue.len() >= policy.max_batch || (force && !st.queue.is_empty()))
    {
        let n = st.queue.len().min(policy.max_batch);
        let mut total_ns = policy.kernel_overhead_ns;
        let mut results = batch_pool.pop().unwrap_or_default();
        results.reserve(n);
        for _ in 0..n {
            // lint: allow(P1, reason = "invariant: loop condition just checked the queue holds at least max_batch (or is non-empty under force)")
            let (enq_t, mut pkt) = st.queue.pop_front().expect("checked non-empty");
            if let Some(o) = obs.as_mut() {
                o.on_dispatch(t, pkt.id, stage, t - enq_t);
            }
            core.fill_payload(&mut pkt);
            let (verdict, svc_ns) = st.cfg.service.serve(&pkt);
            total_ns += svc_ns;
            results.push((pkt, verdict));
        }
        let total_ns = scaled(total_ns, st.slow_factor);
        st.busy += 1;
        st.in_service_pkts += n as u64;
        st.busy_ns += u128::from(total_ns);
        st.batch_epoch += 1;
        launched = true;
        core.push_batch_done(t + total_ns, stage, results, total_ns);
    }
    st.batch_flush_pending = force && !st.queue.is_empty() && st.busy >= st.cfg.servers;
    // A launch invalidated the head's timer (epoch bump). If packets
    // remain, re-arm for the new head — measured from *its* enqueue
    // time, so no packet waits more than timeout_ns while a server is
    // free. (Timers for an unchanged head are still in the heap and
    // stay valid: the epoch has not moved.)
    if launched && !st.queue.is_empty() && !st.batch_flush_pending {
        // lint: allow(P1, reason = "invariant: guarded by the !st.queue.is_empty() conjunct on the if directly above")
        let head_enqueued = st.queue.front().expect("checked non-empty").0;
        let deadline = (head_enqueued + policy.timeout_ns).max(t);
        core.push_batch_timeout(deadline, stage, st.batch_epoch);
    }
}

impl Engine {
    /// Builds an engine from stage configurations (source feeds stage 0).
    pub fn new(stages: Vec<StageConfig>) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert!(stages.len() <= MAX_STAGES, "pipelines are capped at {MAX_STAGES} stages");
        for (i, s) in stages.iter().enumerate() {
            assert!(s.servers > 0, "stage '{}' needs at least one server", s.name);
            if let NextHop::Stage(j) = s.next {
                assert!(j < stages.len(), "stage '{}' forwards to nonexistent stage {j}", s.name);
                assert_ne!(i, j, "stage '{}' must not forward to itself", s.name);
            }
        }
        Engine {
            stages: stages.into_iter().map(StageState::from_cfg).collect(),
            payload: None,
            scheduler: SchedulerKind::Wheel,
            fault_plan: None,
            batch_pool: Vec::new(),
            bucket_buf: Vec::new(),
            redrain_buf: Vec::new(),
            fwd_buf: VecDeque::new(),
            arrive_slots: Vec::new(),
            arrive_free: Vec::new(),
            batch_slots: Vec::new(),
            batch_free: Vec::new(),
            fused: true,
            shards: 1,
            observer: None,
            sanitizer: None,
            shard_diag: None,
        }
    }

    /// Attaches observability hooks for subsequent runs. The observer
    /// accumulates across runs until taken with [`Engine::take_observer`].
    pub fn with_observer(mut self, observer: RunObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Removes and returns the observer (with everything it collected).
    pub fn take_observer(&mut self) -> Option<RunObserver> {
        self.observer.take()
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&RunObserver> {
        self.observer.as_ref()
    }

    /// Attaches the runtime order sanitizer for subsequent runs: the
    /// dispatch walk is shadowed with monotone-time / unique-seq /
    /// merge-order invariant checks (and, when the sanitizer was built
    /// with [`OrderSanitizer::with_perturbation`], a seeded shuffle of
    /// every same-timestamp equivalence class that the seq-keyed merge
    /// must undo). Results must stay byte-identical to an unsanitized
    /// run — that identity is asserted by tests and the `xp sanitize`
    /// gate, not here.
    pub fn with_sanitizer(mut self, sanitizer: OrderSanitizer) -> Self {
        self.sanitizer = Some(sanitizer);
        self
    }

    /// Removes and returns the sanitizer (with its accumulated report).
    pub fn take_sanitizer(&mut self) -> Option<OrderSanitizer> {
        self.sanitizer.take()
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&OrderSanitizer> {
        self.sanitizer.as_ref()
    }

    /// Removes and returns the scaling diagnosis collected by the most
    /// recent run, if that run actually sharded (serial runs — including
    /// silent fallbacks — leave `None`).
    pub fn take_shard_diag(&mut self) -> Option<crate::shard::ShardDiag> {
        self.shard_diag.take()
    }

    /// Stage names in pipeline order (labels for telemetry and traces).
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.cfg.name.to_owned()).collect()
    }

    /// Selects the event-queue discipline. The timing wheel is the
    /// default; the heap baseline exists for A/B determinism tests —
    /// both produce byte-identical results on every workload.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Splits subsequent runs across `n` shards (default 1 = serial),
    /// each with its own timing wheel and event pools, synchronized by
    /// conservative epoch barriers with cross-shard hops exchanged in
    /// per-epoch outboxes. Results are **byte-identical** to the serial
    /// engine: per-shard seq allocation plus the destination-side merge
    /// replay exactly the serial dispatch order (DESIGN.md §12).
    ///
    /// Sharding engages only when the pipeline partitions provably —
    /// the planner needs a feed-forward stage DAG with declared steer
    /// edges ([`StageConfig::with_steer_targets`]). Anything else falls
    /// back to the serial path, which is trivially identical. Observed
    /// runs shard too when the observer is shardable
    /// ([`RunObserver::shardable`]: no trace ring) — telemetry, spans,
    /// the time series, and scheduler counters are collected per shard
    /// and folded back; a tracing observer keeps the run serial.
    pub fn with_shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        self.shards = n;
        self
    }

    /// Enables or disables zero-latency hop fusion (default: enabled).
    /// Fused runs push same-time forwards through a FIFO straight back
    /// into the dispatch walk; unfused runs re-enqueue them through the
    /// scheduler. Both mint seqs identically, so results, traces, and
    /// telemetry are byte-identical — the unfused path exists as the
    /// reference oracle for A/B tests and the bench's `fused_speedup`.
    pub fn with_fusion(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Attaches a fault plan: its windowed transitions become timing-
    /// wheel events and its per-packet hash decisions gate the
    /// injection point. An empty plan leaves runs bit-for-bit
    /// unchanged; `(seed, plan)` fully determines the perturbation.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables payload synthesis (needed when the pipeline contains DPI).
    pub fn with_payloads(mut self, cfg: PayloadConfig) -> Self {
        self.payload = Some(cfg);
        self
    }

    /// The payload synthesis of one run seeded with `payload_seed`, if
    /// payloads are enabled.
    pub(crate) fn payload_synth(&self, payload_seed: u64) -> Option<PayloadSynth> {
        self.payload
            .as_ref()
            .map(|p| PayloadSynth::new(payload_seed, p.attack_prob, p.needles.clone()))
    }

    /// Runs `workload` for `duration_ns` of simulated time, measuring
    /// from `warmup_ns` on. Deliveries and drops before warmup are not
    /// counted; events after `duration_ns` are not processed.
    pub fn run(&mut self, workload: &WorkloadSpec, duration_ns: u64, warmup_ns: u64) -> RunResult {
        let stream = workload.stream();
        self.run_stubs(stream, workload.flows, workload.seed, duration_ns, warmup_ns)
    }

    /// Replays a recorded or imported [`apples_workload::Trace`] instead
    /// of a generator.
    /// Payload synthesis (when enabled) derives from `payload_seed`.
    pub fn run_trace(
        &mut self,
        trace: &apples_workload::Trace,
        payload_seed: u64,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> RunResult {
        self.run_stubs(
            trace.packets().iter().copied(),
            trace.flows(),
            payload_seed,
            duration_ns,
            warmup_ns,
        )
    }
}

/// Handles one arrival at `stage`: start service, enqueue, or drop.
/// A free function over the stage slice (not an `Engine` method) so the
/// sharded workers can drive the identical code path over their own
/// per-shard stage vectors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn arrive(
    stages: &mut [StageState],
    stage: usize,
    pkt: Packet,
    t: u64,
    warmup_ns: u64,
    sink: &mut SinkStats,
    core: &mut EventCore,
    batch_pool: &mut Vec<Vec<(Packet, NfVerdict)>>,
    obs: &mut Option<RunObserver>,
) {
    let st = &mut stages[stage];
    st.arrivals += 1;
    if let Some(o) = obs.as_mut() {
        o.on_stage_enter(t, pkt.id, stage);
    }
    if st.down {
        // Outage window: the device is gone; packets addressed to
        // it are lost rather than queued.
        st.fault_drops += 1;
        if let Some(o) = obs.as_mut() {
            o.on_drop(t, pkt.id, stage, TraceDrop::Fault);
        }
        if t >= warmup_ns {
            sink.drop(DropReason::Fault);
        }
    } else if st.cfg.batch.is_some() {
        if st.queue.len() < st.cfg.queue_capacity {
            let was_empty = st.queue.is_empty();
            let pkt_id = pkt.id;
            st.queue.push_back((t, pkt));
            if let Some(o) = obs.as_mut() {
                o.on_enqueue(t, pkt_id, stage, st.queue.len());
            }
            if was_empty {
                // New head: the formation timer runs from its
                // enqueue time (which is now).
                // lint: allow(P1, reason = "invariant: inside the st.cfg.batch.is_some() branch entered a few lines up")
                let timeout = st.cfg.batch.expect("checked").timeout_ns;
                core.push_batch_timeout(t + timeout, stage, st.batch_epoch);
            }
            try_flush_batches(st, stage, t, false, core, batch_pool, obs);
        } else {
            st.queue_drops += 1;
            if let Some(o) = obs.as_mut() {
                o.on_drop(t, pkt.id, stage, TraceDrop::QueueFull);
            }
            if t >= warmup_ns {
                sink.drop(DropReason::QueueFull);
            }
        }
    } else if st.busy < st.cfg.servers {
        st.busy += 1;
        st.in_service_pkts += 1;
        if let Some(o) = obs.as_mut() {
            o.on_dispatch(t, pkt.id, stage, 0);
        }
        st.begin_service(stage, pkt, t, core);
    } else if st.queue.len() < st.cfg.queue_capacity {
        let pkt_id = pkt.id;
        st.queue.push_back((t, pkt));
        if let Some(o) = obs.as_mut() {
            o.on_enqueue(t, pkt_id, stage, st.queue.len());
        }
    } else {
        st.queue_drops += 1;
        if let Some(o) = obs.as_mut() {
            o.on_drop(t, pkt.id, stage, TraceDrop::QueueFull);
        }
        if t >= warmup_ns {
            sink.drop(DropReason::QueueFull);
        }
    }
}

/// Routes a packet that finished service at `stage` according to its
/// verdict: policy drop, next stage, or sink delivery.
#[allow(clippy::too_many_arguments)]
pub(crate) fn settle(
    stages: &[StageState],
    stage: usize,
    pkt: Packet,
    verdict: NfVerdict,
    t: u64,
    warmup_ns: u64,
    sink: &mut SinkStats,
    core: &mut EventCore,
    obs: &mut Option<RunObserver>,
) {
    match verdict {
        NfVerdict::Drop => {
            if let Some(o) = obs.as_mut() {
                o.on_drop(t, pkt.id, stage, TraceDrop::Policy);
            }
            if t >= warmup_ns {
                sink.drop(DropReason::Policy);
            }
        }
        NfVerdict::Forward => {
            let dest = match &stages[stage].cfg.next {
                NextHop::Linear => {
                    if stage + 1 < stages.len() {
                        Some(stage + 1)
                    } else {
                        None
                    }
                }
                NextHop::Stage(i) => Some(*i),
                NextHop::Sink => None,
                NextHop::Steer(f) => f(&pkt),
            };
            match dest {
                Some(next_stage) => {
                    assert!(
                        next_stage < stages.len(),
                        "stage '{}' steered to nonexistent stage {next_stage}",
                        stages[stage].cfg.name
                    );
                    core.forward(t, next_stage, pkt);
                }
                None => {
                    if t >= warmup_ns && pkt.t_arrival_ns >= warmup_ns {
                        sink.deliver(pkt.flow, pkt.wire_bits(), t - pkt.t_arrival_ns);
                    }
                }
            }
        }
    }
}

/// Walks every event at timestamp `t` in ascending seq order, merging
/// three seq-sorted sources: the drained `bucket`, the fused-hop FIFO,
/// and scheduler re-drains (events minted *during* the walk at exactly
/// `t`). That merge is precisely the order the serial heap engine pops
/// — fused hops mint seqs exactly where their Arrive events used to —
/// so results, traces, and telemetry are bit-identical across
/// scheduler kinds and fusion modes.
///
/// Shared verbatim by the serial run loop and each shard's worker loop:
/// the sharded engine's claim to byte-identity rests on every shard
/// processing its own events with *this* code over its own core.
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk_bucket(
    stages: &mut [StageState],
    t: u64,
    warmup_ns: u64,
    bucket: &mut Vec<(u64, u64, usize)>,
    redrain: &mut Vec<(u64, u64, usize)>,
    core: &mut EventCore,
    sink: &mut SinkStats,
    batch_pool: &mut Vec<Vec<(Packet, NfVerdict)>>,
    fault_plan: Option<&FaultPlan>,
    obs: &mut Option<RunObserver>,
    san: &mut Option<OrderSanitizer>,
) {
    let mut i = 0;
    loop {
        // Refill: follow-ups minted at exactly t sit in the
        // scheduler's live bucket; pull them into the walk.
        // Everything appended was minted after everything
        // already in `bucket`, so the bucket stays seq-sorted.
        if i == bucket.len() && core.events.peek_time() == Some(t) {
            core.events.drain_bucket(redrain);
            bucket.append(redrain);
            if let Some(s) = san.as_mut() {
                s.on_refill(t, bucket, i);
            }
        }
        let wheel_seq = bucket.get(i).map(|&(_, s, _)| s);
        let hop_seq = core.fwd.front().map(|h| h.seq);
        let use_wheel = match (wheel_seq, hop_seq) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(w), Some(h)) => w < h,
        };
        if !use_wheel {
            // lint: allow(P1, reason = "invariant: hop_seq matched Some in the merge selection directly above")
            let hop = core.fwd.pop_front().expect("checked above");
            core.retire();
            if let Some(s) = san.as_mut() {
                s.on_dispatch(t, hop.seq, hop.stage, stages.len());
            }
            arrive(stages, hop.stage, hop.pkt, t, warmup_ns, sink, core, batch_pool, obs);
            continue;
        }
        let (_, eseq, tag) = bucket[i];
        i += 1;
        core.retire();
        let stage = tag_stage(tag);
        if let Some(s) = san.as_mut() {
            s.on_dispatch(t, eseq, stage, stages.len());
        }
        match tag_kind(tag) {
            KIND_DONE => {
                let (pkt, verdict, svc_ns) = stages[stage].pool_take(tag_payload(tag));
                {
                    let st = &mut stages[stage];
                    st.busy -= 1;
                    st.in_service_pkts -= 1;
                    st.served += 1;
                    if verdict == NfVerdict::Drop {
                        st.policy_drops += 1;
                    }
                    if let Some(o) = obs.as_mut() {
                        o.on_stage_exit(t, pkt.id, stage, svc_ns, verdict == NfVerdict::Forward);
                    }
                    // Pull the next queued packet into service
                    // (unless an outage window is open — queued
                    // work resumes at DeviceUp).
                    if !st.down {
                        if let Some((enq_t, next)) = st.queue.pop_front() {
                            st.busy += 1;
                            st.in_service_pkts += 1;
                            if let Some(o) = obs.as_mut() {
                                o.on_dispatch(t, next.id, stage, t - enq_t);
                            }
                            st.begin_service(stage, next, t, core);
                        }
                    }
                }
                settle(stages, stage, pkt, verdict, t, warmup_ns, sink, core, obs);
            }
            KIND_ARRIVE => {
                let pkt = core.take_arrive(tag_payload(tag));
                arrive(stages, stage, pkt, t, warmup_ns, sink, core, batch_pool, obs);
            }
            KIND_BATCH_TIMEOUT => {
                let epoch = tag_payload(tag) as u64;
                let st = &mut stages[stage];
                if st.batch_epoch == epoch && !st.queue.is_empty() {
                    st.batch_flush_pending = true;
                    try_flush_batches(st, stage, t, true, core, batch_pool, obs);
                }
            }
            KIND_BATCH_DONE => {
                let (mut results, total_ns) = core.take_batch(tag_payload(tag));
                {
                    let st = &mut stages[stage];
                    st.busy -= 1;
                    st.in_service_pkts -= results.len() as u64;
                    st.served += results.len() as u64;
                    st.policy_drops +=
                        results.iter().filter(|(_, v)| *v == NfVerdict::Drop).count() as u64;
                    if let Some(o) = obs.as_mut() {
                        // Every batch member shares the batch's
                        // wall of service: the kernel is the
                        // unit of work.
                        for (pkt, verdict) in results.iter() {
                            o.on_stage_exit(
                                t,
                                pkt.id,
                                stage,
                                total_ns,
                                *verdict == NfVerdict::Forward,
                            );
                        }
                    }
                    try_flush_batches(st, stage, t, false, core, batch_pool, obs);
                }
                for (pkt, verdict) in results.drain(..) {
                    settle(stages, stage, pkt, verdict, t, warmup_ns, sink, core, obs);
                }
                batch_pool.push(results);
            }
            KIND_FAULT => {
                let action = FaultAction::decode(stage, tag_payload(tag));
                let fault_tok = match obs.as_mut() {
                    Some(o) => o.span_begin(Phase::FaultApply),
                    None => SpanToken::noop(),
                };
                if let Some(o) = obs.as_mut() {
                    let (stage, kind) = fault_trace(action);
                    o.on_fault(t, eseq, stage, kind);
                }
                match action {
                    FaultAction::SlowdownStart { stage } => {
                        if let Some(plan) = fault_plan {
                            stages[stage].slow_factor = plan.slow_factor;
                        }
                    }
                    FaultAction::SlowdownEnd { stage } => {
                        stages[stage].slow_factor = 1.0;
                    }
                    FaultAction::DeviceDown { stage } => {
                        stages[stage].down = true;
                    }
                    FaultAction::DeviceUp { stage } => {
                        let st = &mut stages[stage];
                        st.down = false;
                        if st.cfg.batch.is_some() {
                            try_flush_batches(st, stage, t, false, core, batch_pool, obs);
                        } else {
                            // Resume draining the backlog that
                            // accumulated before the outage.
                            while st.busy < st.cfg.servers {
                                let Some((enq_t, next)) = st.queue.pop_front() else {
                                    break;
                                };
                                st.busy += 1;
                                st.in_service_pkts += 1;
                                if let Some(o) = obs.as_mut() {
                                    o.on_dispatch(t, next.id, stage, t - enq_t);
                                }
                                st.begin_service(stage, next, t, core);
                            }
                        }
                    }
                }
                if let Some(o) = obs.as_mut() {
                    o.span_end(Phase::FaultApply, fault_tok, 0);
                }
            }
            _ => unreachable!("event tag carries an unknown kind"),
        }
    }
}

impl Engine {
    fn run_stubs(
        &mut self,
        stubs: impl Iterator<Item = apples_workload::PacketStub>,
        flows: usize,
        payload_seed: u64,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> RunResult {
        assert!(warmup_ns < duration_ns, "warmup must precede the end of the run");
        // Sharded dispatch: engage only when the pipeline partitions
        // provably and any attached observer merges across shards (the
        // bounded trace ring does not — its retained window depends on
        // the global event order). An unpartitionable pipeline runs
        // serially, which satisfies the identity contract trivially.
        self.shard_diag = None;
        if self.shards > 1 && self.observer.as_ref().is_none_or(|o| o.shardable()) {
            if let Some(plan) = crate::shard::plan(&self.stages, self.shards) {
                return crate::shard::run_sharded(
                    self,
                    &plan,
                    stubs,
                    flows,
                    payload_seed,
                    duration_ns,
                    warmup_ns,
                );
            }
        }
        let window_ns = duration_ns - warmup_ns;
        let mut sink = SinkStats::new(flows);

        // Reset per-run state so an Engine can be reused safely.
        for st in &mut self.stages {
            st.reset();
        }

        // The event core carries every pooled buffer the SoA layout
        // needs; clearing (not replacing) retains their capacity, so a
        // reused engine's steady state allocates nothing.
        let mut core = EventCore {
            events: EventScheduler::new(self.scheduler),
            seq: 0,
            live: 0,
            peak_live: 0,
            total: 0,
            fwd: std::mem::take(&mut self.fwd_buf),
            arrive_slots: std::mem::take(&mut self.arrive_slots),
            arrive_free: std::mem::take(&mut self.arrive_free),
            batch_slots: std::mem::take(&mut self.batch_slots),
            batch_free: std::mem::take(&mut self.batch_free),
            fused: self.fused,
            route: None,
            synth: self.payload_synth(payload_seed),
        };
        core.fwd.clear();
        core.arrive_slots.clear();
        core.arrive_free.clear();
        core.batch_slots.clear();
        core.batch_free.clear();

        // The observer travels alongside the sink through the helpers;
        // taking it out of `self` keeps the borrows disjoint.
        let mut obs = self.observer.take();
        if let Some(o) = obs.as_mut() {
            o.ensure_stages(self.stages.len());
        }
        // The sanitizer rides the same way: out of `self` for disjoint
        // borrows, per-run state reset, handed back at the end.
        let mut san = self.sanitizer.take();
        if let Some(s) = san.as_mut() {
            s.begin_run();
        }

        // Materialize the fault plan's windowed transitions as ordinary
        // events before anything else runs: they get the lowest seqs, so
        // their relative order is fixed under both scheduler kinds.
        let fault_plan = self.fault_plan.take();
        if let Some(plan) = &fault_plan {
            for e in plan.events.iter().filter(|e| e.t_ns <= duration_ns) {
                core.push_fault(e.t_ns, e.action);
            }
        }
        let mut injected_drops = 0u64;
        let mut corrupted = 0u64;
        // Scratch buffers persist on the engine across runs: a reused
        // engine's batch kernels and bucket drains allocate nothing in
        // steady state.
        let mut batch_pool = std::mem::take(&mut self.batch_pool);
        let mut bucket = std::mem::take(&mut self.bucket_buf);
        bucket.clear();
        let mut redrain = std::mem::take(&mut self.redrain_buf);
        redrain.clear();

        // Arrivals are injected lazily: workload arrival times are
        // monotone, so holding the single next stub (rather than the
        // whole packet sequence) preserves event order exactly while
        // keeping memory independent of run length. Packet ids number
        // arrivals in stub order. Packets arrive header-only; payload
        // pipelines fill the bytes in at service entry.
        let mut pkt_id = 0u64;
        let mut stubs = stubs.take_while(|stub| stub.t_ns < duration_ns);
        let make_packet = |stub: apples_workload::PacketStub, id: u64| {
            Packet::new(id, stub.flow, stub.tuple, stub.size_bytes, stub.t_ns)
        };
        let mut next_arrival: Option<Packet> = stubs.next().map(|s| {
            let p = make_packet(s, pkt_id);
            pkt_id += 1;
            p
        });
        // Sim-time of the previous bucket, for span attribution.
        let mut last_t = 0u64;

        loop {
            // Arrivals sort before simulation events at the same time
            // (they were scheduled first in program order).
            let take_arrival = match (&next_arrival, core.events.peek_time()) {
                (Some(a), Some(t)) => a.t_arrival_ns <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };

            if take_arrival {
                // lint: allow(P1, reason = "invariant: take_arrival is only true when next_arrival matched Some in the selection above")
                let mut pkt = next_arrival.take().expect("checked above");
                let t = pkt.t_arrival_ns;
                next_arrival = stubs.next().map(|s| {
                    let p = make_packet(s, pkt_id);
                    pkt_id += 1;
                    p
                });
                // Injection-point faults: hash decisions on the packet
                // id, independent of schedule and of each other.
                if let Some(plan) = &fault_plan {
                    if plan.drops(pkt.id) {
                        injected_drops += 1;
                        if let Some(o) = obs.as_mut() {
                            o.on_fault(t, pkt.id, 0, TraceFault::InjectedDrop);
                        }
                        if t >= warmup_ns {
                            sink.drop(DropReason::Fault);
                        }
                        continue;
                    }
                    if plan.corrupts(pkt.id) {
                        pkt.corrupted = true;
                        corrupted += 1;
                        if let Some(o) = obs.as_mut() {
                            o.on_fault(t, pkt.id, 0, TraceFault::Corrupt);
                        }
                    }
                }
                arrive(
                    &mut self.stages,
                    0,
                    pkt,
                    t,
                    warmup_ns,
                    &mut sink,
                    &mut core,
                    &mut batch_pool,
                    &mut obs,
                );
                continue;
            }

            // Drain the earliest-timestamp bucket and walk everything at
            // that timestamp in ascending seq order, merging three
            // seq-sorted sources: the drained bucket, the fused-hop
            // FIFO, and scheduler re-drains (events minted *during* the
            // walk at exactly this timestamp). That merge is precisely
            // the order the serial heap engine pops — fused hops mint
            // seqs exactly where their Arrive events used to — so
            // results, traces, and telemetry are bit-identical. All
            // arrivals at <= this time were injected above, and none can
            // appear mid-walk (stub times are monotone), so the
            // arrival/event interleave is unchanged too.
            let adv_tok = match obs.as_mut() {
                Some(o) => o.span_begin(Phase::WheelAdvance),
                None => SpanToken::noop(),
            };
            core.events.drain_bucket(&mut bucket);
            let t = match bucket.first() {
                Some(&(t, _, _)) => t,
                // peek_time returned Some, so the bucket cannot be
                // empty; keep the engine total rather than panicking.
                None => break,
            };
            if let Some(o) = obs.as_mut() {
                o.span_end(Phase::WheelAdvance, adv_tok, t.saturating_sub(last_t));
            }
            last_t = t;
            if t > duration_ns {
                break;
            }
            if let Some(o) = obs.as_mut() {
                // Per-bucket gauge sample for the time series: live
                // events and scheduler occupancy at this sim time.
                o.on_tick(t, core.live_now() as u64, core.events.len() as u64);
            }
            if let Some(s) = san.as_mut() {
                // Monotone-time + uniform-timestamp checks, and (when
                // armed) the shuffle-then-merge perturbation of this
                // same-timestamp equivalence class.
                s.begin_bucket(t, &mut bucket);
            }
            let disp_tok = match obs.as_mut() {
                Some(o) => o.span_begin(Phase::Dispatch),
                None => SpanToken::noop(),
            };
            walk_bucket(
                &mut self.stages,
                t,
                warmup_ns,
                &mut bucket,
                &mut redrain,
                &mut core,
                &mut sink,
                &mut batch_pool,
                fault_plan.as_ref(),
                &mut obs,
                &mut san,
            );
            if let Some(o) = obs.as_mut() {
                o.span_end(Phase::Dispatch, disp_tok, 0);
            }
        }

        // Hand the scratch buffers and cold slabs back to the engine
        // for the next run (pool-reuse contract).
        self.batch_pool = batch_pool;
        self.bucket_buf = bucket;
        self.redrain_buf = redrain;
        self.fault_plan = fault_plan;
        if let Some(o) = obs.as_mut() {
            // Fold in the scheduler's structural counters (deterministic:
            // pure functions of the event schedule).
            o.merge_sched(core.events.counters());
        }
        self.observer = obs;
        self.sanitizer = san;
        self.fwd_buf = core.fwd;
        self.arrive_slots = core.arrive_slots;
        self.arrive_free = core.arrive_free;
        self.batch_slots = core.batch_slots;
        self.batch_free = core.batch_free;

        let stages = self
            .stages
            .iter()
            .map(|s| StageReport {
                name: s.cfg.name,
                utilization: (s.busy_ns as f64 / (duration_ns as f64 * f64::from(s.cfg.servers)))
                    .min(1.0),
                arrivals: s.arrivals,
                served: s.served,
                queue_drops: s.queue_drops,
                policy_drops: s.policy_drops,
                fault_drops: s.fault_drops,
                in_flight: s.queue.len() as u64 + s.in_service_pkts,
            })
            .collect();

        let injected = self.stages[0].arrivals;
        RunResult {
            sink,
            stages,
            window_ns,
            injected,
            injected_drops,
            corrupted,
            total_events: core.total + injected,
            peak_live_events: core.peak_live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::firewall::{Action, Firewall};
    use crate::nf::NfChain;
    use crate::service::{LineRate, NfService};

    fn forwarding_stage(servers: u32) -> StageConfig {
        StageConfig::new("core", servers, 256, Box::new(NfService::host_core(NfChain::empty())))
    }

    #[test]
    fn underloaded_pipeline_delivers_everything() {
        // 100 kpps of 64 B on one core (100 ns/packet service): ~1% load.
        let mut engine = Engine::new(vec![forwarding_stage(1)]);
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let r = engine.run(&wl, 50_000_000, 0);
        assert_eq!(r.sink.queue_drops(), 0);
        let expected = 100_000.0 * 0.05; // 5000 packets in 50 ms
        let got = r.sink.delivered_packets() as f64;
        assert!((got - expected).abs() / expected < 0.01, "delivered {got}");
        assert!(r.stages[0].utilization < 0.05);
    }

    #[test]
    fn overloaded_stage_saturates_and_drops() {
        // Service ~100 ns => capacity ~10 Mpps; offer 20 Mpps.
        let mut engine = Engine::new(vec![StageConfig::new(
            "core",
            1,
            64,
            Box::new(NfService::host_core(NfChain::empty())),
        )]);
        let wl = WorkloadSpec::cbr(20e6, 64, 4, 1);
        let r = engine.run(&wl, 10_000_000, 1_000_000);
        assert!(r.sink.queue_drops() > 0, "expected overload drops");
        assert!(r.sink.loss_rate() > 0.3, "loss {}", r.sink.loss_rate());
        assert!(r.stages[0].utilization > 0.95, "util {}", r.stages[0].utilization);
        // Delivered rate ~ capacity, not offered rate.
        let pps = r.sink.throughput_pps(r.window_ns);
        assert!(pps < 12e6, "delivered {pps} pps");
    }

    #[test]
    fn more_servers_raise_capacity() {
        let run_with = |servers: u32| {
            let mut engine = Engine::new(vec![forwarding_stage(servers)]);
            // Offer well above even 4 cores' capacity (~40 Mpps).
            let wl = WorkloadSpec::cbr(60e6, 64, 4, 1);
            let r = engine.run(&wl, 10_000_000, 1_000_000);
            r.sink.throughput_pps(r.window_ns)
        };
        let one = run_with(1);
        let four = run_with(4);
        assert!(four > 3.0 * one, "1 core {one} pps, 4 cores {four} pps");
    }

    #[test]
    fn policy_drops_are_not_loss() {
        // A deny-all firewall: every packet dropped by policy, none lost.
        let fw = Firewall::new(vec![], Action::Deny);
        let mut engine = Engine::new(vec![StageConfig::new(
            "fw",
            1,
            256,
            Box::new(NfService::host_core(NfChain::new(vec![Box::new(fw)]))),
        )]);
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let r = engine.run(&wl, 10_000_000, 0);
        assert_eq!(r.sink.delivered_packets(), 0);
        assert_eq!(r.sink.queue_drops(), 0);
        assert!(r.sink.policy_drops() > 900);
        assert_eq!(r.sink.loss_rate(), 0.0);
        assert_eq!(r.stages[0].policy_drops, r.sink.policy_drops());
    }

    #[test]
    fn latency_includes_queueing_under_load() {
        let lat_at = |rate: f64| {
            let mut engine = Engine::new(vec![forwarding_stage(1)]);
            let wl = WorkloadSpec {
                sizes: apples_workload::PacketSizeDist::Fixed(64),
                arrivals: apples_workload::ArrivalProcess::Poisson { rate_pps: rate },
                flows: 4,
                zipf_s: 0.0,
                seed: 3,
            };
            let r = engine.run(&wl, 20_000_000, 2_000_000);
            r.sink.latency().quantile_ns(0.99)
        };
        let light = lat_at(1e6); // ~10% load
        let heavy = lat_at(9e6); // ~90% load
        assert!(heavy > 2 * light, "p99 light {light} ns vs heavy {heavy} ns");
    }

    #[test]
    fn multi_stage_pipelines_accumulate_latency() {
        let mk = || StageConfig::new("link", 1, 1024, Box::new(LineRate::new("10G", 10e9)));
        let mut one = Engine::new(vec![mk()]);
        let mut three = Engine::new(vec![mk(), mk(), mk()]);
        let wl = WorkloadSpec::cbr(10_000.0, 1500, 2, 1);
        let l1 = one.run(&wl, 10_000_000, 0).sink.latency().mean_ns();
        let l3 = three.run(&wl, 10_000_000, 0).sink.latency().mean_ns();
        assert!((l3 / l1 - 3.0).abs() < 0.1, "l1 {l1} l3 {l3}");
    }

    fn batch_stage(max_batch: usize, timeout_ns: u64, kernel_ns: u64) -> StageConfig {
        StageConfig::new(
            "gpu",
            1,
            4096,
            // 30 ns marginal per packet once the kernel is launched.
            Box::new(crate::service::FixedTime::new("gpu-kernel", NfChain::empty(), 30)),
        )
        .with_batching(BatchPolicy::new(max_batch, timeout_ns, kernel_ns))
    }

    #[test]
    fn full_batches_flush_immediately() {
        // 8 packets arrive back-to-back; batch size 4 -> two batches,
        // each kernel 10 us + 4*30 ns.
        let mut engine = Engine::new(vec![batch_stage(4, 1_000_000, 10_000)]);
        let wl = WorkloadSpec::cbr(100e6, 64, 4, 1); // 10 ns spacing
        let r = engine.run(&wl, 60_000, 0);
        assert!(r.sink.delivered_packets() >= 16, "{}", r.sink.delivered_packets());
        assert!(r.stages[0].conserves_packets());
        // Latency of the first delivered packets ~ one kernel, far below
        // the 1 ms timeout: the size trigger fired, not the timer.
        assert!(r.sink.latency().quantile_ns(0.01) < 100_000);
    }

    #[test]
    fn lone_packet_waits_for_the_timeout() {
        let mut engine = Engine::new(vec![batch_stage(64, 50_000, 10_000)]);
        // One packet per 10 ms: every batch is a timeout flush of 1.
        let wl = WorkloadSpec::cbr(100.0, 64, 1, 1);
        let r = engine.run(&wl, 50_000_000, 0);
        assert!(r.sink.delivered_packets() >= 4);
        let lat = r.sink.latency().quantile_ns(0.5);
        // ~ timeout (50 us) + kernel (10 us) + marginal, within the
        // histogram's ~1.6% bucket error.
        assert!((58_000..75_000).contains(&lat), "median latency {lat} ns");
    }

    #[test]
    fn remainder_after_a_full_batch_waits_from_its_own_enqueue_time() {
        // The documented bound: with a server free, no packet waits in
        // the formation buffer longer than timeout_ns. Regression test
        // for the old behavior of re-arming the timer from the *flush*
        // time, which overcharged remainder packets by however long the
        // previous batch took.
        use apples_workload::Trace;
        const TIMEOUT: u64 = 50_000;
        const KERNEL: u64 = 10_000;
        // Exactly 9 packets, 100 ns apart (t = 100 .. 900), then silence:
        // batch 1 = packets 1-4 (size trigger), batch 2 = packets 5-8
        // (size trigger on BatchDone), packet 9 = a timer flush.
        let wl = WorkloadSpec::cbr(10e6, 64, 1, 1);
        let trace = Trace::record(&wl, 1_000);
        assert_eq!(trace.packets().len(), 9);
        let mut engine = Engine::new(vec![batch_stage(4, TIMEOUT, KERNEL)]);
        let r = engine.run_trace(&trace, 0, 5_000_000, 0);
        assert_eq!(r.sink.delivered_packets(), 9);
        // Packet 9 enqueues at t=900 while batch 2 is in flight; its
        // timer must run from t=900, so its latency is timeout + kernel
        // + marginal — NOT timeout + the in-flight batch's completion.
        let worst = r.sink.latency().quantile_ns(1.0);
        let bound = TIMEOUT + KERNEL + 4 * 30;
        assert!(
            u128::from(worst) <= u128::from(bound) * 102 / 100,
            "worst latency {worst} ns exceeds head-wait bound {bound} ns (+2% histogram error)"
        );
        assert!(worst >= TIMEOUT, "worst latency {worst} ns should include the full timeout");
    }

    #[test]
    fn batching_amortizes_kernel_overhead() {
        // Same kernel cost; batch 1 vs batch 256 at a load the former
        // cannot carry.
        let tput = |max_batch: usize| {
            let mut engine = Engine::new(vec![batch_stage(max_batch, 100_000, 10_000)]);
            let wl = WorkloadSpec::cbr(1e6, 64, 16, 1);
            let r = engine.run(&wl, 10_000_000, 1_000_000);
            r.sink.throughput_pps(r.window_ns)
        };
        let unbatched = tput(1); // 10.03 us per packet -> ~0.1 Mpps
        let batched = tput(256); // ~17.7 us per 256 packets -> >> 1 Mpps
        assert!(unbatched < 0.15e6, "unbatched {unbatched}");
        assert!(batched > 0.9e6, "batched {batched}");
    }

    #[test]
    fn batching_trades_latency_for_throughput() {
        // At a light load both configurations keep up, but the large
        // batch makes packets wait for the formation timeout.
        let p99 = |max_batch: usize, timeout: u64| {
            let mut engine = Engine::new(vec![batch_stage(max_batch, timeout, 10_000)]);
            let wl = WorkloadSpec::cbr(10_000.0, 64, 4, 1);
            let r = engine.run(&wl, 20_000_000, 2_000_000);
            r.sink.latency().quantile_ns(0.99)
        };
        let small = p99(1, 200_000);
        let large = p99(64, 200_000);
        assert!(
            large > small + 150_000,
            "large-batch p99 {large} should exceed small-batch {small} by ~the timeout"
        );
    }

    #[test]
    fn batch_stage_conserves_packets_under_overload() {
        let mut engine = Engine::new(vec![batch_stage(32, 10_000, 50_000)]);
        let wl = WorkloadSpec::cbr(5e6, 700, 8, 1);
        let r = engine.run(&wl, 5_000_000, 0);
        assert!(r.stages[0].queue_drops > 0, "overload expected");
        assert!(r.stages[0].conserves_packets(), "{:?}", r.stages[0]);
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn batch_runs_are_deterministic() {
        let run = || {
            let mut engine = Engine::new(vec![batch_stage(16, 30_000, 5_000)]);
            let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
            let r = engine.run(&wl, 5_000_000, 500_000);
            (r.sink.delivered_packets(), r.sink.latency().quantile_ns(0.99))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packets_are_conserved_at_every_stage() {
        // Overloaded two-stage pipeline: drops, queues, and in-flight
        // packets must all be accounted for.
        let mut engine = Engine::new(vec![
            StageConfig::new("front", 1, 32, Box::new(NfService::host_core(NfChain::empty()))),
            StageConfig::new("back", 1, 8, Box::new(LineRate::new("1G", 1e9))),
        ]);
        let wl = WorkloadSpec::cbr(15e6, 700, 8, 1);
        let r = engine.run(&wl, 5_000_000, 0);
        assert!(r.injected > 0);
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks packets: {s:?}", s.name);
        }
        // Cross-stage conservation: what the front forwards equals what
        // the back receives.
        let front = &r.stages[0];
        let back = &r.stages[1];
        assert_eq!(front.served - front.policy_drops, back.arrivals);
        // Global: delivered + drops + in-flight across stages == injected.
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn trace_replay_matches_the_generator_bit_for_bit() {
        use apples_workload::Trace;
        let wl = WorkloadSpec::cbr(2e6, 700, 16, 9);
        let trace = Trace::record(&wl, 5_000_000);

        let mut live = Engine::new(vec![forwarding_stage(2)]);
        let a = live.run(&wl, 5_000_000, 500_000);

        let mut replay = Engine::new(vec![forwarding_stage(2)]);
        let b = replay.run_trace(&trace, wl.seed, 5_000_000, 500_000);

        assert_eq!(a.sink.delivered_packets(), b.sink.delivered_packets());
        assert_eq!(a.sink.latency().quantile_ns(0.99), b.sink.latency().quantile_ns(0.99));
        assert_eq!(a.stages[0].served, b.stages[0].served);
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn csv_imported_trace_drives_the_engine() {
        use apples_workload::Trace;
        let wl = WorkloadSpec::cbr(1e6, 400, 4, 3);
        let csv = Trace::record(&wl, 2_000_000).to_csv();
        let imported = Trace::from_csv(&csv).expect("parses");
        let mut engine = Engine::new(vec![forwarding_stage(1)]);
        let r = engine.run_trace(&imported, 0, 2_000_000, 0);
        assert!(r.sink.delivered_packets() > 1900, "{}", r.sink.delivered_packets());
        assert!(r.stages[0].conserves_packets());
    }

    #[test]
    fn engine_reuse_resets_state() {
        let mut engine = Engine::new(vec![forwarding_stage(1)]);
        let wl = WorkloadSpec::cbr(20e6, 64, 4, 1);
        let a = engine.run(&wl, 5_000_000, 0);
        let b = engine.run(&wl, 5_000_000, 0);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.sink.delivered_packets(), b.sink.delivered_packets());
        assert_eq!(a.stages[0].queue_drops, b.stages[0].queue_drops);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut engine = Engine::new(vec![forwarding_stage(2)]);
            let wl = WorkloadSpec::cbr(5e6, 200, 16, 9);
            let r = engine.run(&wl, 5_000_000, 500_000);
            (r.sink.delivered_packets(), r.sink.latency().quantile_ns(0.999), r.stages[0].served)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_memory_is_bounded_by_live_events_not_total() {
        // A long, busy run schedules hundreds of thousands of events;
        // the slab's high-water mark must stay proportional to what is
        // simultaneously in flight (a handful of service completions
        // plus queued forwards), not to the run length.
        let mut engine = Engine::new(vec![
            StageConfig::new("front", 2, 128, Box::new(NfService::host_core(NfChain::empty()))),
            StageConfig::new("back", 1, 128, Box::new(LineRate::new("10G", 10e9))),
        ]);
        let wl = WorkloadSpec::cbr(8e6, 200, 16, 7);
        let r = engine.run(&wl, 50_000_000, 0);
        assert!(r.total_events > 400_000, "total events {}", r.total_events);
        assert!(
            r.peak_live_events < 64,
            "peak live events {} should be O(in-flight), total {}",
            r.peak_live_events,
            r.total_events
        );
    }

    #[test]
    fn wheel_and_heap_schedulers_produce_identical_results() {
        // The core A/B: the timing wheel must be observationally
        // indistinguishable from the reference heap — full RunResult
        // equality (histogram counts included) across pipeline shapes.
        type Build = (&'static str, fn() -> Engine, WorkloadSpec);
        let builds: Vec<Build> = vec![
            ("forward-2stage", || Engine::new(vec![forwarding_stage(2)]), {
                WorkloadSpec::cbr(5e6, 200, 16, 9)
            }),
            (
                "overloaded",
                || {
                    Engine::new(vec![
                        StageConfig::new(
                            "front",
                            1,
                            32,
                            Box::new(NfService::host_core(NfChain::empty())),
                        ),
                        StageConfig::new("back", 1, 8, Box::new(LineRate::new("1G", 1e9))),
                    ])
                },
                WorkloadSpec::cbr(15e6, 700, 8, 1),
            ),
            (
                "batch-gpu",
                || Engine::new(vec![batch_stage(16, 30_000, 5_000)]),
                WorkloadSpec::cbr(2e6, 200, 8, 3),
            ),
        ];
        for (name, build, wl) in builds {
            let a = build()
                .with_scheduler(crate::sched::SchedulerKind::Wheel)
                .run(&wl, 5_000_000, 500_000);
            let b = build()
                .with_scheduler(crate::sched::SchedulerKind::Heap)
                .run(&wl, 5_000_000, 500_000);
            assert_eq!(a, b, "scheduler A/B mismatch on {name}");
        }
    }

    #[test]
    fn scratch_buffers_retain_capacity_across_runs() {
        // The batch-result pool and the bucket buffer persist on the
        // engine: a second run must start with the first run's
        // capacity instead of reallocating from scratch.
        let mut engine = Engine::new(vec![batch_stage(16, 30_000, 5_000)]);
        let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
        let _ = engine.run(&wl, 5_000_000, 500_000);
        let pooled = engine.batch_pool.len();
        let pooled_cap: usize = engine.batch_pool.iter().map(Vec::capacity).sum();
        let bucket_cap = engine.bucket_buf.capacity();
        assert!(pooled > 0, "batch pool should retain drained buffers");
        assert!(pooled_cap >= 16, "pooled buffers should keep batch-sized capacity");
        assert!(bucket_cap > 0, "bucket buffer should retain capacity");
        let a = engine.run(&wl, 5_000_000, 500_000);
        assert!(
            engine.batch_pool.iter().map(Vec::capacity).sum::<usize>() >= pooled_cap,
            "second run must not shrink the pooled capacity"
        );
        assert!(engine.bucket_buf.capacity() >= bucket_cap);
        // Reuse must not perturb results.
        let b = Engine::new(vec![batch_stage(16, 30_000, 5_000)]).run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let wl = WorkloadSpec::cbr(5e6, 200, 16, 9);
        let a = Engine::new(vec![forwarding_stage(2)]).run(&wl, 5_000_000, 500_000);
        let b = Engine::new(vec![forwarding_stage(2)])
            .with_fault_plan(crate::fault::FaultPlan::none())
            .run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b);
    }

    fn severe_plan(stages: usize) -> crate::fault::FaultPlan {
        crate::fault::FaultPlan::derive(
            1234,
            &crate::fault::FaultSpec::at_severity(1.0),
            stages,
            5_000_000,
        )
    }

    #[test]
    fn faulted_runs_conserve_packets() {
        // Outage-heavy spec so the 5 ms run reliably sees down windows.
        let spec = crate::fault::FaultSpec {
            drop_prob: 0.05,
            corrupt_prob: 0.0,
            slowdown: None,
            outage: Some(crate::fault::OutageSpec { mtbf_ns: 800_000, mttr_ns: 400_000 }),
        };
        let plan = crate::fault::FaultPlan::derive(1234, &spec, 2, 5_000_000);
        let mk = || {
            Engine::new(vec![
                StageConfig::new("front", 2, 64, Box::new(NfService::host_core(NfChain::empty()))),
                StageConfig::new("back", 1, 64, Box::new(LineRate::new("10G", 10e9))),
            ])
            .with_fault_plan(plan.clone())
        };
        let wl = WorkloadSpec::cbr(4e6, 400, 8, 5);
        let r = mk().run(&wl, 5_000_000, 0);
        assert!(r.injected_drops > 0, "severity-1 plan must drop at the injection point");
        let total_fault_drops: u64 = r.stages.iter().map(|s| s.fault_drops).sum();
        assert!(total_fault_drops > 0, "outage windows must drop arrivals");
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks packets: {s:?}", s.name);
        }
        let accounted = r.sink.delivered_packets()
            + r.stages
                .iter()
                .map(|s| s.queue_drops + s.policy_drops + s.fault_drops + s.in_flight)
                .sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn faulted_runs_replay_from_seed_and_plan_alone() {
        let mk = || Engine::new(vec![forwarding_stage(2)]).with_fault_plan(severe_plan(1));
        let wl = WorkloadSpec::cbr(4e6, 400, 8, 5);
        let a = mk().run(&wl, 5_000_000, 500_000);
        let b = mk().run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b, "(seed, FaultPlan) must fully determine the run");
    }

    #[test]
    fn faulted_wheel_and_heap_runs_are_identical() {
        let mk = |kind| {
            Engine::new(vec![
                StageConfig::new("front", 2, 64, Box::new(NfService::host_core(NfChain::empty()))),
                StageConfig::new("back", 1, 64, Box::new(LineRate::new("10G", 10e9))),
            ])
            .with_fault_plan(severe_plan(2))
            .with_scheduler(kind)
        };
        let wl = WorkloadSpec::cbr(4e6, 400, 8, 5);
        let a = mk(crate::sched::SchedulerKind::Wheel).run(&wl, 5_000_000, 500_000);
        let b = mk(crate::sched::SchedulerKind::Heap).run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b, "fault events must not break the scheduler A/B");
    }

    #[test]
    fn faulted_batch_stage_conserves_and_replays() {
        let mk =
            || Engine::new(vec![batch_stage(16, 30_000, 5_000)]).with_fault_plan(severe_plan(1));
        let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
        let a = mk().run(&wl, 5_000_000, 0);
        let b = mk().run(&wl, 5_000_000, 0);
        assert_eq!(a, b);
        assert!(a.stages[0].conserves_packets(), "{:?}", a.stages[0]);
    }

    #[test]
    fn engine_reuse_keeps_the_fault_plan() {
        let mut engine = Engine::new(vec![forwarding_stage(1)]).with_fault_plan(severe_plan(1));
        let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
        let a = engine.run(&wl, 5_000_000, 0);
        let b = engine.run(&wl, 5_000_000, 0);
        assert_eq!(a, b, "a reused engine must re-apply the same plan");
        assert!(a.injected_drops > 0);
    }

    #[test]
    fn slowdown_windows_degrade_throughput() {
        // Pure slowdown (no loss, no outage): the run must deliver
        // strictly less than the fault-free run at a load near capacity.
        let spec = crate::fault::FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            slowdown: Some(crate::fault::SlowdownSpec {
                mean_period_ns: 400_000,
                duration_ns: 300_000,
                factor: 8.0,
            }),
            outage: None,
        };
        let plan = crate::fault::FaultPlan::derive(7, &spec, 1, 10_000_000);
        assert!(!plan.events.is_empty());
        let wl = WorkloadSpec::cbr(8e6, 64, 8, 5);
        let clean = Engine::new(vec![forwarding_stage(1)]).run(&wl, 10_000_000, 1_000_000);
        let slowed = Engine::new(vec![forwarding_stage(1)])
            .with_fault_plan(plan)
            .run(&wl, 10_000_000, 1_000_000);
        assert!(
            slowed.sink.delivered_packets() < clean.sink.delivered_packets() * 95 / 100,
            "slowdown should cost >5% of deliveries: clean {} vs slowed {}",
            clean.sink.delivered_packets(),
            slowed.sink.delivered_packets()
        );
        assert_eq!(slowed.injected_drops, 0);
    }

    #[test]
    fn corruption_with_fail_closed_chain_raises_policy_drops() {
        use crate::nf::firewall::{Action, Firewall};
        let mk = |corrupt_prob: f64| {
            let fw =
                Firewall::new(vec![crate::nf::firewall::Rule::any(Action::Allow)], Action::Allow);
            let plan = crate::fault::FaultPlan {
                seed: 5,
                drop_prob: 0.0,
                corrupt_prob,
                slow_factor: 1.0,
                events: Vec::new(),
            };
            Engine::new(vec![StageConfig::new(
                "fw",
                1,
                256,
                Box::new(NfService::host_core(NfChain::new(vec![Box::new(fw)]))),
            )])
            .with_fault_plan(plan)
        };
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let clean = mk(0.0).run(&wl, 10_000_000, 0);
        assert_eq!(clean.sink.policy_drops(), 0);
        assert_eq!(clean.corrupted, 0);
        let noisy = mk(0.2).run(&wl, 10_000_000, 0);
        assert!(noisy.corrupted > 0);
        assert_eq!(
            noisy.sink.policy_drops(),
            noisy.corrupted,
            "every corrupted packet must be dropped by the fail-closed firewall"
        );
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn warmup_must_precede_end() {
        let mut engine = Engine::new(vec![forwarding_stage(1)]);
        let wl = WorkloadSpec::cbr(1000.0, 64, 1, 1);
        let _ = engine.run(&wl, 1000, 1000);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = Engine::new(vec![]);
    }
}
