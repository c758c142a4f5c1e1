//! The flow scheduler: incremental max–min fair rate allocation.
//!
//! # Allocator architecture
//!
//! Rates are the classic progressive-filling max–min fair allocation over
//! the resources each flow crosses (source uplink, destination downlink,
//! the switch aggregate, and an optional per-flow cap). Two solvers
//! produce that allocation:
//!
//! * [`SolverMode::Incremental`] (the default) keeps persistent
//!   bookkeeping — flat flow storage, per-node in/out flow adjacency,
//!   reusable scratch tables — so a recompute allocates nothing. When the
//!   switch aggregate provably cannot be a bottleneck (capacity at least
//!   twice the summed NIC capacity, see [`FlowNet::switch_decoupled`]), a
//!   change re-solves only the flows transitively sharing a node with
//!   the changed flow (the connected component); everyone else keeps
//!   their rate bit-for-bit. That path costs O(size of the component):
//!   the component is walked over the adjacency lists, and the
//!   water-filling runs over the component's own resources only.
//!   Removing a flow additionally shifts the flat flow tables, a memmove.
//!   When the switch can bind, every change re-solves the full flow set.
//! * [`SolverMode::Reference`] re-runs the original from-scratch
//!   water-filling on every change. It is kept as a test oracle: the
//!   incremental solver must produce **bit-identical** rates, reports and
//!   completion times (asserted by the `equivalence` proptest suite and
//!   the fig3/fig4/fig5 report-identity tests).
//!
//! # Epoch-based progress accounting
//!
//! [`FlowNet::advance`] is O(1): it only moves the network clock. Each
//! flow remembers `(rate, remaining, touched)` from the last time its
//! rate changed; delivered bytes are materialized lazily — when the
//! solver assigns a *different* rate, when the flow completes or is
//! cancelled, or projected on the fly for queries. Between rate changes
//! a flow's progress is exactly linear, so nothing is lost by not
//! walking every flow on every event.
//!
//! The same triple fixes a flow's finish time, so it is computed once
//! per rate change and cached; [`FlowNet::next_completion`] is then a
//! compare-only scan (no division) over the cached finish times.

use crate::reference;
use crate::topology::{NodeId, Topology};
use lsm_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Handle to an in-flight network flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Classification of network traffic, used to reproduce the paper's
/// per-cause traffic accounting (Figures 3b, 4b, 5b).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum TrafficTag {
    /// Memory pre-copy / post-copy transfer performed by the hypervisor.
    Memory,
    /// Chunks actively pushed source→destination before control transfer.
    StoragePush,
    /// Chunks pulled destination←source after control transfer
    /// (both prioritized prefetch and on-demand pulls).
    StoragePull,
    /// Synchronous write mirroring (the `mirror` baseline).
    Mirror,
    /// On-demand base-image fetches from the striped repository.
    RepoFetch,
    /// I/O redirected to the parallel file system (`pvfs-shared` baseline).
    PvfsIo,
    /// Application-level traffic (e.g. CM1 halo exchanges).
    AppNet,
    /// Small control messages (migration requests, chunk lists, acks).
    Control,
}

impl TrafficTag {
    /// All tags, for report iteration.
    pub const ALL: [TrafficTag; 8] = [
        TrafficTag::Memory,
        TrafficTag::StoragePush,
        TrafficTag::StoragePull,
        TrafficTag::Mirror,
        TrafficTag::RepoFetch,
        TrafficTag::PvfsIo,
        TrafficTag::AppNet,
        TrafficTag::Control,
    ];

    /// Dense index of the tag (position in [`TrafficTag::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True if this traffic is attributable to live migration itself
    /// (the paper's Fig 5b subtracts application traffic).
    pub fn is_migration(self) -> bool {
        !matches!(self, TrafficTag::AppNet)
    }
}

/// Number of traffic classes (length of [`TrafficTag::ALL`]).
const NTAGS: usize = TrafficTag::ALL.len();

/// Sentinel padding a flow's fixed-width resource row (uncapped flows
/// cross three resources, capped flows four).
const NO_RES: u32 = u32::MAX;

/// Sentinel rate marking a flow not yet frozen by the water-filling
/// (fair shares are clamped non-negative, so this can never collide).
const UNFIXED: f64 = -1.0;

/// Which max–min solver computes flow rates. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Persistent-state incremental solver with component dirty-marking
    /// (the production path).
    #[default]
    Incremental,
    /// From-scratch progressive filling on every change — the original
    /// implementation, kept as a correctness oracle for tests.
    Reference,
}

/// Read-only snapshot of one in-flight flow (see
/// [`FlowNet::flow_views`]).
#[derive(Clone, Copy, Debug)]
pub struct FlowView {
    /// The flow's handle.
    pub id: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Current allocated rate, bytes/second.
    pub rate: f64,
    /// Bytes not yet delivered, projected to the network clock.
    pub remaining: f64,
    /// Per-flow rate cap, if any.
    pub cap: Option<f64>,
    /// Traffic classification.
    pub tag: TrafficTag,
}

#[derive(Debug, Clone)]
pub(crate) struct Flow {
    pub(crate) id: FlowId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    /// Requested size at creation — the integer credited to the traffic
    /// accounting when the flow finishes.
    pub(crate) bytes: u64,
    /// Bytes left at `touched` (not at the network clock!).
    pub(crate) remaining: f64,
    pub(crate) rate: f64,
    pub(crate) cap: Option<f64>,
    pub(crate) tag: TrafficTag,
    /// Instant of the last materialization (rate change / creation).
    pub(crate) touched: SimTime,
}

impl Flow {
    /// Bytes moved between `touched` and `at` (projection, no mutation).
    #[inline]
    fn moved_until(&self, at: SimTime) -> f64 {
        let dt = at.since(self.touched).as_secs_f64();
        (self.rate * dt).min(self.remaining)
    }
}

/// Reusable solver state: everything the incremental allocator needs
/// across recomputes, so a recompute performs no allocation once the
/// buffers reached steady-state capacity. A component solve touches only
/// the entries of its own component; the per-node tables are sized once
/// at construction and never reset.
#[derive(Debug, Default)]
struct Scratch {
    /// Residual capacity per resource. Full solve: uplinks, downlinks,
    /// switch, then one virtual resource per capped flow. Component
    /// solve: the same layout over the component's nodes only.
    cap_left: Vec<f64>,
    /// Unfixed member flows crossing each resource.
    count: Vec<u32>,
    /// Per-member-flow resource index rows ([`NO_RES`]-padded).
    flow_res: Vec<[u32; 4]>,
    /// Solved rates per member flow; [`UNFIXED`] marks not-yet-frozen
    /// flows during the water-filling (real shares are never negative).
    new_rates: Vec<f64>,
    /// Member flow ids, then their indices into `FlowNet::flows`; both
    /// ascending.
    member_ids: Vec<FlowId>,
    mflows: Vec<u32>,
    /// The component's nodes: discovery order during the walk (it doubles
    /// as the work queue), then ascending.
    cnodes: Vec<u32>,
    /// Per node: the walk epoch that last reached it (so "seen" needs no
    /// reset), and its rank in `cnodes` (valid for reached nodes only).
    node_epoch: Vec<u32>,
    node_rank: Vec<u32>,
    epoch: u32,
}

/// The flow-level network simulator. See the crate docs for the model.
#[derive(Debug)]
pub struct FlowNet {
    topo: Topology,
    /// Active flows, ascending by id (ids are issued monotonically, so
    /// insertion is a push; removal is a binary search + shift).
    flows: Vec<Flow>,
    /// Persistent per-flow resource rows, parallel to `flows`:
    /// `[src uplink, dst downlink, switch, virtual-cap or NO_RES]`. Rows
    /// are constants except the virtual-cap index, which shifts when an
    /// earlier capped flow leaves (fixed up during removal).
    rows: Vec<[u32; 4]>,
    /// Caps of the capped flows, in flow order — the tail of `cap_left`
    /// after the physical resources.
    caps_list: Vec<f64>,
    next_id: u64,
    last_advance: SimTime,
    /// Bytes credited by *finished* flows (completed or cancelled) per
    /// traffic class, indexed by [`TrafficTag::index`]. Integer on
    /// purpose: summing per-shard counters is then order-independent, so
    /// a sharded run's merged traffic report is bit-identical to the
    /// monolithic one. Queries add the live flows' lazy projection on
    /// top.
    finished: [u64; NTAGS],
    finished_total: u64,
    peak_active: usize,
    /// Optional changepoint log of `(time, live-flow count)`, recorded
    /// after every flow-set mutation (one entry per instant, last write
    /// wins). The sharded runner enables this to reconstruct the exact
    /// *global* concurrent-flow peak across shards; see
    /// [`FlowNet::enable_load_log`].
    load_log: Option<Vec<(SimTime, u32)>>,
    solver: SolverMode,
    /// True when the switch aggregate can never be the binding resource
    /// (see [`FlowNet::switch_decoupled`]); enables component-restricted
    /// re-solves.
    decoupled: bool,
    /// *Current* capacities of the `2n + 1` physical resources (uplinks,
    /// downlinks, switch), so a full solve initializes `cap_left` with a
    /// memcpy instead of per-node lookups. Kept in lockstep with the
    /// topology when [`FlowNet::set_link_factor`] mutates capacities.
    caps_flat: Vec<f64>,
    /// Pristine per-node NIC capacities captured at construction: the
    /// restore target for runtime link degradation.
    base_caps: Vec<crate::topology::NodeCaps>,
    /// Current degradation factor per node (1.0 = pristine).
    factors: Vec<f64>,
    /// Live-flow counts per physical resource, maintained on every flow
    /// insert/remove — the full solve's `count` table starts as a copy.
    count_all: Vec<u32>,
    /// Cached finish time per flow, parallel to `flows` (see
    /// [`finish_time`]); refreshed whenever a flow's rate changes.
    finish: Vec<SimTime>,
    /// Per node, the live flows leaving it as `(id, dst)` and entering it
    /// as `(id, src)`, in no particular order. The component walk follows
    /// these instead of scanning every flow.
    out_adj: Vec<Vec<(FlowId, u32)>>,
    in_adj: Vec<Vec<(FlowId, u32)>>,
    scratch: Scratch,
}

impl FlowNet {
    /// Create a network over `topo` with no flows.
    pub fn new(topo: Topology) -> Self {
        let decoupled = Self::switch_decoupled(&topo);
        let n = topo.len();
        let mut caps_flat = Vec::with_capacity(2 * n + 1);
        for i in 0..n {
            caps_flat.push(topo.caps(NodeId(i as u32)).up);
        }
        for i in 0..n {
            caps_flat.push(topo.caps(NodeId(i as u32)).down);
        }
        caps_flat.push(topo.switch_capacity);
        let base_caps: Vec<crate::topology::NodeCaps> =
            topo.node_ids().map(|i| topo.caps(i)).collect();
        FlowNet {
            topo,
            flows: Vec::new(),
            rows: Vec::new(),
            caps_list: Vec::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            finished: [0; NTAGS],
            finished_total: 0,
            peak_active: 0,
            load_log: None,
            solver: SolverMode::default(),
            decoupled,
            caps_flat,
            base_caps,
            factors: vec![1.0; n],
            count_all: vec![0; 2 * n + 1],
            finish: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            scratch: Scratch {
                node_epoch: vec![0; n],
                node_rank: vec![0; n],
                ..Scratch::default()
            },
        }
    }

    /// Whether the switch aggregate is provably never the most
    /// constrained resource: its capacity is at least **twice** the
    /// summed uplink and downlink capacities. (The mediant inequality
    /// gives `min_i up_i/c_i ≤ Σup/Σc ≤ switch_left/Σc` whenever
    /// `switch ≥ Σup`; the factor two keeps the comparison safely out of
    /// floating-point rounding range.) When true, flows on disjoint node
    /// sets are genuinely independent and the incremental solver
    /// re-solves only the changed component.
    pub fn switch_decoupled(topo: &Topology) -> bool {
        let mut sum_up = 0.0f64;
        let mut sum_down = 0.0f64;
        for n in topo.node_ids() {
            let caps = topo.caps(n);
            sum_up += caps.up;
            sum_down += caps.down;
        }
        topo.switch_capacity >= 2.0 * sum_up.max(sum_down)
    }

    /// Select the rate solver. The reference solver is a from-scratch
    /// oracle for tests; both must produce bit-identical allocations.
    pub fn set_solver(&mut self, mode: SolverMode) {
        self.solver = mode;
    }

    /// The active solver.
    pub fn solver(&self) -> SolverMode {
        self.solver
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// One-way control-message latency of the fabric.
    pub fn latency(&self) -> SimDuration {
        self.topo.latency
    }

    /// Number of in-flight flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Highest number of concurrently live flows seen so far, sampled at
    /// the end of every simulated instant (whenever the network clock
    /// strictly advances past a batch of flow operations).
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Start recording `(time, live-flow count)` changepoints, one entry
    /// per instant at which the flow set changed. The sharded engine
    /// turns this on for every shard and merges the logs to
    /// recover the global concurrent-flow peak exactly as the monolithic
    /// engine would have sampled it.
    pub fn enable_load_log(&mut self) {
        if self.load_log.is_none() {
            self.load_log = Some(Vec::new());
        }
    }

    /// The recorded changepoint log (empty unless
    /// [`Self::enable_load_log`] was called before any flow started).
    pub fn load_log(&self) -> &[(SimTime, u32)] {
        self.load_log.as_deref().unwrap_or(&[])
    }

    /// Record the current flow count against the current instant
    /// (last write at the same instant wins: the log keeps only
    /// end-of-instant states).
    #[inline]
    fn log_load(&mut self) {
        if let Some(log) = &mut self.load_log {
            let n = self.flows.len() as u32;
            match log.last_mut() {
                Some(e) if e.0 == self.last_advance => e.1 = n,
                _ => log.push((self.last_advance, n)),
            }
        }
    }

    #[inline]
    fn flow_pos(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Start a bulk transfer of `bytes` from `src` to `dst`.
    ///
    /// `cap` optionally rate-limits this flow (bytes/second) on top of the
    /// fair share — this is how QEMU's `migrate_set_speed` is modeled.
    ///
    /// Panics if `src == dst`; local data movement never crosses the
    /// network and must be modeled on the node's disk/cache instead.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cap: Option<f64>,
        tag: TrafficTag,
    ) -> FlowId {
        assert!(src != dst, "loopback flows are not network flows");
        assert!(src.idx() < self.topo.len() && dst.idx() < self.topo.len());
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let flow = Flow {
            id,
            src,
            dst,
            bytes,
            remaining: bytes as f64,
            rate: 0.0,
            cap,
            tag,
            touched: now,
        };
        self.finish.push(finish_time(&flow));
        self.flows.push(flow);
        self.out_adj[src.idx()].push((id, dst.0));
        self.in_adj[dst.idx()].push((id, src.0));
        let n = self.topo.len();
        let vres = match cap {
            Some(c) => {
                self.caps_list.push(c);
                (2 * n + self.caps_list.len()) as u32
            }
            None => NO_RES,
        };
        self.rows
            .push([src.0, n as u32 + dst.0, 2 * n as u32, vres]);
        self.count_all[src.idx()] += 1;
        self.count_all[n + dst.idx()] += 1;
        self.count_all[2 * n] += 1;
        self.log_load();
        self.reallocate(src, dst);
        id
    }

    /// Remove the flow at `pos` from every table (flows, rows, cached
    /// finish times, adjacency, resource counts) after materializing its
    /// progress to the network clock, and return it.
    fn take_flow(&mut self, pos: usize) -> Flow {
        self.materialize(pos);
        let f = self.flows.remove(pos);
        self.finish.remove(pos);
        self.remove_row(pos);
        let (s, d) = (f.src.idx(), f.dst.idx());
        unlink(&mut self.out_adj[s], f.id);
        unlink(&mut self.in_adj[d], f.id);
        let n = self.topo.len();
        self.count_all[s] -= 1;
        self.count_all[n + d] -= 1;
        self.count_all[2 * n] -= 1;
        f
    }

    /// Remove a flow's resource row, shifting later capped flows'
    /// virtual-resource indices down if the flow was capped.
    fn remove_row(&mut self, pos: usize) {
        let row = self.rows.remove(pos);
        if row[3] != NO_RES {
            let base = (2 * self.topo.len() + 1) as u32;
            self.caps_list.remove((row[3] - base) as usize);
            for r in &mut self.rows[pos..] {
                if r[3] != NO_RES {
                    r[3] -= 1;
                }
            }
        }
    }

    /// Cancel an in-flight flow, returning the bytes not yet delivered.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.advance(now);
        let pos = self.flow_pos(id)?;
        let f = self.take_flow(pos);
        let left = f.remaining.ceil().max(0.0) as u64;
        let done = f.bytes.saturating_sub(left);
        self.finished[f.tag.index()] += done;
        self.finished_total += done;
        self.log_load();
        self.reallocate(f.src, f.dst);
        Some(left)
    }

    /// Mark a flow complete at `now` (which must be its completion time as
    /// previously reported by [`Self::next_completion`]).
    pub fn complete(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        let pos = self.flow_pos(id).expect("completing unknown flow");
        let f = self.take_flow(pos);
        debug_assert!(
            f.remaining < 1.0,
            "flow completed with {} bytes left",
            f.remaining
        );
        // Credit the requested size exactly (swallowing the sub-byte
        // numerical residue), so per-tag totals equal the sum of flow
        // sizes and are integers — order-independent across shards.
        self.finished[f.tag.index()] += f.bytes;
        self.finished_total += f.bytes;
        self.log_load();
        self.reallocate(f.src, f.dst);
    }

    /// Earliest `(finish_time, flow)` among in-flight flows, never
    /// earlier than the network clock. Deterministic: ties (including
    /// every overdue flow, which all clamp to the clock) resolve to the
    /// lowest flow id. A compare-only scan of the cached finish times.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        let now = self.last_advance;
        let mut best: Option<(SimTime, usize)> = None;
        for (i, &t) in self.finish.iter().enumerate() {
            let t = t.max(now);
            match best {
                Some((bt, _)) if t >= bt => {}
                _ => best = Some((t, i)),
            }
        }
        best.map(|(t, i)| (t, self.flows[i].id))
    }

    /// [`Self::next_completion`] recomputed by the original linear scan,
    /// which derives every finish time afresh: an independent oracle for
    /// the cached lookup in the equivalence tests.
    #[doc(hidden)]
    pub fn reference_next_completion(&self) -> Option<(SimTime, FlowId)> {
        reference::next_completion(&self.flows, self.last_advance)
    }

    /// Move the network clock to `now`. O(1): per-flow progress is
    /// tracked lazily from `(rate, touched)` and materialized only when a
    /// flow's rate changes (or on completion/cancellation/queries).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "network time went backwards");
        if now > self.last_advance {
            // The previous instant is over: sample the concurrency peak
            // on its final flow set. End-of-instant sampling is
            // insensitive to the order flow operations interleave
            // *within* an instant, which is what lets the sharded merge
            // reproduce the monolithic value exactly.
            self.peak_active = self.peak_active.max(self.flows.len());
            self.last_advance = now;
        }
    }

    /// Materialize flow `pos`'s progress up to the network clock.
    fn materialize(&mut self, pos: usize) {
        let now = self.last_advance;
        let f = &mut self.flows[pos];
        let moved = f.moved_until(now);
        f.remaining -= moved;
        f.touched = now;
    }

    /// Delivered bytes of one class: finished flows' integer credit plus
    /// the live flows' projected progress.
    fn delivered_f64(&self, tag: TrafficTag) -> f64 {
        let mut v = self.finished[tag.index()] as f64;
        for f in &self.flows {
            if f.tag == tag {
                v += f.bytes as f64 - f.remaining + f.moved_until(self.last_advance);
            }
        }
        v
    }

    /// Bytes delivered so far for a traffic class.
    pub fn delivered(&self, tag: TrafficTag) -> u64 {
        self.delivered_f64(tag).round() as u64
    }

    /// Total bytes delivered across all classes.
    pub fn total_delivered(&self) -> u64 {
        let mut v = self.finished_total as f64;
        for f in &self.flows {
            v += f.bytes as f64 - f.remaining + f.moved_until(self.last_advance);
        }
        v.round() as u64
    }

    /// Bytes delivered for every migration-attributable class
    /// (everything except [`TrafficTag::AppNet`]).
    pub fn migration_delivered(&self) -> u64 {
        TrafficTag::ALL
            .iter()
            .filter(|t| t.is_migration())
            .map(|&t| self.delivered_f64(t))
            .sum::<f64>()
            .round() as u64
    }

    /// Record control-message bytes (modeled latency-only, but the bytes
    /// still appear in the traffic accounting).
    pub fn account_control(&mut self, bytes: u64) {
        self.finished[TrafficTag::Control.index()] += bytes;
        self.finished_total += bytes;
    }

    /// Current rate of a flow in bytes/second, if in flight.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.flow_pos(id).map(|i| self.flows[i].rate)
    }

    /// Bytes remaining for a flow, if in flight.
    pub fn remaining_of(&self, id: FlowId) -> Option<u64> {
        self.flow_pos(id).map(|i| {
            let f = &self.flows[i];
            (f.remaining - f.moved_until(self.last_advance)).ceil() as u64
        })
    }

    // ---------------- runtime capacity mutation ----------------

    /// Scale a node's NIC capacities (uplink and downlink) to `factor`
    /// times their *pristine* value — the network half of a link
    /// degradation (`factor < 1`) or restoration (`factor == 1`) fault.
    ///
    /// Factors are absolute, not cumulative: two successive
    /// `set_link_factor(.., 0.5)` calls leave the link at half capacity,
    /// not a quarter. Every in-flight flow whose rate can change is
    /// re-solved immediately under the active [`SolverMode`]; the
    /// incremental solver re-solves only the affected component when the
    /// switch aggregate permits, and stays bit-identical to
    /// [`SolverMode::Reference`] (asserted by the equivalence proptests).
    ///
    /// Panics if `factor` is not in `(0, 1]` — a zero-capacity link
    /// would park its flows at rate 0 forever; model a dead node with a
    /// crash fault instead.
    pub fn set_link_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "link factor {factor} outside (0, 1]"
        );
        self.advance(now);
        let base = self.base_caps[node.idx()];
        let caps = crate::topology::NodeCaps {
            up: base.up * factor,
            down: base.down * factor,
        };
        self.factors[node.idx()] = factor;
        // The topology is what the reference solver reads; the flat table
        // is what the incremental solver reads. Both must move together.
        self.topo.set_caps(node, caps);
        let n = self.topo.len();
        self.caps_flat[node.idx()] = caps.up;
        self.caps_flat[n + node.idx()] = caps.down;
        // Capacity sums changed, so re-derive whether the switch can bind.
        let was_decoupled = self.decoupled;
        self.decoupled = Self::switch_decoupled(&self.topo);
        if self.decoupled && !was_decoupled {
            // The switch may have been binding flows in *other*
            // components until this very change; a component-restricted
            // re-solve would leave their now-stale rates in place. One
            // full solve re-establishes the per-component regime.
            if !self.flows.is_empty() && self.solver == SolverMode::Incremental {
                self.solve_all();
                self.apply_rates_all();
                return;
            }
        }
        // Only flows in this node's component can change rate.
        self.reallocate(node, node);
    }

    /// Current degradation factor of a node's NIC (1.0 = pristine).
    pub fn link_factor(&self, node: NodeId) -> f64 {
        self.factors[node.idx()]
    }

    // ---------------- flow inspection ----------------

    /// Read-only snapshots of every in-flight flow, ascending by id.
    /// Rates are the current allocation; `remaining` projects progress
    /// up to the network clock. Used by invariant checkers to audit
    /// conservation laws without touching solver state.
    pub fn flow_views(&self) -> impl Iterator<Item = FlowView> + '_ {
        self.flows.iter().map(move |f| FlowView {
            id: f.id,
            src: f.src,
            dst: f.dst,
            rate: f.rate,
            remaining: (f.remaining - f.moved_until(self.last_advance)).max(0.0),
            cap: f.cap,
            tag: f.tag,
        })
    }

    /// Ids of every in-flight flow with `node` as source or destination
    /// (ascending). A node-crash fault severs exactly these.
    pub fn flows_touching(&self, node: NodeId) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.src == node || f.dst == node)
            .map(|f| f.id)
            .collect()
    }

    // ---------------- rate allocation ----------------

    /// Recompute rates after a flow set change touching `(src, dst)`.
    fn reallocate(&mut self, src: NodeId, dst: NodeId) {
        if self.flows.is_empty() {
            return;
        }
        match self.solver {
            SolverMode::Reference => {
                self.scratch.new_rates = reference::rates(&self.topo, &self.flows);
                self.apply_rates_all();
            }
            SolverMode::Incremental => {
                if self.decoupled {
                    self.mark_component(src, dst);
                    self.solve_members();
                    self.apply_member_rates();
                } else {
                    // The switch couples every flow: full solve, but over
                    // persistent tables (memcpy-initialized, no lookups).
                    self.solve_all();
                    self.apply_rates_all();
                }
            }
        }
    }

    /// Fill `scratch.mflows` with the connected component (via shared
    /// nodes) of the changed endpoints — only these flows' rates can
    /// change when the switch is decoupled — and `scratch.cnodes` with
    /// its nodes, ascending. Walks the adjacency lists, so the cost is
    /// the component's size plus a sort of its nodes and flows.
    fn mark_component(&mut self, src: NodeId, dst: NodeId) {
        let s = &mut self.scratch;
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            s.node_epoch.fill(0);
            s.epoch = 1;
        }
        let epoch = s.epoch;
        s.cnodes.clear();
        s.member_ids.clear();
        for u in [src.0, dst.0] {
            if s.node_epoch[u as usize] != epoch {
                s.node_epoch[u as usize] = epoch;
                s.cnodes.push(u);
            }
        }
        // `cnodes` is the work queue. Every member flow is collected
        // exactly once, from its source node's out-list.
        let mut next = 0;
        while next < s.cnodes.len() {
            let u = s.cnodes[next] as usize;
            next += 1;
            for &(id, v) in &self.out_adj[u] {
                s.member_ids.push(id);
                if s.node_epoch[v as usize] != epoch {
                    s.node_epoch[v as usize] = epoch;
                    s.cnodes.push(v);
                }
            }
            for &(_, v) in &self.in_adj[u] {
                if s.node_epoch[v as usize] != epoch {
                    s.node_epoch[v as usize] = epoch;
                    s.cnodes.push(v);
                }
            }
        }
        s.cnodes.sort_unstable();
        for (rank, &u) in s.cnodes.iter().enumerate() {
            s.node_rank[u as usize] = rank as u32;
        }
        s.member_ids.sort_unstable();
        s.mflows.clear();
        for id in &s.member_ids {
            let pos = self.flows.binary_search_by_key(id, |f| f.id);
            s.mflows.push(pos.expect("adjacent flow is live") as u32);
        }
    }

    /// Progressive-filling max–min fair allocation over the member flows,
    /// into `scratch.new_rates` (indexed like `scratch.mflows`).
    ///
    /// Resources are the component's own: uplinks of the component nodes
    /// (ascending), their downlinks, the switch aggregate, then one
    /// virtual resource per capped member flow in member order. Each
    /// iteration saturates the currently most constrained resource and
    /// freezes the flows crossing it, so the loop runs at most
    /// `|members|` times. Resources outside the component carry no member
    /// flow and are skipped by the full layout anyway; keeping the
    /// relative order of the rest keeps the lowest-index tie-break, so
    /// the arithmetic — iteration order, subtraction order, tie-breaking
    /// — is exactly the reference solver's restricted to the member set,
    /// and the rates are bit-identical (see `reference.rs`).
    fn solve_members(&mut self) {
        let n = self.topo.len();
        let s = &mut self.scratch;
        let m = s.mflows.len();
        if m == 0 {
            return;
        }
        let k = s.cnodes.len() as u32;

        s.cap_left.clear();
        for &u in &s.cnodes {
            s.cap_left.push(self.caps_flat[u as usize]);
        }
        for &u in &s.cnodes {
            s.cap_left.push(self.caps_flat[n + u as usize]);
        }
        s.cap_left.push(self.caps_flat[2 * n]);

        s.flow_res.clear();
        for &fi in &s.mflows {
            // `NO_RES` pads uncapped flows so every row is a flat [u32; 4]
            // (no per-flow length array, no slice re-borrows in the hot
            // loop). The sentinel never equals a real resource index.
            let f = &self.flows[fi as usize];
            let mut res = [
                s.node_rank[f.src.idx()],
                k + s.node_rank[f.dst.idx()],
                2 * k,
                NO_RES,
            ];
            if let Some(cap) = f.cap {
                res[3] = s.cap_left.len() as u32;
                s.cap_left.push(cap);
            }
            s.flow_res.push(res);
        }

        s.count.clear();
        s.count.resize(s.cap_left.len(), 0);
        for res in &s.flow_res {
            for &r in res {
                if r == NO_RES {
                    break;
                }
                s.count[r as usize] += 1;
            }
        }

        s.new_rates.clear();
        s.new_rates.resize(m, UNFIXED);
        waterfill(&mut s.cap_left, &mut s.count, &s.flow_res, &mut s.new_rates);
    }

    /// Full-set solve over the persistent tables: `cap_left` and the
    /// physical-resource counts start as memcpys of the pristine arrays
    /// maintained on every insert/remove.
    fn solve_all(&mut self) {
        let m = self.flows.len();
        let s = &mut self.scratch;
        s.cap_left.clear();
        s.cap_left.extend_from_slice(&self.caps_flat);
        s.cap_left.extend_from_slice(&self.caps_list);
        s.count.clear();
        s.count.extend_from_slice(&self.count_all);
        s.count.resize(s.count.len() + self.caps_list.len(), 1);
        s.new_rates.clear();
        s.new_rates.resize(m, UNFIXED);
        waterfill(&mut s.cap_left, &mut s.count, &self.rows, &mut s.new_rates);
    }

    /// Commit `scratch.new_rates` (parallel to `flows`), materializing
    /// progress only for flows whose rate actually changed.
    fn apply_rates_all(&mut self) {
        let now = self.last_advance;
        let rates = self.scratch.new_rates.iter();
        for ((f, fin), &new_rate) in self.flows.iter_mut().zip(&mut self.finish).zip(rates) {
            commit_rate(f, fin, new_rate, now);
        }
    }

    /// Commit `scratch.new_rates` to the member flows, materializing
    /// progress only for flows whose rate actually changed.
    fn apply_member_rates(&mut self) {
        let now = self.last_advance;
        let s = &self.scratch;
        for (&fi, &new_rate) in s.mflows.iter().zip(&s.new_rates) {
            let fi = fi as usize;
            commit_rate(&mut self.flows[fi], &mut self.finish[fi], new_rate, now);
        }
    }
}

/// Drop flow `id` from one node's adjacency list.
fn unlink(adj: &mut Vec<(FlowId, u32)>, id: FlowId) {
    let i = adj.iter().position(|e| e.0 == id);
    adj.swap_remove(i.expect("flow is in its endpoints' adjacency"));
}

/// When `f` finishes at its current rate: `touched` plus the time to
/// move `remaining`. A sub-byte residue is due at once ([`SimTime::ZERO`]
/// always clamps to the network clock); a stalled flow, or one too slow
/// to finish within the representable horizon, never finishes
/// ([`SimTime::FAR_FUTURE`]) instead of overflowing the clock.
fn finish_time(f: &Flow) -> SimTime {
    if f.remaining <= 0.5 {
        return SimTime::ZERO;
    }
    if f.rate <= 0.0 {
        return SimTime::FAR_FUTURE;
    }
    let secs = f.remaining / f.rate;
    if !secs.is_finite() {
        return SimTime::FAR_FUTURE;
    }
    f.touched.saturating_add(SimDuration::from_secs_f64(secs))
}

/// Commit one solved rate: materialize the flow's progress only when the
/// rate actually changed (bitwise) and time has passed since the last
/// materialization, and refresh its cached finish time. Shared by the
/// full-set and member-solve commit paths so their progress tracking
/// cannot drift apart.
#[inline]
fn commit_rate(f: &mut Flow, finish: &mut SimTime, new_rate: f64, now: SimTime) {
    if f.rate.to_bits() == new_rate.to_bits() {
        return;
    }
    if f.touched != now {
        let moved = f.moved_until(now);
        f.remaining -= moved;
        f.touched = now;
    }
    // Within the same instant nothing moved: only the rate changes.
    f.rate = new_rate;
    *finish = finish_time(f);
}

/// The progressive-filling core shared by the full-set and component
/// solves. Each round saturates the most constrained resource (minimum
/// fair share `cap_left / count`, lowest index on ties) and freezes the
/// flows crossing it. Bit-identical to [`reference::rates`]:
///
/// * the division memo only reuses a quotient when *both* operands are
///   bit-equal to the previous resource's — the result is the value the
///   division would produce;
/// * the full-cover fast path fires when every still-unfixed flow
///   crosses the bottleneck (`count[bottleneck] == unfixed`); they all
///   freeze at `share` this round, and the skipped `cap_left`/`count`
///   updates are dead writes since the loop terminates.
fn waterfill(
    cap_left: &mut [f64],
    count: &mut [u32],
    flow_res: &[[u32; 4]],
    new_rates: &mut [f64],
) {
    let mut unfixed_left = flow_res.len();
    while unfixed_left > 0 {
        let mut best: Option<(f64, usize)> = None;
        let mut memo: (u64, u32, f64) = (0, 0, 0.0);
        for (r, (&cl, &c)) in cap_left.iter().zip(count.iter()).enumerate() {
            if c == 0 {
                continue;
            }
            let share = if (cl.to_bits(), c) == (memo.0, memo.1) {
                memo.2
            } else {
                let s = (cl / c as f64).max(0.0);
                memo = (cl.to_bits(), c, s);
                s
            };
            match best {
                None => best = Some((share, r)),
                Some((bs, _)) if share < bs => best = Some((share, r)),
                _ => {}
            }
        }
        let (share, bottleneck) = best.expect("unfixed flows must cross a resource");

        if count[bottleneck] as usize == unfixed_left {
            // Final round: every unfixed flow crosses the bottleneck.
            for rate in new_rates.iter_mut() {
                if *rate == UNFIXED {
                    *rate = share;
                }
            }
            return;
        }

        let bottleneck = bottleneck as u32;
        for (res, rate) in flow_res.iter().zip(new_rates.iter_mut()) {
            if *rate != UNFIXED || !res.contains(&bottleneck) {
                continue;
            }
            *rate = share;
            unfixed_left -= 1;
            for &r in res {
                if r == NO_RES {
                    break;
                }
                let r = r as usize;
                cap_left[r] = (cap_left[r] - share).max(0.0);
                count[r] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_simcore::units::{mb_per_s, MIB};

    fn topo(n: usize) -> Topology {
        Topology::symmetric(n, mb_per_s(100.0), mb_per_s(800.0))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    const Z: SimTime = SimTime::ZERO;

    #[test]
    fn single_flow_runs_at_nic_speed() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
    }

    #[test]
    fn per_flow_cap_binds() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            Some(mb_per_s(30.0)),
            TrafficTag::Memory,
        );
        assert!((net.rate_of(f).unwrap() - mb_per_s(30.0)).abs() < 1.0);
    }

    #[test]
    fn shared_uplink_splits_fairly() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(a).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - mb_per_s(50.0)).abs() < 1.0);
    }

    #[test]
    fn incast_splits_downlink() {
        let mut net = FlowNet::new(topo(5));
        let fs: Vec<_> = (1..5)
            .map(|i| {
                net.start_flow(
                    Z,
                    NodeId(i),
                    NodeId(0),
                    100 * MIB,
                    None,
                    TrafficTag::RepoFetch,
                )
            })
            .collect();
        for f in fs {
            assert!((net.rate_of(f).unwrap() - mb_per_s(25.0)).abs() < 1.0);
        }
    }

    #[test]
    fn switch_aggregate_binds_many_disjoint_pairs() {
        // 16 disjoint pairs × 100 MB/s wanted = 1600 > 800 switch capacity.
        let mut net = FlowNet::new(topo(32));
        let fs: Vec<_> = (0..16)
            .map(|i| {
                net.start_flow(
                    Z,
                    NodeId(2 * i),
                    NodeId(2 * i + 1),
                    100 * MIB,
                    None,
                    TrafficTag::StoragePush,
                )
            })
            .collect();
        for f in fs {
            assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        }
    }

    #[test]
    fn capped_flow_frees_bandwidth_for_peer() {
        let mut net = FlowNet::new(topo(4));
        let slow = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            Some(mb_per_s(20.0)),
            TrafficTag::Memory,
        );
        let fast = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(slow).unwrap() - mb_per_s(20.0)).abs() < 1.0);
        assert!((net.rate_of(fast).unwrap() - mb_per_s(80.0)).abs() < 1.0);
    }

    #[test]
    fn disjoint_pairs_do_not_interact_below_switch_cap() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(2), NodeId(3), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(a).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - mb_per_s(100.0)).abs() < 1.0);
    }

    #[test]
    fn completion_and_conservation() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            None,
            TrafficTag::StoragePush,
        );
        let (done, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.complete(done, f);
        assert_eq!(net.delivered(TrafficTag::StoragePush), 100 * MIB);
        assert_eq!(net.total_delivered(), 100 * MIB);
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn cancel_reports_partial_delivery() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            100 * MIB,
            None,
            TrafficTag::StoragePull,
        );
        let left = net.cancel_flow(t(0.5), f).unwrap();
        assert_eq!(left / MIB, 50);
        assert_eq!(net.delivered(TrafficTag::StoragePull) / MIB, 50);
    }

    #[test]
    fn rates_rebalance_when_flow_finishes() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 50 * MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(0), NodeId(2), 100 * MIB, None, TrafficTag::Memory);
        let (ta, ia) = net.next_completion().unwrap();
        assert_eq!(ia, a);
        net.complete(ta, a);
        assert!((net.rate_of(b).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        let (tb, _) = net.next_completion().unwrap();
        // b: 50 MiB in the first second, 50 MiB more at full speed.
        assert!((tb.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn control_accounting() {
        let mut net = FlowNet::new(topo(2));
        net.account_control(1500);
        assert_eq!(net.delivered(TrafficTag::Control), 1500);
        assert_eq!(net.total_delivered(), 1500);
    }

    #[test]
    fn migration_delivered_excludes_app_traffic() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), 10 * MIB, None, TrafficTag::AppNet);
        let b = net.start_flow(Z, NodeId(2), NodeId(3), 10 * MIB, None, TrafficTag::Memory);
        let (ta, _) = net.next_completion().unwrap();
        net.complete(ta, a);
        let (tb, _) = net.next_completion().unwrap();
        net.complete(tb, b);
        assert_eq!(net.migration_delivered(), 10 * MIB);
        assert_eq!(net.total_delivered(), 20 * MIB);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_flows_rejected() {
        let mut net = FlowNet::new(topo(2));
        let _ = net.start_flow(Z, NodeId(1), NodeId(1), 1, None, TrafficTag::Memory);
    }

    #[test]
    fn zero_byte_flow_completes_now() {
        let mut net = FlowNet::new(topo(2));
        let f = net.start_flow(t(2.0), NodeId(0), NodeId(1), 0, None, TrafficTag::Control);
        let (done, id) = net.next_completion().unwrap();
        assert_eq!((done, id), (t(2.0), f));
    }

    #[test]
    fn tiny_rate_never_finishes_instead_of_overflowing() {
        // 1 GiB at 1e-12 B/s is ~1e21 s away: far past the u64-nanosecond
        // clock. The finish time must saturate, not wrap into the past.
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(
            t(1.0),
            NodeId(0),
            NodeId(1),
            1 << 30,
            Some(1e-12),
            TrafficTag::Memory,
        );
        assert_eq!(net.rate_of(f), Some(1e-12));
        assert_eq!(net.next_completion(), Some((SimTime::FAR_FUTURE, f)));
        assert_eq!(net.reference_next_completion(), net.next_completion());
        net.advance(t(2.0));
        assert_eq!(net.next_completion(), Some((SimTime::FAR_FUTURE, f)));
        // A subnormal rate makes the transfer time itself infinite.
        let mut net = FlowNet::new(topo(4));
        let g = net.start_flow(
            Z,
            NodeId(0),
            NodeId(1),
            1 << 30,
            Some(1e-320),
            TrafficTag::Memory,
        );
        assert_eq!(net.next_completion(), Some((SimTime::FAR_FUTURE, g)));
    }

    #[test]
    fn lazy_advance_projects_delivered_bytes() {
        // advance() alone must not lose progress: queries project from
        // (rate, touched) without materializing.
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.advance(t(0.25));
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 25);
        assert_eq!(net.total_delivered() / MIB, 25);
        assert_eq!(net.remaining_of(f).unwrap() / MIB, 75);
        net.advance(t(0.5));
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 50);
    }

    #[test]
    fn peak_active_tracks_high_water_mark() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), MIB, None, TrafficTag::Memory);
        let _b = net.start_flow(Z, NodeId(2), NodeId(3), MIB, None, TrafficTag::Memory);
        net.cancel_flow(t(0.001), a);
        assert_eq!(net.active(), 1);
        assert_eq!(net.peak_active(), 2);
    }

    #[test]
    fn degrade_halves_rate_and_restore_recovers_it() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        net.set_link_factor(t(0.5), NodeId(0), 0.5);
        assert_eq!(net.link_factor(NodeId(0)), 0.5);
        assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
        // 50 MiB moved before the degrade; delivery accounting is intact.
        assert_eq!(net.delivered(TrafficTag::Memory) / MIB, 50);
        net.set_link_factor(t(0.75), NodeId(0), 1.0);
        assert!((net.rate_of(f).unwrap() - mb_per_s(100.0)).abs() < 1.0);
        // 50 MiB at full + 12.5 MiB at half: 37.5 MiB left at t=0.75,
        // finishing 0.375 s later.
        let (done, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((done.as_secs_f64() - 1.125).abs() < 1e-6);
    }

    #[test]
    fn degrade_is_absolute_not_cumulative() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.set_link_factor(Z, NodeId(0), 0.5);
        net.set_link_factor(Z, NodeId(0), 0.5);
        assert!((net.rate_of(f).unwrap() - mb_per_s(50.0)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "link factor")]
    fn zero_factor_rejected() {
        let mut net = FlowNet::new(topo(2));
        net.set_link_factor(Z, NodeId(0), 0.0);
    }

    #[test]
    fn degraded_downlink_binds_incast() {
        let mut net = FlowNet::new(topo(5));
        net.set_link_factor(Z, NodeId(0), 0.4);
        let f = net.start_flow(Z, NodeId(1), NodeId(0), MIB, None, TrafficTag::StoragePull);
        assert!((net.rate_of(f).unwrap() - mb_per_s(40.0)).abs() < 1.0);
    }

    #[test]
    fn flows_touching_selects_by_endpoint() {
        let mut net = FlowNet::new(topo(4));
        let a = net.start_flow(Z, NodeId(0), NodeId(1), MIB, None, TrafficTag::Memory);
        let b = net.start_flow(Z, NodeId(2), NodeId(0), MIB, None, TrafficTag::Memory);
        let c = net.start_flow(Z, NodeId(2), NodeId(3), MIB, None, TrafficTag::Memory);
        assert_eq!(net.flows_touching(NodeId(0)), vec![a, b]);
        assert_eq!(net.flows_touching(NodeId(3)), vec![c]);
        assert!(net.flows_touching(NodeId(1)).contains(&a));
    }

    #[test]
    fn flow_views_expose_rates_and_projected_remaining() {
        let mut net = FlowNet::new(topo(4));
        let f = net.start_flow(Z, NodeId(0), NodeId(1), 100 * MIB, None, TrafficTag::Memory);
        net.advance(t(0.25));
        let views: Vec<_> = net.flow_views().collect();
        assert_eq!(views.len(), 1);
        let v = &views[0];
        assert_eq!(
            (v.id, v.src, v.dst, v.tag),
            (f, NodeId(0), NodeId(1), TrafficTag::Memory)
        );
        assert!((v.rate - mb_per_s(100.0)).abs() < 1.0);
        assert!((v.remaining - 75.0 * MIB as f64).abs() < mb_per_s(1.0) * 0.01);
    }

    #[test]
    fn decoupled_switch_detection() {
        // 800 MB/s switch vs 4 × 100 MB/s NICs: 800 ≥ 2·400 → decoupled.
        assert!(FlowNet::switch_decoupled(&topo(4)));
        // 32 nodes: 800 < 2·3200 → coupled.
        assert!(!FlowNet::switch_decoupled(&topo(32)));
    }

    #[test]
    fn reference_mode_matches_incremental_small_case() {
        for mode in [SolverMode::Incremental, SolverMode::Reference] {
            let mut net = FlowNet::new(topo(4));
            net.set_solver(mode);
            let a = net.start_flow(Z, NodeId(0), NodeId(1), 60 * MIB, None, TrafficTag::Memory);
            let b = net.start_flow(
                Z,
                NodeId(0),
                NodeId(2),
                80 * MIB,
                Some(mb_per_s(30.0)),
                TrafficTag::StoragePush,
            );
            assert!((net.rate_of(a).unwrap() - mb_per_s(70.0)).abs() < 1.0);
            assert!((net.rate_of(b).unwrap() - mb_per_s(30.0)).abs() < 1.0);
        }
    }
}
