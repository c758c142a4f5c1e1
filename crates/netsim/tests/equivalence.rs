//! Property test: the incremental max–min allocator must be
//! **bit-identical** to the from-scratch reference solver.
//!
//! Two [`FlowNet`]s over the same random topology — one per
//! [`SolverMode`] — are driven in lockstep through a random schedule of
//! flow starts, cancellations, completions, clock advances and runtime
//! link degradations/restorations. After every step, rates, remaining
//! bytes, per-tag delivered bytes and the next completion `(time, flow)`
//! must match exactly (rates down to the bit pattern). Topologies cover
//! both regimes: switch-coupled (full re-solve) and switch-decoupled
//! (component dirty-marking) — and the capacity mutations drive
//! transitions *between* the regimes mid-run.
//!
//! Both networks share one `next_completion`, which reads cached finish
//! times; after every step each network's answer is also checked against
//! the original linear scan (`reference_next_completion`), so a stale
//! cache cannot pass in both modes at once.

use lsm_netsim::{FlowId, FlowNet, NodeCaps, NodeId, SolverMode, Topology, TrafficTag};
use lsm_simcore::time::SimTime;
use lsm_simcore::units::{mb_per_s, MIB};
use proptest::prelude::*;

/// One encoded schedule step; interpreted against the live flow set.
type RawOp = (u8, u32, u32, u64, f64);

struct Lockstep {
    inc: FlowNet,
    refr: FlowNet,
    live: Vec<FlowId>,
    now: SimTime,
    /// Node-group size for [`Self::grouped`] schedules, which keep most
    /// flows inside small node groups; `None` draws endpoints uniformly.
    group: Option<u32>,
}

impl Lockstep {
    fn new(topo: Topology) -> Self {
        let mut inc = FlowNet::new(topo.clone());
        inc.set_solver(SolverMode::Incremental);
        let mut refr = FlowNet::new(topo);
        refr.set_solver(SolverMode::Reference);
        Lockstep {
            inc,
            refr,
            live: Vec::new(),
            now: SimTime::ZERO,
            group: None,
        }
    }

    /// A schedule over many small components: endpoints mostly within
    /// groups of `group` consecutive nodes, with occasional cross-group
    /// flows that merge components. Flow sizes include empty and
    /// few-byte flows (sub-byte residues, overdue ties), caps include
    /// zero (stalled flows), and link faults hit three fixed nodes so
    /// restores recur and the switch regime flips back and forth.
    fn grouped(topo: Topology, group: u32) -> Self {
        Lockstep {
            group: Some(group),
            ..Self::new(topo)
        }
    }

    /// Endpoints of a new flow from two raw draws.
    fn endpoints(&self, a: u32, b: u32) -> (u32, u32) {
        let n = self.inc.topology().len() as u32;
        let src = a % n;
        let mut dst = match self.group {
            Some(g) if !b.is_multiple_of(16) => {
                let base = src - src % g;
                base + (b / 16) % g.min(n - base)
            }
            _ => b % n,
        };
        if dst == src {
            dst = (dst + 1) % n;
        }
        (src, dst)
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for &id in &self.live {
            let ri = self.inc.rate_of(id).expect("live in incremental");
            let rr = self.refr.rate_of(id).expect("live in reference");
            prop_assert_eq!(
                ri.to_bits(),
                rr.to_bits(),
                "rate diverged for {:?}: incremental {} vs reference {}",
                id,
                ri,
                rr
            );
            prop_assert_eq!(self.inc.remaining_of(id), self.refr.remaining_of(id));
        }
        prop_assert_eq!(self.inc.next_completion(), self.refr.next_completion());
        for net in [&self.inc, &self.refr] {
            prop_assert_eq!(net.next_completion(), net.reference_next_completion());
        }
        for tag in TrafficTag::ALL {
            prop_assert_eq!(self.inc.delivered(tag), self.refr.delivered(tag));
        }
        prop_assert_eq!(self.inc.total_delivered(), self.refr.total_delivered());
        Ok(())
    }

    fn step(&mut self, op: RawOp) -> Result<(), TestCaseError> {
        let (code, a, b, bytes, x) = op;
        let n = self.inc.topology().len() as u32;
        // Every step first moves the clock a little (exercises the lazy
        // advance against the eager-equivalent projection).
        self.now += lsm_simcore::time::SimDuration::from_nanos(1 + (bytes % 50_000_000));
        self.inc.advance(self.now);
        self.refr.advance(self.now);
        match code % 5 {
            0 | 1 => {
                // Start a flow.
                let (src, dst) = self.endpoints(a, b);
                let cap = if self.group.is_some() && x < 0.02 {
                    Some(0.0)
                } else if x < 0.3 {
                    Some(mb_per_s(1.0 + x * 200.0))
                } else {
                    None
                };
                let tag = TrafficTag::ALL[(a as usize + b as usize) % TrafficTag::ALL.len()];
                let sz = match (self.group, bytes >> 61) {
                    (Some(_), 0) => 0,
                    (Some(_), 1) => bytes % 4096,
                    _ => bytes % (64 * MIB),
                };
                let fi = self
                    .inc
                    .start_flow(self.now, NodeId(src), NodeId(dst), sz, cap, tag);
                let fr = self
                    .refr
                    .start_flow(self.now, NodeId(src), NodeId(dst), sz, cap, tag);
                prop_assert_eq!(fi, fr, "flow id streams diverged");
                self.live.push(fi);
            }
            2 => {
                // Degrade (or restore) a node's NIC at runtime.
                let node = NodeId(if self.group.is_some() { a % 3 } else { a % n });
                // Quantized factors so restore (1.0) actually occurs.
                let factor = match b % 4 {
                    0 => 1.0,
                    1 => 0.5,
                    2 => 0.1 + x * 0.8,
                    _ => 0.05,
                };
                self.inc.set_link_factor(self.now, node, factor);
                self.refr.set_link_factor(self.now, node, factor);
                prop_assert_eq!(
                    self.inc.link_factor(node).to_bits(),
                    self.refr.link_factor(node).to_bits()
                );
            }
            3 => {
                // Complete the earliest completion, if one is due.
                let Some((ti, id)) = self.inc.next_completion() else {
                    return Ok(());
                };
                prop_assert_eq!(Some((ti, id)), self.refr.next_completion());
                if ti == SimTime::FAR_FUTURE {
                    return Ok(());
                }
                let at = ti.max(self.now);
                self.now = at;
                self.inc.complete(at, id);
                self.refr.complete(at, id);
                self.live.retain(|&f| f != id);
            }
            _ => {
                // Cancel a random live flow.
                if self.live.is_empty() {
                    return Ok(());
                }
                let id = self.live[a as usize % self.live.len()];
                let li = self.inc.cancel_flow(self.now, id);
                let lr = self.refr.cancel_flow(self.now, id);
                prop_assert_eq!(li, lr, "cancel leftovers diverged for {:?}", id);
                self.live.retain(|&f| f != id);
            }
        }
        self.check()
    }
}

fn run_schedule(topo: Topology, ops: &[RawOp]) -> Result<(), TestCaseError> {
    run_lockstep(Lockstep::new(topo), ops)
}

fn run_lockstep(mut ls: Lockstep, ops: &[RawOp]) -> Result<(), TestCaseError> {
    for &op in ops {
        ls.step(op)?;
    }
    // Drain everything so completion-path accounting is fully covered.
    while let Some((t, id)) = ls.inc.next_completion() {
        if t == SimTime::FAR_FUTURE {
            break;
        }
        prop_assert_eq!(Some((t, id)), ls.refr.next_completion());
        let at = t.max(ls.now);
        ls.now = at;
        ls.inc.complete(at, id);
        ls.refr.complete(at, id);
        ls.live.retain(|&f| f != id);
        ls.check()?;
    }
    Ok(())
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0u8..=255,
        0u32..1024,
        0u32..1024,
        0u64..u64::MAX,
        0.0f64..1.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Switch-coupled regime: the aggregate can bind, every change
    /// re-solves the full flow set (but with persistent buffers).
    #[test]
    fn coupled_switch_lockstep(
        nodes in 2usize..9,
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 10..60),
    ) {
        // Switch below the summed NIC capacity: contention is real.
        let switch = nic * (nodes as f64) * 0.6;
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(switch));
        prop_assert!(!FlowNet::switch_decoupled(&topo));
        run_schedule(topo, &ops)?;
    }

    /// Switch-decoupled regime: component dirty-marking is active, so
    /// flows outside the changed component keep rates without re-solving
    /// — and must still match the full reference solve bit-for-bit.
    #[test]
    fn decoupled_switch_lockstep(
        nodes in 2usize..9,
        nic in 20.0f64..200.0,
        ops in prop::collection::vec(raw_op(), 10..60),
    ) {
        let switch = nic * (nodes as f64) * 4.0;
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(switch));
        prop_assert!(FlowNet::switch_decoupled(&topo));
        run_schedule(topo, &ops)?;
    }

    /// Heterogeneous NICs (asymmetric up/down) in the decoupled regime.
    #[test]
    fn heterogeneous_caps_lockstep(
        nodes in 2usize..7,
        caps in prop::collection::vec((10.0f64..150.0, 10.0f64..150.0), 6),
        ops in prop::collection::vec(raw_op(), 10..50),
    ) {
        let mut topo = Topology::symmetric(nodes, mb_per_s(100.0), mb_per_s(100.0 * 14.0 * 2.0));
        for (i, &(up, down)) in caps.iter().take(nodes).enumerate() {
            topo = topo.with_node_caps(
                NodeId(i as u32),
                NodeCaps { up: mb_per_s(up), down: mb_per_s(down) },
            );
        }
        run_schedule(topo, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Many small components: the fleet regime, where a change re-solves
    /// a component of a few nodes out of hundreds. Exercises adjacency
    /// removal, compact resource numbering and components merging
    /// through cross-group flows. The switch sits just under the
    /// decoupling threshold for `borderline` cases, so link faults on
    /// the three fault nodes flip the regime both ways mid-run.
    #[test]
    fn many_components_lockstep(
        nodes in 32usize..257,
        group in 2u32..7,
        nic in 20.0f64..200.0,
        borderline in 0u8..2,
        ops in prop::collection::vec(raw_op(), 100..400),
    ) {
        let sum = nic * nodes as f64;
        let switch = if borderline == 1 { 2.0 * (sum - 0.25 * nic) } else { 4.0 * sum };
        let topo = Topology::symmetric(nodes, mb_per_s(nic), mb_per_s(switch));
        prop_assert_eq!(FlowNet::switch_decoupled(&topo), borderline == 0);
        run_lockstep(Lockstep::grouped(topo, group), &ops)?;
    }
}

/// The cached completion lookup against the original scan on each rule
/// it has to reproduce, under both solvers.
#[test]
fn next_completion_matches_reference_scan_on_each_rule() {
    let z = SimTime::ZERO;
    let t = SimTime::from_secs_f64;
    let topo = Topology::symmetric(6, mb_per_s(100.0), mb_per_s(10_000.0));
    let tag = TrafficTag::StoragePush;
    for mode in [SolverMode::Incremental, SolverMode::Reference] {
        let mut net = FlowNet::new(topo.clone());
        net.set_solver(mode);
        let agree = |net: &FlowNet| {
            let got = net.next_completion();
            assert_eq!(got, net.reference_next_completion(), "{mode:?}");
            got
        };
        assert_eq!(agree(&net), None);

        // Rate 0: a zero cap stalls the flow, which never finishes.
        let stalled = net.start_flow(z, NodeId(4), NodeId(5), MIB, Some(0.0), tag);
        assert_eq!(net.rate_of(stalled), Some(0.0));
        assert_eq!(agree(&net), Some((SimTime::FAR_FUTURE, stalled)));

        // Earliest raw finish wins while nothing is overdue.
        let a = net.start_flow(z, NodeId(0), NodeId(1), 100 * MIB, None, tag);
        let b = net.start_flow(z, NodeId(2), NodeId(3), 50 * MIB, None, tag);
        let (tb, id) = agree(&net).expect("flows in flight");
        assert_eq!(id, b);
        assert!(tb > z && tb < SimTime::FAR_FUTURE);

        // Clamp: once the clock passes both finishes, both are overdue
        // at the clock and the lowest id wins, not the earliest finish.
        net.advance(t(5.0));
        assert_eq!(agree(&net), Some((t(5.0), a)));
        net.complete(t(5.0), a);
        assert_eq!(agree(&net), Some((t(5.0), b)));
        net.complete(t(5.0), b);
        assert_eq!(agree(&net), Some((SimTime::FAR_FUTURE, stalled)));

        // Sub-byte residue: an empty flow is due at once, ahead of a
        // lower-id flow still in progress, and stays clamped to the clock.
        let c = net.start_flow(t(5.0), NodeId(0), NodeId(1), 100 * MIB, None, tag);
        let empty = net.start_flow(t(5.0), NodeId(2), NodeId(3), 0, None, tag);
        assert!(c < empty);
        assert_eq!(agree(&net), Some((t(5.0), empty)));
        net.advance(t(5.5));
        assert_eq!(agree(&net), Some((t(5.5), empty)));
        net.complete(t(5.5), empty);
        assert_eq!(agree(&net).map(|(_, id)| id), Some(c));
    }
}
