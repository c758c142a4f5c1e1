//! Output checks. A repetition that fails any check counts every one of
//! its migrations as failed.

use lsm_core::engine::{Engine, Observer, RunControl};
use lsm_core::{MigrationStatus, RunReport};
use lsm_netsim::FlowId;

/// The serialized report: the identity every repetition and every
/// traced pass on the same engine path must reproduce byte for byte
/// (event count, per-tag traffic, per-migration times and milestones).
pub fn fingerprint(report: &RunReport) -> String {
    serde_json::to_string(report).expect("a run report always serializes")
}

/// Records the simulated instants (ns) at which flows left an engine's
/// network: the ids of `flow_views` (which ascend) that vanished since
/// the previous event. On a fault-free scenario every such flow
/// completed, so these are the instants at which the engine served a
/// network-completion wake.
#[derive(Default)]
pub struct NetCompletions {
    live: Vec<FlowId>,
    now: Vec<FlowId>,
    /// Distinct instants, ascending.
    pub instants: Vec<u64>,
}

impl Observer for NetCompletions {
    fn on_tick(&mut self, eng: &Engine) -> RunControl {
        self.now.clear();
        self.now.extend(eng.network().flow_views().map(|v| v.id));
        let mut j = 0;
        let vanished = self.live.iter().any(|id| {
            while j < self.now.len() && self.now[j] < *id {
                j += 1;
            }
            self.now.get(j) != Some(id)
        });
        let at = eng.now().as_nanos();
        if vanished && self.instants.last() != Some(&at) {
            self.instants.push(at);
        }
        std::mem::swap(&mut self.live, &mut self.now);
        RunControl::Continue
    }
}

/// Wake events the monolith saves over the shards. The monolith serves
/// every network completion due at one instant with a single wake
/// event, while each shard has its own: an instant at which `k` shards
/// complete flows costs the shards `k - 1` more events.
/// `per_shard` holds each shard's [`NetCompletions::instants`].
pub fn coalesced_wakes<'a>(per_shard: impl IntoIterator<Item = &'a Vec<u64>>) -> u64 {
    let mut all: Vec<u64> = per_shard.into_iter().flatten().copied().collect();
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    (total - all.len()) as u64
}

/// The monolithic and sharded reports of one scenario agree: identical
/// byte for byte once the monolith's event count is raised by the
/// `coalesced` wakes of [`coalesced_wakes`].
pub fn paths_agree(mono: &RunReport, sharded: &RunReport, coalesced: u64) -> bool {
    let mut mono = mono.clone();
    mono.events += coalesced;
    fingerprint(&mono) == fingerprint(sharded)
}

/// Migrations that did not end `Completed` with a verified-consistent
/// destination disk.
pub fn bad_migrations(report: &RunReport) -> usize {
    report
        .migrations
        .iter()
        .filter(|m| m.status != MigrationStatus::Completed || m.consistent != Some(true))
        .count()
}

/// Failed migrations of one repetition: all `requested` when the report
/// is structurally wrong, lint found an error, or the report differs from
/// `reference`; otherwise the migrations that did not complete cleanly.
pub fn failed_migrations(
    report: &RunReport,
    requested: usize,
    lint_errors: usize,
    reference: Option<&str>,
) -> usize {
    let diverged = reference.is_some_and(|r| r != fingerprint(report));
    if report.migrations.len() != requested || lint_errors > 0 || diverged {
        requested
    } else {
        bad_migrations(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_wakes_count_shared_instants() {
        let shards = [vec![1, 5, 9], vec![5, 9], vec![2, 9]];
        // 5 is shared by two shards, 9 by three.
        assert_eq!(coalesced_wakes(&shards), 1 + 2);
        assert_eq!(coalesced_wakes(&[vec![1, 2, 3]]), 0);
    }
}
