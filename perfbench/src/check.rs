//! Property checks on every output the benchmark times, written here
//! from the problem statement rather than borrowed from the library.
//!
//! One-shot tight renaming: the run completes, every never-crashed
//! process decides, and every decided name — crashed deciders included —
//! is distinct and lies in `0..n`.
//!
//! The long-lived service: the benchmark keeps its own label → name
//! ledger from the epoch reports alone and, after every epoch, checks it
//! against the service's `holders()`, checks no name is held twice,
//! every grant lies in its issuing shard's name range, every submitted
//! acquire was granted in its epoch, and the namespace is full again.

use std::collections::{BTreeMap, BTreeSet};

use bil_runtime::{Label, Name, Outcome, RunReport};
use bil_service::{NamePartition, Request, ShardedEpochReport};

/// A violated property, in words.
pub type Violation = String;

/// Checks one renaming job's report.
///
/// # Errors
///
/// The first property the report violates.
pub fn oneshot(report: &RunReport) -> Result<(), Violation> {
    if report.outcome != Outcome::Completed {
        return Err(format!("run ended with {:?}", report.outcome));
    }
    let crashed: BTreeSet<usize> = report.crashes.iter().map(|c| c.pid.index()).collect();
    let mut holder_of: BTreeMap<Name, usize> = BTreeMap::new();
    for (slot, decision) in report.decisions.iter().enumerate() {
        let Some(decision) = decision else {
            if crashed.contains(&slot) {
                continue;
            }
            return Err(format!("correct process {slot} never decided"));
        };
        if decision.name.0 as usize >= report.n {
            return Err(format!(
                "process {slot} decided name {} outside 0..{}",
                decision.name, report.n
            ));
        }
        if let Some(other) = holder_of.insert(decision.name, slot) {
            return Err(format!(
                "name {} decided by processes {other} and {slot}",
                decision.name
            ));
        }
    }
    Ok(())
}

/// The benchmark's own record of who holds which global name, built only
/// from epoch reports.
pub type Ledger = BTreeMap<Label, Name>;

/// Folds one front-end epoch's report into `ledger` and checks it.
/// `batch` is what was submitted for the epoch; `holders` and `held` are
/// the service's state after it completed.
///
/// # Errors
///
/// The first property the epoch violates.
pub fn service_epoch(
    ledger: &mut Ledger,
    batch: &[Request],
    report: &ShardedEpochReport,
    partition: &NamePartition,
    holders: impl Iterator<Item = (Label, Name)>,
    held: usize,
) -> Result<(), Violation> {
    // Grants, shard by shard: each in its shard's range, and together
    // exactly the front-end's grant list.
    let mut granted = Vec::new();
    for (s, shard) in report.shards.iter().enumerate() {
        let shard = shard
            .as_ref()
            .map_err(|e| format!("shard {s} failed epoch {}: {e}", report.epoch))?;
        let range = partition.range(s);
        for &(label, local) in &shard.granted {
            let global = range.start + local.0 as usize;
            if !range.contains(&global) {
                return Err(format!(
                    "shard {s} granted {label} name {global} outside its range {range:?}"
                ));
            }
            granted.push((label, Name(global as u32)));
        }
    }
    if granted != report.granted {
        return Err("front-end grants differ from the shards' grants".to_string());
    }

    // Every submitted acquire is granted this epoch, every release
    // applied.
    let acquired: BTreeSet<Label> = batch
        .iter()
        .filter_map(|r| match r {
            Request::Acquire(l) => Some(*l),
            Request::Release(_) => None,
        })
        .collect();
    let released: BTreeSet<Label> = batch
        .iter()
        .filter_map(|r| match r {
            Request::Release(l) => Some(*l),
            Request::Acquire(_) => None,
        })
        .collect();
    let granted_labels: BTreeSet<Label> = granted.iter().map(|(l, _)| *l).collect();
    if granted_labels != acquired || granted.len() != acquired.len() {
        return Err(format!(
            "epoch {} granted {} names for {} acquires",
            report.epoch,
            granted.len(),
            acquired.len()
        ));
    }
    if report.released.len() != released.len() {
        return Err(format!(
            "epoch {} applied {} of {} releases",
            report.epoch,
            report.released.len(),
            released.len()
        ));
    }

    for &(label, name) in &report.released {
        if ledger.remove(&label) != Some(name) || !released.contains(&label) {
            return Err(format!("{label} released {name}, which it did not hold"));
        }
    }
    for &(label, name) in &granted {
        if ledger.insert(label, name).is_some() {
            return Err(format!("{label} granted {name} while holding a name"));
        }
    }

    // The ledger is the service's holder table, with no name held twice
    // and the namespace full.
    let mut actual: Vec<(Label, Name)> = holders.collect();
    actual.sort_unstable();
    if !actual
        .iter()
        .copied()
        .eq(ledger.iter().map(|(&l, &n)| (l, n)))
    {
        return Err(format!(
            "ledger of {} holders differs from the service's {} holders",
            ledger.len(),
            actual.len()
        ));
    }
    let names: BTreeSet<Name> = ledger.values().copied().collect();
    if names.len() != ledger.len() {
        return Err(format!(
            "{} holders share {} names",
            ledger.len(),
            names.len()
        ));
    }
    if held != partition.capacity() || ledger.len() != held {
        return Err(format!(
            "{held} names held after refill, capacity {}",
            partition.capacity()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_core::BallsIntoLeaves;
    use bil_runtime::adversary::NoFailures;
    use bil_runtime::engine::SyncEngine;
    use bil_runtime::{Decision, Round, SeedTree};
    use bil_service::{ShardedOptions, ShardedService};

    fn run(n: u64) -> RunReport {
        let labels = (0..n).map(|i| Label(7 * i + 1)).collect();
        SyncEngine::new(
            BallsIntoLeaves::base(),
            labels,
            NoFailures,
            SeedTree::new(5),
        )
        .expect("distinct labels")
        .run()
    }

    #[test]
    fn a_real_run_passes() {
        assert_eq!(oneshot(&run(64)), Ok(()));
    }

    #[test]
    fn rejects_a_duplicate_name() {
        let mut report = run(16);
        let first = report.decisions[0];
        report.decisions[1] = first;
        let err = oneshot(&report).unwrap_err();
        assert!(err.contains("decided by processes 0 and 1"), "{err}");
    }

    #[test]
    fn rejects_a_name_outside_the_namespace() {
        let mut report = run(16);
        report.decisions[3] = Some(Decision {
            name: Name(16),
            round: Round(2),
        });
        let err = oneshot(&report).unwrap_err();
        assert!(err.contains("outside 0..16"), "{err}");
    }

    #[test]
    fn rejects_an_undecided_correct_process() {
        let mut report = run(16);
        report.decisions[9] = None;
        let err = oneshot(&report).unwrap_err();
        assert!(err.contains("correct process 9 never decided"), "{err}");
    }

    #[test]
    fn rejects_an_incomplete_run() {
        let mut report = run(16);
        report.outcome = Outcome::RoundLimit;
        assert!(oneshot(&report).is_err());
    }

    /// A 32-name, 2-shard service filled by one epoch: its batch, report
    /// and the service after it.
    fn filled() -> (Vec<Request>, ShardedEpochReport, ShardedService) {
        let mut svc =
            ShardedService::new(32, 2, 11, ShardedOptions::default()).expect("valid split");
        let batch: Vec<Request> = (0..32).map(|i| Request::Acquire(Label(100 + i))).collect();
        let report = svc.step(&batch).expect("valid batch");
        (batch, report, svc)
    }

    fn check(
        batch: &[Request],
        report: &ShardedEpochReport,
        svc: &ShardedService,
    ) -> Result<(), Violation> {
        service_epoch(
            &mut Ledger::new(),
            batch,
            report,
            svc.partition(),
            svc.holders(),
            svc.held(),
        )
    }

    #[test]
    fn a_real_epoch_passes() {
        let (batch, report, svc) = filled();
        assert_eq!(check(&batch, &report, &svc), Ok(()));
    }

    #[test]
    fn rejects_a_grant_outside_its_shards_range() {
        let (batch, mut report, svc) = filled();
        let shard = report.shards[0].as_mut().expect("shard 0 ran");
        shard.granted[0].1 = Name(16);
        let err = check(&batch, &report, &svc).unwrap_err();
        assert!(err.contains("outside its range"), "{err}");
    }

    #[test]
    fn rejects_a_ledger_that_differs_from_the_holders() {
        let (batch, report, svc) = filled();
        let mut holders: Vec<(Label, Name)> = svc.holders().collect();
        holders[4].0 = Label(9999);
        let err = service_epoch(
            &mut Ledger::new(),
            &batch,
            &report,
            svc.partition(),
            holders.into_iter(),
            svc.held(),
        )
        .unwrap_err();
        assert!(err.contains("differs from the service"), "{err}");
    }

    #[test]
    fn rejects_a_name_held_twice() {
        let (batch, mut report, svc) = filled();
        let dup = report.granted[0].1;
        report.granted[1].1 = dup;
        let shard = report.shards[0].as_mut().expect("shard 0 ran");
        shard.granted[1].1 = shard.granted[0].1;
        let mut holders: Vec<(Label, Name)> = svc.holders().collect();
        let label = report.granted[1].0;
        for h in &mut holders {
            if h.0 == label {
                h.1 = dup;
            }
        }
        let err = service_epoch(
            &mut Ledger::new(),
            &batch,
            &report,
            svc.partition(),
            holders.into_iter(),
            svc.held(),
        )
        .unwrap_err();
        assert!(err.contains("share"), "{err}");
    }

    #[test]
    fn rejects_an_ungranted_acquire() {
        let (mut batch, report, svc) = filled();
        batch.push(Request::Acquire(Label(5000)));
        let err = check(&batch, &report, &svc).unwrap_err();
        assert!(err.contains("granted 32 names for 33 acquires"), "{err}");
    }

    #[test]
    fn rejects_a_namespace_left_short() {
        let (batch, report, svc) = filled();
        let err = service_epoch(
            &mut Ledger::new(),
            &batch,
            &report,
            svc.partition(),
            svc.holders(),
            svc.held() - 1,
        )
        .unwrap_err();
        assert!(err.contains("after refill"), "{err}");
    }
}
