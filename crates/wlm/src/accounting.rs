//! Usage accounting.
//!
//! Section 6 turns on accounting: "This is particularly crucial in regards
//! to the accounting of used resources." The ledger records every
//! resource occupation — WLM jobs natively, and *external* consumption
//! (Kubernetes pods placed outside the WLM) so the integration-scenario
//! experiments can measure accounting coverage.

use crate::types::JobId;
use hpcc_sim::{SimSpan, SimTime};
use serde::{Deserialize, Serialize};

/// Where a usage record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UsageSource {
    /// Recorded by the WLM itself (billable).
    Wlm,
    /// Happened outside the WLM's view (e.g. pods on reallocated nodes).
    External,
}

/// One usage record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageRecord {
    pub job: Option<JobId>,
    pub user: u32,
    pub cores: u64,
    pub gpus: u64,
    pub start: SimTime,
    pub end: SimTime,
    pub source: UsageSource,
}

impl UsageRecord {
    /// Core-seconds consumed.
    pub(crate) fn core_seconds(&self) -> f64 {
        self.cores as f64 * self.end.since(self.start).as_secs_f64()
    }
}

/// The accounting ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ledger {
    records: Vec<UsageRecord>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger::default()
    }

    pub fn record(&mut self, rec: UsageRecord) {
        assert!(rec.end >= rec.start, "usage interval reversed");
        self.records.push(rec);
    }

    pub fn records(&self) -> &[UsageRecord] {
        &self.records
    }

    /// Core-seconds billed to one user through the WLM.
    pub fn user_core_seconds(&self, user: u32) -> f64 {
        self.records
            .iter()
            .filter(|r| r.user == user && r.source == UsageSource::Wlm)
            .map(UsageRecord::core_seconds)
            .sum()
    }

    /// Total core-seconds, optionally restricted to a source.
    pub fn total_core_seconds(&self, source: Option<UsageSource>) -> f64 {
        self.records
            .iter()
            .filter(|r| source.is_none_or(|s| r.source == s))
            .map(UsageRecord::core_seconds)
            .sum()
    }

    /// Fraction of all usage the WLM accounted for (the §6.6 comparison
    /// metric). 1.0 when everything ran under the WLM.
    pub fn accounting_coverage(&self) -> f64 {
        let total = self.total_core_seconds(None);
        if total == 0.0 {
            return 1.0;
        }
        self.total_core_seconds(Some(UsageSource::Wlm)) / total
    }

    /// Utilization over a window given cluster capacity in cores.
    pub fn utilization(&self, capacity_cores: u64, window: SimSpan) -> f64 {
        if capacity_cores == 0 || window.is_zero() {
            return 0.0;
        }
        self.total_core_seconds(None) / (capacity_cores as f64 * window.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: u32, cores: u64, secs: u64, source: UsageSource) -> UsageRecord {
        UsageRecord {
            job: None,
            user,
            cores,
            gpus: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimSpan::secs(secs),
            source,
        }
    }

    #[test]
    fn core_seconds_math() {
        assert_eq!(rec(1, 128, 10, UsageSource::Wlm).core_seconds(), 1280.0);
    }

    #[test]
    fn per_user_totals_count_wlm_only() {
        let mut l = Ledger::new();
        l.record(rec(1, 10, 10, UsageSource::Wlm));
        l.record(rec(1, 10, 5, UsageSource::External));
        l.record(rec(2, 10, 7, UsageSource::Wlm));
        assert_eq!(l.user_core_seconds(1), 100.0);
        assert_eq!(l.user_core_seconds(2), 70.0);
    }

    #[test]
    fn coverage_metric() {
        let mut l = Ledger::new();
        l.record(rec(1, 10, 30, UsageSource::Wlm));
        l.record(rec(1, 10, 10, UsageSource::External));
        assert!((l.accounting_coverage() - 0.75).abs() < 1e-9);
        // Empty ledger: full coverage by convention.
        assert_eq!(Ledger::new().accounting_coverage(), 1.0);
    }

    #[test]
    fn utilization_metric() {
        let mut l = Ledger::new();
        l.record(rec(1, 64, 100, UsageSource::Wlm));
        // 64 cores busy for 100s on a 128-core cluster over 100s = 50%.
        assert!((l.utilization(128, SimSpan::secs(100)) - 0.5).abs() < 1e-9);
        assert_eq!(l.utilization(0, SimSpan::secs(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_interval_panics() {
        let mut l = Ledger::new();
        l.record(UsageRecord {
            job: None,
            user: 1,
            cores: 1,
            gpus: 0,
            start: SimTime(10),
            end: SimTime(5),
            source: UsageSource::Wlm,
        });
    }
}
