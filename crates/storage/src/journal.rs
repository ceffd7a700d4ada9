//! Write-ahead intent journal over the content-addressed blob store.
//!
//! Crash-consistency layer for the pull→convert→cache pipeline. Every
//! multi-step mutation of the store runs as an *intent*:
//!
//! 1. `begin` appends a [`JournalRecord::Begin`] naming the operation;
//! 2. each durable effect is *staged* — a [`JournalRecord::Stage`] is
//!    appended **before** the blob lands in the store (record before
//!    effect, the WAL invariant), and the insert's refcount pin is held
//!    by the intent;
//! 3. `commit` appends [`JournalRecord::Commit`] and only then drops the
//!    staged pins — committed blobs stay resident as unpinned cache.
//!
//! An intent that never commits (its owner crashed or erred) is rolled
//! back: by `abort` at runtime, or by the fsck-style
//! [`recover`](Recoverable::recover) pass after a crash, which
//!
//! * rolls forward committed intents (verifies their staged blobs),
//! * garbage-collects staged blobs of open intents — unless a committed
//!   intent also references the digest (content-addressed sharing),
//! * rebuilds refcounts from a clean slate (pins died with their owners),
//! * appends the missing `Abort` records so a second pass is a no-op.
//!
//! Recovery itself passes crash points, and the GC-before-abort-record
//! ordering makes a crash *during* recovery survivable: the next pass
//! still sees the intent as open and simply redoes the (idempotent) GC.
//!
//! Every journal write site is registered in [`JOURNAL_SITES`] and fires
//! a `<site>.pre` crash point immediately before and a `<site>.post`
//! point immediately after the append; an append through an unregistered
//! site trips a debug assertion (the `crash-matrix` CI stage runs the
//! debug profile precisely to catch new write sites that forgot to
//! register).

use crate::blobstore::BlobStore;
use hpcc_crypto::sha256::Digest;
use hpcc_sim::sym;
use hpcc_sim::{
    CrashInjector, Crashed, Recoverable, RecoveryReport, SimSpan, SimTime, Stage, StateDigest,
    Tracer,
};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One append-only journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// An operation opened an intent.
    Begin {
        intent: u64,
        /// Operation kind, e.g. `engine.pull` or `engine.convert`.
        op: String,
        /// Operation key (image reference, conversion cache key).
        key: String,
    },
    /// The intent staged a blob into the store (pin held until commit).
    Stage {
        intent: u64,
        digest: Digest,
        bytes: u64,
    },
    /// The intent's effects are fully durable.
    Commit { intent: u64 },
    /// The intent was rolled back (runtime abort or recovery fsck).
    Abort { intent: u64 },
}

/// Every site that appends to the journal. The crash matrix asserts each
/// site's `.pre`/`.post` points were exercised; a debug assertion
/// rejects appends from sites missing here.
pub const JOURNAL_SITES: [&str; 5] = [
    "journal.begin",
    "journal.stage",
    "journal.commit",
    "journal.abort",
    "journal.recover.abort",
];

/// The `(pre, post)` crash points of a registered journal write site.
/// Debug builds refuse unregistered sites — adding a write site without
/// registering it here (and thereby in the crash matrix) is a bug.
fn site_points(site: &str) -> (&'static str, &'static str) {
    match site {
        "journal.begin" => ("journal.begin.pre", "journal.begin.post"),
        "journal.stage" => ("journal.stage.pre", "journal.stage.post"),
        "journal.commit" => ("journal.commit.pre", "journal.commit.post"),
        "journal.abort" => ("journal.abort.pre", "journal.abort.post"),
        "journal.recover.abort" => ("journal.recover.abort.pre", "journal.recover.abort.post"),
        other => {
            debug_assert!(false, "unregistered journal write site: {other}");
            ("journal.unregistered.pre", "journal.unregistered.post")
        }
    }
}

/// Deterministic recovery cost model: scanning the journal is cheap,
/// garbage-collecting a staged blob pays a small per-blob cost.
const SCAN_NANOS_PER_RECORD: u64 = 200;
const GC_NANOS_PER_BLOB: u64 = 2_000;

/// A [`BlobStore`] wrapped in a write-ahead intent journal.
pub struct JournaledStore {
    store: Arc<BlobStore>,
    journal: Mutex<Vec<JournalRecord>>,
    crash: Mutex<Arc<CrashInjector>>,
    tracer: Mutex<Arc<Tracer>>,
    next_intent: AtomicU64,
}

impl JournaledStore {
    pub fn new(store: Arc<BlobStore>) -> Arc<JournaledStore> {
        Arc::new(JournaledStore {
            store,
            journal: Mutex::new(Vec::new()),
            crash: Mutex::new(CrashInjector::disabled()),
            tracer: Mutex::new(Tracer::disabled()),
            next_intent: AtomicU64::new(0),
        })
    }

    /// The underlying blob store (shared with non-journaled readers).
    pub fn store(&self) -> Arc<BlobStore> {
        Arc::clone(&self.store)
    }

    /// Route every journal write site through `crash` points.
    pub fn set_crash_injector(&self, crash: Arc<CrashInjector>) {
        *self.crash.lock() = crash;
    }

    fn crash_injector(&self) -> Arc<CrashInjector> {
        Arc::clone(&self.crash.lock())
    }

    /// Attach a tracer; recovery passes emit a `recover.fsck` span.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.lock() = tracer;
    }

    /// Append through a registered write site: `<site>.pre` crash point,
    /// push the record, `<site>.post` crash point.
    fn append(&self, site: &str, record: JournalRecord, now: SimTime) -> Result<(), Crashed> {
        let (pre, post) = site_points(site);
        let crash = self.crash_injector();
        crash.crash_point(pre, now)?;
        self.journal.lock().push(record);
        crash.crash_point(post, now)
    }

    /// Open an intent for `op` on `key`. Returns the intent id.
    pub fn begin(&self, op: &str, key: &str, now: SimTime) -> Result<u64, Crashed> {
        let intent = self.next_intent.fetch_add(1, Ordering::Relaxed) + 1;
        self.append(
            "journal.begin",
            JournalRecord::Begin {
                intent,
                op: op.to_string(),
                key: key.to_string(),
            },
            now,
        )?;
        Ok(intent)
    }

    /// Stage a blob under `intent`: journal record first (WAL), then the
    /// store insert, whose refcount pin the intent holds until commit or
    /// abort. Returns `true` if the bytes were newly stored (dedup miss).
    pub fn stage(
        &self,
        intent: u64,
        digest: Digest,
        data: Arc<Vec<u8>>,
        now: SimTime,
    ) -> Result<bool, Crashed> {
        self.append(
            "journal.stage",
            JournalRecord::Stage {
                intent,
                digest,
                bytes: data.len() as u64,
            },
            now,
        )?;
        Ok(self.store.insert(digest, data))
    }

    /// Commit `intent`: once the Commit record is durable, drop the staged
    /// pins — the blobs stay resident as unpinned, evictable cache.
    pub fn commit(&self, intent: u64, now: SimTime) -> Result<(), Crashed> {
        self.append("journal.commit", JournalRecord::Commit { intent }, now)?;
        for digest in self.staged_of(intent) {
            self.store.release(&digest);
        }
        Ok(())
    }

    /// Roll back `intent` at runtime (its owner hit a non-crash error):
    /// garbage-collect its staged blobs, then append the Abort record.
    /// Returns how many blobs were removed.
    pub fn abort(&self, intent: u64, now: SimTime) -> Result<u64, Crashed> {
        let discarded = self.gc_intent(intent, true);
        self.append("journal.abort", JournalRecord::Abort { intent }, now)?;
        Ok(discarded)
    }

    /// Release (optionally) and remove the staged blobs of `intent`, unless
    /// a committed intent also references the digest. Effect-before-record:
    /// callers append the Abort record *after* this, so a crash in between
    /// leaves the intent open and the next recovery redoes the (idempotent)
    /// GC.
    fn gc_intent(&self, intent: u64, release_pins: bool) -> u64 {
        let committed = self.committed_digests();
        let mut discarded = 0;
        for digest in self.staged_of(intent) {
            if release_pins {
                self.store.release(&digest);
            }
            if !committed.contains(&digest) && self.store.remove_unpinned(&digest) {
                discarded += 1;
            }
        }
        discarded
    }

    fn staged_of(&self, intent: u64) -> Vec<Digest> {
        self.journal
            .lock()
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Stage {
                    intent: i, digest, ..
                } if *i == intent => Some(*digest),
                _ => None,
            })
            .collect()
    }

    fn committed_digests(&self) -> BTreeSet<Digest> {
        let journal = self.journal.lock();
        let committed: BTreeSet<u64> = journal
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit { intent } => Some(*intent),
                _ => None,
            })
            .collect();
        journal
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Stage { intent, digest, .. } if committed.contains(intent) => {
                    Some(*digest)
                }
                _ => None,
            })
            .collect()
    }

    /// Snapshot of the journal.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.journal.lock().clone()
    }

    /// Journal length (appends so far).
    pub fn len(&self) -> usize {
        self.journal.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.journal.lock().is_empty()
    }

    /// Intents begun but neither committed nor aborted, in begin order.
    pub fn open_intents(&self) -> Vec<u64> {
        let journal = self.journal.lock();
        let closed: BTreeSet<u64> = journal
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit { intent } | JournalRecord::Abort { intent } => Some(*intent),
                _ => None,
            })
            .collect();
        journal
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Begin { intent, .. } if !closed.contains(intent) => Some(*intent),
                _ => None,
            })
            .collect()
    }

    /// Blobs staged under still-open intents and resident in the store —
    /// garbage a crash left behind. Empty after a successful recovery.
    pub fn orphaned_staged(&self) -> Vec<Digest> {
        let open: BTreeSet<u64> = self.open_intents().into_iter().collect();
        let committed = self.committed_digests();
        let mut out: BTreeSet<Digest> = BTreeSet::new();
        for record in self.journal.lock().iter() {
            if let JournalRecord::Stage { intent, digest, .. } = record {
                if open.contains(intent)
                    && !committed.contains(digest)
                    && self.store.contains(digest)
                {
                    out.insert(*digest);
                }
            }
        }
        out.into_iter().collect()
    }
}

impl Recoverable for JournaledStore {
    /// Digest of durable state: resident blobs and their refcounts, in
    /// digest order. Byte-identical stores (and quiesced pins) collide.
    fn checkpoint(&self, _now: SimTime) -> u64 {
        let mut digest = StateDigest::new();
        for d in self.store.digests() {
            digest.update(&d.0);
            digest.update_u64(self.store.refcount(&d).unwrap_or(0));
        }
        digest.finish()
    }

    /// fsck after a crash: rebuild refcounts from zero (in-flight pins died
    /// with their owners), verify committed intents' blobs, GC the staged
    /// blobs of open intents and append their missing Abort records.
    /// Idempotent — a second pass finds no open intents and changes
    /// nothing — and itself survivable through crash points.
    fn recover(&self, now: SimTime) -> Result<RecoveryReport, Crashed> {
        let crash = self.crash_injector();
        crash.crash_point("recover.scan.pre", now)?;

        let records = self.records();
        let committed: BTreeSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit { intent } => Some(*intent),
                _ => None,
            })
            .collect();

        let rebuilt = self.store.reset_refs();

        // Roll forward: a committed intent is intact when every blob it
        // staged is resident (content-addressed, so byte equality is
        // digest equality).
        let mut rolled_forward = 0;
        for intent in &committed {
            let staged = self.staged_of(*intent);
            if !staged.is_empty() && staged.iter().all(|d| self.store.contains(d)) {
                rolled_forward += 1;
            }
        }

        // Roll back: GC open intents' staging, then write their Abort
        // records (effect before record — see `gc_intent`).
        let mut discarded = 0;
        for intent in self.open_intents() {
            discarded += self.gc_intent(intent, false);
            self.append(
                "journal.recover.abort",
                JournalRecord::Abort { intent },
                now,
            )?;
        }

        let took = SimSpan::nanos(
            SCAN_NANOS_PER_RECORD * records.len() as u64 + GC_NANOS_PER_BLOB * discarded,
        );
        self.tracer.lock().record(
            sym!("recover.fsck"),
            Stage::Cache,
            now,
            now + took,
            [
                (sym!("records"), records.len().into()),
                (sym!("rolled_forward"), rolled_forward.into()),
                (sym!("discarded"), discarded.into()),
                (sym!("rebuilt"), rebuilt.into()),
            ],
        );
        Ok(RecoveryReport {
            rolled_forward,
            discarded,
            rebuilt,
            took,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_crypto::sha256::sha256;

    fn blob(tag: u8, len: usize) -> (Digest, Arc<Vec<u8>>) {
        let data = vec![tag; len];
        (sha256(&data), Arc::new(data))
    }

    fn journaled() -> Arc<JournaledStore> {
        JournaledStore::new(BlobStore::new(4, 1 << 20))
    }

    #[test]
    fn commit_releases_pins_and_keeps_blobs() {
        let j = journaled();
        let t = SimTime::ZERO;
        let intent = j.begin("engine.pull", "app:v1", t).unwrap();
        let (d, data) = blob(1, 100);
        assert!(j.stage(intent, d, data, t).unwrap());
        assert_eq!(j.store().refcount(&d), Some(1), "staged blob is pinned");
        j.commit(intent, t).unwrap();
        assert_eq!(j.store().refcount(&d), Some(0), "commit drops the pin");
        assert!(j.store().contains(&d));
        assert!(j.open_intents().is_empty());
        assert!(j.orphaned_staged().is_empty());
    }

    #[test]
    fn abort_gcs_staging_unless_committed_elsewhere() {
        let j = journaled();
        let t = SimTime::ZERO;
        let (shared, shared_data) = blob(1, 50);
        let (own, own_data) = blob(2, 50);

        let keeper = j.begin("engine.pull", "a:v1", t).unwrap();
        j.stage(keeper, shared, Arc::clone(&shared_data), t)
            .unwrap();
        j.commit(keeper, t).unwrap();

        let doomed = j.begin("engine.pull", "b:v1", t).unwrap();
        j.stage(doomed, shared, shared_data, t).unwrap();
        j.stage(doomed, own, own_data, t).unwrap();
        let discarded = j.abort(doomed, t).unwrap();
        assert_eq!(discarded, 1, "only the un-shared blob goes");
        assert!(j.store().contains(&shared), "committed elsewhere: kept");
        assert!(!j.store().contains(&own));
        assert!(j.store().pinned().is_empty());
        assert!(j.open_intents().is_empty());
    }

    #[test]
    fn recovery_rolls_forward_committed_and_discards_open() {
        let j = journaled();
        let t = SimTime::ZERO;
        let (dc, committed_data) = blob(1, 100);
        let done = j.begin("engine.pull", "a:v1", t).unwrap();
        j.stage(done, dc, committed_data, t).unwrap();
        j.commit(done, t).unwrap();

        // Simulate a crash mid-pull: intent open, blob staged & pinned.
        let (dx, orphan_data) = blob(2, 100);
        let open = j.begin("engine.pull", "b:v1", t).unwrap();
        j.stage(open, dx, orphan_data, t).unwrap();
        assert_eq!(j.orphaned_staged(), vec![dx]);

        let report = j.recover(t).unwrap();
        assert_eq!(report.rolled_forward, 1);
        assert_eq!(report.discarded, 1);
        assert_eq!(report.rebuilt, 1, "the orphan's pin was rebuilt away");
        assert!(report.took > SimSpan::ZERO);
        assert!(j.store().contains(&dc));
        assert!(!j.store().contains(&dx));
        assert!(j.store().pinned().is_empty());
        assert!(j.open_intents().is_empty());
        assert!(j.orphaned_staged().is_empty());
    }

    #[test]
    fn recovery_is_idempotent() {
        let j = journaled();
        let t = SimTime::ZERO;
        let (d, data) = blob(3, 64);
        let open = j.begin("engine.pull", "x:v1", t).unwrap();
        j.stage(open, d, data, t).unwrap();

        j.recover(t).unwrap();
        let after_first = (j.checkpoint(t), j.len());
        let second = j.recover(t).unwrap();
        assert_eq!(second.discarded, 0);
        assert_eq!((j.checkpoint(t), j.len()), after_first);
    }

    #[test]
    fn crash_during_recovery_is_survivable() {
        let j = journaled();
        let crash = CrashInjector::enabled();
        j.set_crash_injector(Arc::clone(&crash));
        let t = SimTime::ZERO;
        let (d, data) = blob(4, 64);
        let open = j.begin("engine.pull", "y:v1", t).unwrap();
        j.stage(open, d, data, t).unwrap();

        // Die after the GC but before the Abort record lands.
        crash.arm("journal.recover.abort.pre", 1);
        assert!(j.recover(t).is_err());
        assert_eq!(j.open_intents(), vec![open], "abort record never landed");

        // The next pass finishes the job.
        let report = j.recover(t).unwrap();
        assert!(j.open_intents().is_empty());
        assert!(j.store().pinned().is_empty());
        assert!(!j.store().contains(&d));
        // The blob was already GC'd by the crashed pass — idempotent redo.
        assert_eq!(report.discarded, 0);
    }

    #[test]
    fn journal_sites_fire_pre_and_post_points() {
        let j = journaled();
        let crash = CrashInjector::enabled();
        j.set_crash_injector(Arc::clone(&crash));
        let t = SimTime::ZERO;
        let (d, data) = blob(5, 10);
        let a = j.begin("op", "k", t).unwrap();
        j.stage(a, d, data, t).unwrap();
        j.commit(a, t).unwrap();
        let b = j.begin("op", "k2", t).unwrap();
        j.abort(b, t).unwrap();
        let pts = crash.points();
        for site in [
            "journal.begin",
            "journal.stage",
            "journal.commit",
            "journal.abort",
        ] {
            for suffix in [".pre", ".post"] {
                let want = format!("{site}{suffix}");
                assert!(pts.iter().any(|p| *p == want), "missing {want} in {pts:?}");
            }
        }
    }

    #[test]
    fn checkpoint_tracks_contents_and_pins() {
        let j1 = journaled();
        let j2 = journaled();
        let t = SimTime::ZERO;
        let (d, data) = blob(6, 32);
        let i1 = j1.begin("op", "k", t).unwrap();
        j1.stage(i1, d, Arc::clone(&data), t).unwrap();
        let i2 = j2.begin("op", "k", t).unwrap();
        j2.stage(i2, d, data, t).unwrap();
        assert_eq!(j1.checkpoint(t), j2.checkpoint(t));
        j1.commit(i1, t).unwrap();
        assert_ne!(j1.checkpoint(t), j2.checkpoint(t), "pin state differs");
        j2.commit(i2, t).unwrap();
        assert_eq!(j1.checkpoint(t), j2.checkpoint(t));
    }
}
