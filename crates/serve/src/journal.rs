//! The durable job journal: what makes the campaign service
//! crash-safe.
//!
//! Every tenant gets one append-only record log
//! (`<state_dir>/<tenant>.journal`, the [`rskip_store::journal`]
//! format — CRC-framed records, fsync-on-append, torn-tail truncation
//! on open). Each record is one serde-JSON [`JournalEvent`]:
//!
//! * [`Accepted`](JournalEvent::Accepted) — the full job spec, its
//!   content-hash key and effective chunk size, written before the
//!   first trial runs;
//! * [`Chunk`](JournalEvent::Chunk) — the executed-trial count and the
//!   *merged running aggregate* after each chunk. Because trial seeds
//!   are a pure function of `(campaign seed, trial index)` and
//!   [`CampaignStats`] is a commutative monoid, this pair is a
//!   complete checkpoint: a crashed job restarts from `executed` and
//!   merges to the byte-identical final aggregate;
//! * [`Done`](JournalEvent::Done) / [`Cancelled`](JournalEvent::Cancelled)
//!   — terminal markers. `Done` carries everything the result cache
//!   needs to answer a resubmission without running a trial;
//!   `Cancelled` makes an explicit cancel stick across restarts.
//!
//! A job with no terminal marker is exactly a job the server owes work
//! on: replay turns those into [`ResumableJob`]s (resumed at the
//! next chunk boundary) and the `Done`s into cache seeds. Job ids are
//! made idempotent across restarts by seeding the server's id counter
//! from the journal's maximum.
//!
//! Jobs that stream per-trial outcome codes (`want_outcomes`) are not
//! journaled: a replayed job cannot re-emit codes for trials it did
//! not run, so those jobs are honestly restart-from-zero.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use rskip_core::stats::CampaignStats;
use rskip_store::journal::JournalFile;
use rskip_store::StoreError;

use crate::protocol::{encode, DoneFrame, JobSpec};

/// One journal record. The variants mirror the job life cycle; see the
/// module docs for what each one guarantees.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// A job entered the queue (or re-entered it, resuming suspended
    /// progress under a fresh id).
    Accepted {
        /// Server-assigned job id.
        job: u64,
        /// Content-hash identity of the work (see
        /// [`job_key`](crate::server::job_key)).
        key: u64,
        /// The submitted spec, verbatim.
        spec: JobSpec,
        /// Effective chunk size — replayed jobs must keep it so the
        /// early-stop decision points (hence the executed-trial set)
        /// stay identical to the uninterrupted run.
        chunk: u32,
    },
    /// A chunk finished; `stats` is the merged aggregate over all
    /// `executed` trials so far — a complete resume checkpoint.
    Chunk {
        /// Job id.
        job: u64,
        /// Trials executed so far.
        executed: u32,
        /// Running aggregate over those trials.
        stats: CampaignStats,
    },
    /// The job completed (all trials or early stop).
    Done {
        /// Job id.
        job: u64,
        /// Trials executed.
        executed: u32,
        /// Whether the early-stopping rule fired.
        early_stopped: bool,
        /// Final aggregate.
        stats: CampaignStats,
        /// Wall nanoseconds the job spent executing.
        total_nanos: u64,
    },
    /// The job was explicitly cancelled — terminal; a restart must not
    /// resurrect it.
    Cancelled {
        /// Job id.
        job: u64,
        /// Trials executed before the cancel took effect.
        executed: u32,
    },
}

/// An unfinished job reconstructed from the journal: everything the
/// server needs to re-enqueue it at its next chunk boundary.
#[derive(Clone, Debug)]
pub struct ResumableJob {
    /// Original job id (kept, so later journal records line up).
    pub job: u64,
    /// Content-hash identity.
    pub key: u64,
    /// The spec as originally submitted.
    pub spec: JobSpec,
    /// Original effective chunk size.
    pub chunk: u32,
    /// Trials already executed (resume starts here).
    pub executed: u32,
    /// Merged aggregate over the executed trials.
    pub stats: CampaignStats,
}

/// Everything recovered from a state directory's journals.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Unfinished jobs, ordered by original job id.
    pub resumable: Vec<ResumableJob>,
    /// Completed results, keyed by job key — the result cache's seed.
    pub completed: BTreeMap<u64, DoneFrame>,
    /// One past the largest job id seen — the restarted server's id
    /// counter, so ids stay unique across restarts.
    pub next_job_id: u64,
    /// Torn-tail bytes truncated across all journals (crash residue).
    pub truncated_bytes: u64,
    /// Records that framed cleanly but did not decode as events
    /// (foreign writer or logic drift) — skipped, never fatal.
    pub skipped_records: u64,
    /// Total events replayed.
    pub events: u64,
}

/// Per-tenant journal writers for one state directory. Each tenant's
/// file has its own lock, held across append and fsync: writers of
/// different tenants never wait on each other's fsync, and one tenant's
/// appends (so each job's events) stay in order. The map lock is held
/// only to find or open a file.
pub struct JobJournal {
    dir: PathBuf,
    tenants: Mutex<BTreeMap<String, Arc<Mutex<JournalFile>>>>,
}

impl JobJournal {
    /// Opens every existing `*.journal` under `dir` (creating `dir` if
    /// needed), replays them, and returns the writer plus the merged
    /// [`Recovery`].
    ///
    /// # Errors
    ///
    /// Directory creation/scan failures, or a journal whose *header*
    /// is unreadable (torn tails inside records are recovered, not
    /// errors).
    pub fn open(dir: &Path) -> Result<(JobJournal, Recovery), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let mut tenants = BTreeMap::new();
        let mut recovery = Recovery {
            next_job_id: 1,
            ..Recovery::default()
        };
        let mut events: Vec<JournalEvent> = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "journal"))
            .collect();
        paths.sort();
        for path in paths {
            let Some(tenant) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                continue;
            };
            let opened = JournalFile::open(&path)?;
            recovery.truncated_bytes += opened.truncated_bytes;
            for record in &opened.records {
                match std::str::from_utf8(record)
                    .ok()
                    .and_then(|line| crate::protocol::decode::<JournalEvent>(line).ok())
                {
                    Some(event) => events.push(event),
                    None => recovery.skipped_records += 1,
                }
            }
            tenants.insert(tenant, Arc::new(Mutex::new(opened.journal)));
        }
        replay(&events, &mut recovery);
        Ok((
            JobJournal {
                dir: dir.to_path_buf(),
                tenants: Mutex::new(tenants),
            },
            recovery,
        ))
    }

    /// Appends one event to `tenant`'s journal, fsynced before return.
    ///
    /// # Errors
    ///
    /// Journal create/append failure. The caller may keep serving —
    /// losing durability is better than losing the job — but should
    /// surface the failure.
    pub fn record(&self, tenant: &str, event: &JournalEvent) -> Result<(), StoreError> {
        let file = {
            let mut tenants = self.tenants.lock().unwrap();
            if !tenants.contains_key(tenant) {
                let opened = JournalFile::open(&self.dir.join(format!("{tenant}.journal")))?;
                tenants.insert(tenant.to_string(), Arc::new(Mutex::new(opened.journal)));
            }
            Arc::clone(&tenants[tenant])
        };
        let line = encode(event);
        let mut file = file.lock().unwrap();
        file.append(line.as_bytes())
    }
}

/// Folds a replayed event stream into [`Recovery`] state: last-write-
/// wins per job id, terminals retire jobs, survivors become resumable.
fn replay(events: &[JournalEvent], recovery: &mut Recovery) {
    struct JobState {
        key: u64,
        spec: JobSpec,
        chunk: u32,
        executed: u32,
        stats: CampaignStats,
        terminal: bool,
    }
    let mut jobs: BTreeMap<u64, JobState> = BTreeMap::new();
    let note_id = |recovery: &mut Recovery, job: u64| {
        recovery.next_job_id = recovery.next_job_id.max(job + 1);
    };
    for event in events {
        recovery.events += 1;
        match event {
            JournalEvent::Accepted {
                job,
                key,
                spec,
                chunk,
            } => {
                note_id(recovery, *job);
                jobs.insert(
                    *job,
                    JobState {
                        key: *key,
                        spec: spec.clone(),
                        chunk: *chunk,
                        executed: 0,
                        stats: CampaignStats::default(),
                        terminal: false,
                    },
                );
            }
            JournalEvent::Chunk {
                job,
                executed,
                stats,
            } => {
                note_id(recovery, *job);
                if let Some(state) = jobs.get_mut(job) {
                    state.executed = *executed;
                    state.stats = *stats;
                }
            }
            JournalEvent::Done {
                job,
                executed,
                early_stopped,
                stats,
                total_nanos,
            } => {
                note_id(recovery, *job);
                if let Some(state) = jobs.get_mut(job) {
                    state.terminal = true;
                    recovery.completed.insert(
                        state.key,
                        DoneFrame {
                            job: *job,
                            executed: *executed,
                            requested: state.spec.trials,
                            early_stopped: *early_stopped,
                            stats: *stats,
                            correct_ci: stats.correct_ci(),
                            sdc_ci: stats.sdc_ci(),
                            total_nanos: *total_nanos,
                            cached: false,
                        },
                    );
                }
            }
            JournalEvent::Cancelled { job, .. } => {
                note_id(recovery, *job);
                if let Some(state) = jobs.get_mut(job) {
                    state.terminal = true;
                }
            }
        }
    }
    for (job, state) in jobs {
        if !state.terminal {
            recovery.resumable.push(ResumableJob {
                job,
                key: state.key,
                spec: state.spec,
                chunk: state.chunk,
                executed: state.executed,
                stats: state.stats,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_state_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "rskip-serve-journal-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stats_of(correct: u32, sdc: u32) -> CampaignStats {
        use rskip_core::stats::{OutcomeClass, TrialOutcome};
        let mut stats = CampaignStats::default();
        for _ in 0..correct {
            stats.record(TrialOutcome {
                class: OutcomeClass::Correct,
                recovered: false,
                fired: true,
                pruned: false,
            });
        }
        for _ in 0..sdc {
            stats.record(TrialOutcome {
                class: OutcomeClass::Sdc,
                recovered: false,
                fired: true,
                pruned: false,
            });
        }
        stats
    }

    #[test]
    fn events_roundtrip_as_records() {
        let dir = temp_state_dir("roundtrip");
        let spec = JobSpec::new("conv1d", "ar20", "seu", 100);
        let events = [
            JournalEvent::Accepted {
                job: 3,
                key: 0xDEAD,
                spec: spec.clone(),
                chunk: 25,
            },
            JournalEvent::Chunk {
                job: 3,
                executed: 25,
                stats: stats_of(24, 1),
            },
            JournalEvent::Done {
                job: 3,
                executed: 100,
                early_stopped: false,
                stats: stats_of(95, 5),
                total_nanos: 1234,
            },
            JournalEvent::Cancelled {
                job: 9,
                executed: 0,
            },
        ];
        {
            let (journal, recovery) = JobJournal::open(&dir).unwrap();
            assert_eq!(recovery.events, 0);
            for e in &events {
                journal.record("public", e).unwrap();
            }
        }
        let (_, recovery) = JobJournal::open(&dir).unwrap();
        assert_eq!(recovery.events, events.len() as u64);
        assert_eq!(recovery.skipped_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_separates_resumable_completed_and_cancelled() {
        let dir = temp_state_dir("replay");
        let spec = JobSpec::new("conv1d", "ar20", "seu", 100);
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            // Job 1: accepted, two chunks, crash (no terminal).
            journal
                .record(
                    "public",
                    &JournalEvent::Accepted {
                        job: 1,
                        key: 11,
                        spec: spec.clone(),
                        chunk: 25,
                    },
                )
                .unwrap();
            journal
                .record(
                    "public",
                    &JournalEvent::Chunk {
                        job: 1,
                        executed: 25,
                        stats: stats_of(24, 1),
                    },
                )
                .unwrap();
            journal
                .record(
                    "public",
                    &JournalEvent::Chunk {
                        job: 1,
                        executed: 50,
                        stats: stats_of(47, 3),
                    },
                )
                .unwrap();
            // Job 2 (another tenant): ran to completion.
            let mut spec2 = spec.clone();
            spec2.tenant = "team-b".into();
            journal
                .record(
                    "team-b",
                    &JournalEvent::Accepted {
                        job: 2,
                        key: 22,
                        spec: spec2,
                        chunk: 50,
                    },
                )
                .unwrap();
            journal
                .record(
                    "team-b",
                    &JournalEvent::Done {
                        job: 2,
                        executed: 100,
                        early_stopped: false,
                        stats: stats_of(96, 4),
                        total_nanos: 555,
                    },
                )
                .unwrap();
            // Job 5: explicitly cancelled — must stay dead.
            journal
                .record(
                    "public",
                    &JournalEvent::Accepted {
                        job: 5,
                        key: 55,
                        spec: spec.clone(),
                        chunk: 25,
                    },
                )
                .unwrap();
            journal
                .record(
                    "public",
                    &JournalEvent::Cancelled {
                        job: 5,
                        executed: 25,
                    },
                )
                .unwrap();
        }
        let (_, recovery) = JobJournal::open(&dir).unwrap();
        assert_eq!(recovery.resumable.len(), 1);
        let r = &recovery.resumable[0];
        assert_eq!((r.job, r.key, r.executed, r.chunk), (1, 11, 50, 25));
        assert_eq!(r.stats, stats_of(47, 3));
        assert_eq!(recovery.completed.len(), 1);
        let done = &recovery.completed[&22];
        assert_eq!(done.executed, 100);
        assert_eq!(done.stats, stats_of(96, 4));
        assert!(!done.cached, "cache seed frames start uncached");
        // Ids survive the restart: 5 was the max seen.
        assert_eq!(recovery.next_job_id, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_tenants_append_without_losing_order() {
        let dir = temp_state_dir("concurrent");
        let events_of = |t: u64| -> Vec<JournalEvent> {
            (1..=25)
                .map(|c| JournalEvent::Chunk {
                    job: t,
                    executed: 4 * c,
                    stats: stats_of(4 * c, 0),
                })
                .collect()
        };
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            std::thread::scope(|scope| {
                for t in 1..=4 {
                    let (journal, events) = (&journal, events_of(t));
                    scope.spawn(move || {
                        for e in &events {
                            journal.record(&format!("tenant-{t}"), e).unwrap();
                        }
                    });
                }
            });
        }
        let (_, recovery) = JobJournal::open(&dir).unwrap();
        assert_eq!((recovery.events, recovery.skipped_records), (100, 0));
        for t in 1..=4 {
            let path = dir.join(format!("tenant-{t}.journal"));
            let records = rskip_store::JournalFile::open(&path).unwrap().records;
            let want: Vec<_> = events_of(t)
                .iter()
                .map(|e| encode(e).into_bytes())
                .collect();
            assert_eq!(records, want, "tenant-{t}'s events out of order");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal in the layout written while `JobSpec` still had a
    /// `tier` field replays to the same [`Recovery`]: job 1 (tier
    /// `match`) resumes with its journaled key, and job 2 (tier empty)
    /// seeds the cache under the key a tierless resubmission gets now.
    #[test]
    fn journal_with_tier_fields_replays_unchanged() {
        const LINES: [&str; 4] = [
            r#"{"Accepted":{"job":1,"key":385114726044374073,"spec":{"tenant":"","bench":"conv1d","scheme":"ar20","fault_model":"seu","tier":"match","trials":100,"chunk":0,"stop":null,"want_outcomes":false},"chunk":25}}"#,
            r#"{"Chunk":{"job":1,"executed":25,"stats":{"counts":{"correct":24,"sdc":1,"segfault":0,"core_dump":0,"hang":0,"detected":0},"false_negatives":{"correct":0,"sdc":1,"segfault":0,"core_dump":0,"hang":0,"detected":0},"recoveries":0,"not_fired":0,"pruned":0}}}"#,
            r#"{"Accepted":{"job":2,"key":16121319149337519565,"spec":{"tenant":"","bench":"conv1d","scheme":"unsafe","fault_model":"skip","tier":"","trials":60,"chunk":0,"stop":null,"want_outcomes":false},"chunk":30}}"#,
            r#"{"Done":{"job":2,"executed":60,"early_stopped":false,"stats":{"counts":{"correct":57,"sdc":3,"segfault":0,"core_dump":0,"hang":0,"detected":0},"false_negatives":{"correct":0,"sdc":3,"segfault":0,"core_dump":0,"hang":0,"detected":0},"recoveries":0,"not_fired":0,"pruned":0},"total_nanos":4321}}"#,
        ];
        let dir = temp_state_dir("tier-layout");
        {
            let path = dir.join("public.journal");
            let mut file = rskip_store::JournalFile::open(&path).unwrap().journal;
            for line in LINES {
                file.append(line.as_bytes()).unwrap();
            }
        }
        let (_, recovery) = JobJournal::open(&dir).unwrap();
        assert_eq!((recovery.events, recovery.skipped_records), (4, 0));
        assert_eq!(recovery.next_job_id, 3);

        assert_eq!(recovery.resumable.len(), 1);
        let r = &recovery.resumable[0];
        assert_eq!(
            (r.job, r.key, r.chunk, r.executed),
            (1, 0x0558_33cd_8ba5_9439, 25, 25)
        );
        assert_eq!(r.spec, JobSpec::new("conv1d", "ar20", "seu", 100));
        assert_eq!(r.stats, stats_of(24, 1));

        let spec2 = JobSpec::new("conv1d", "unsafe", "skip", 60);
        let key2 = crate::server::job_key(7, &spec2, 30);
        assert_eq!(key2, 0xdfba_6e5a_16f7_25cd);
        assert_eq!(recovery.completed.len(), 1);
        let seed = &recovery.completed[&key2];
        assert_eq!((seed.job, seed.executed, seed.requested), (2, 60, 60));
        assert_eq!(
            (seed.total_nanos, seed.early_stopped, seed.cached),
            (4321, false, false)
        );
        assert_eq!(seed.stats, stats_of(57, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_records_are_skipped_not_fatal() {
        let dir = temp_state_dir("skip");
        {
            let (journal, _) = JobJournal::open(&dir).unwrap();
            journal
                .record(
                    "public",
                    &JournalEvent::Cancelled {
                        job: 1,
                        executed: 0,
                    },
                )
                .unwrap();
        }
        // A foreign-but-intact record (CRC valid, not a JournalEvent).
        {
            let path = dir.join("public.journal");
            let mut file = rskip_store::JournalFile::open(&path).unwrap().journal;
            file.append(b"{\"NotAnEvent\":{}}").unwrap();
        }
        let (_, recovery) = JobJournal::open(&dir).unwrap();
        assert_eq!(recovery.events, 1);
        assert_eq!(recovery.skipped_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
