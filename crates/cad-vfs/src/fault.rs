//! Deterministic fault injection for the virtual file system.
//!
//! A [`FaultPlan`] armed on a [`Vfs`](crate::Vfs) turns the file system
//! into a hostile disk: the Nth content write can fail outright, fail
//! *torn* (a pseudo-random strict prefix of the payload persists before
//! the error is reported — the classic partially-flushed page), a byte
//! quota can run out mid-write (ENOSPC), and reads can fail
//! transiently. Everything is driven by an owned [`SplitMix64`] stream,
//! so the same seed produces the same torn prefixes on every host —
//! crash-point matrix tests enumerate fault points exhaustively and
//! reproduce any failure from the seed alone.
//!
//! The plan is a real subsystem of the Vfs, not test scaffolding: the
//! persistence layers above (`oms::persist`, `hybrid::Engine`) contain
//! no fault-specific branches. They simply observe ordinary
//! [`VfsError`](crate::VfsError)s at their write sites, which is
//! exactly how a real ENOSPC or I/O error would surface.
//!
//! Only *content* operations are injectable. Metadata operations —
//! `rename` in particular — never fault: `rename` is the atomic commit
//! point of the write-to-temp-then-rename protocol, and the model
//! mirrors POSIX, where a same-directory rename is a single directory-
//! entry update.
//!
//! # Examples
//!
//! ```
//! use cad_vfs::{FaultPlan, Vfs, VfsError, VfsPath};
//!
//! let mut fs = Vfs::new();
//! let f = VfsPath::parse("/f").unwrap();
//! fs.arm_faults(FaultPlan::new(7).torn_write(2));
//! fs.write(&f, b"first".to_vec()).unwrap();
//! // The second write tears: a strict prefix persists, then the error.
//! let err = fs.write(&f, b"second".to_vec()).unwrap_err();
//! assert!(matches!(err, VfsError::InjectedWriteFault(_)));
//! assert!(fs.read(&f).unwrap().len() < b"second".len());
//! let stats = fs.disarm_faults().unwrap().stats();
//! assert_eq!(stats.faults_fired, 1);
//! ```

use crate::path::VfsPath;
use crate::rng::SplitMix64;

/// Counters accumulated by an armed [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Content writes (`write` and `append` alike) observed while armed
    /// (1-based; the Nth write is the one `fail_write`/`torn_write`
    /// target).
    pub writes_seen: u64,
    /// Content reads observed while armed.
    pub reads_seen: u64,
    /// Payload bytes actually admitted to the file system (torn writes
    /// count only the persisted prefix).
    pub bytes_admitted: u64,
    /// Faults injected so far (write, torn, quota and read together).
    pub faults_fired: u64,
}

/// What an armed plan decided about one content write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteVerdict {
    /// Persist the full payload, as if no plan were armed.
    Persist,
    /// Persist exactly `prefix` bytes at the destination, then report
    /// the fault — a torn write.
    Torn {
        /// Number of leading payload bytes that reach the disk.
        prefix: usize,
        /// Which error the caller observes.
        kind: WriteFaultKind,
    },
    /// Persist nothing and report the fault.
    Reject(WriteFaultKind),
}

/// The flavor of an injected write failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFaultKind {
    /// A scheduled Nth-write failure.
    Injected,
    /// The byte quota ran out (ENOSPC).
    Quota,
}

/// A deterministic fault schedule for one [`Vfs`](crate::Vfs).
///
/// Build with [`FaultPlan::new`] and the chainable setters, then arm
/// with [`Vfs::arm_faults`](crate::Vfs::arm_faults). All triggers are
/// optional and independent; an empty plan only counts traffic, which
/// is how the crash-matrix test discovers how many injectable points a
/// workload has before enumerating them.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SplitMix64,
    fail_write_at: Option<u64>,
    torn: bool,
    fail_read_at: Option<u64>,
    quota_bytes: Option<u64>,
    scope: Option<VfsPath>,
    name_filter: Option<String>,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan with no triggers; `seed` drives torn-prefix lengths.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: SplitMix64::new(seed),
            fail_write_at: None,
            torn: false,
            fail_read_at: None,
            quota_bytes: None,
            scope: None,
            name_filter: None,
            stats: FaultStats::default(),
        }
    }

    /// Restricts the plan to content operations at or under `dir`:
    /// traffic outside the scope persists (or reads) normally and is
    /// *not counted* — `writes_seen`, `reads_seen`, the byte quota and
    /// the Nth-operation triggers all see scoped traffic only. This is
    /// how a crash campaign targets one shard's file set while the
    /// sibling shards keep committing.
    pub fn scope(mut self, dir: &VfsPath) -> FaultPlan {
        self.scope = Some(dir.clone());
        self
    }

    /// Restricts the plan to content operations whose path *contains*
    /// `needle` — e.g. `"delta-"` to tear exactly the Nth delta-
    /// checkpoint staging write, or `"ck.manifest"` to crash a
    /// manifest flip, while every other file in the same directory
    /// keeps committing. Like [`FaultPlan::scope`] (the two compose),
    /// traffic that does not match persists normally and is not
    /// counted by any trigger.
    pub fn only_paths_containing(mut self, needle: &str) -> FaultPlan {
        self.name_filter = Some(needle.to_owned());
        self
    }

    /// Whether `path` is adjudicated by this plan (always true without
    /// a [`FaultPlan::scope`] or [`FaultPlan::only_paths_containing`]
    /// filter).
    fn in_scope(&self, path: &VfsPath) -> bool {
        self.scope.as_ref().is_none_or(|dir| dir.is_prefix_of(path))
            && self
                .name_filter
                .as_ref()
                .is_none_or(|needle| path.to_string().contains(needle.as_str()))
    }

    /// Fail the `n`th content write (1-based) without persisting
    /// anything.
    pub fn fail_write(mut self, n: u64) -> FaultPlan {
        self.fail_write_at = Some(n);
        self.torn = false;
        self
    }

    /// Fail the `n`th content write (1-based) *torn*: a pseudo-random
    /// strict prefix of the payload persists before the error.
    pub fn torn_write(mut self, n: u64) -> FaultPlan {
        self.fail_write_at = Some(n);
        self.torn = true;
        self
    }

    /// Admit at most `bytes` payload bytes in total; the write that
    /// crosses the line persists only the fitting prefix and reports
    /// [`VfsError::QuotaExceeded`](crate::VfsError::QuotaExceeded).
    pub fn quota(mut self, bytes: u64) -> FaultPlan {
        self.quota_bytes = Some(bytes);
        self
    }

    /// Fail the `n`th content read (1-based) transiently.
    pub fn fail_read(mut self, n: u64) -> FaultPlan {
        self.fail_read_at = Some(n);
        self
    }

    /// The traffic and fault counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Adjudicates one content write of `len` payload bytes at `path`.
    /// Out-of-scope writes persist untouched and uncounted.
    pub(crate) fn on_write(&mut self, path: &VfsPath, len: u64) -> WriteVerdict {
        if !self.in_scope(path) {
            return WriteVerdict::Persist;
        }
        self.stats.writes_seen += 1;
        if self.fail_write_at == Some(self.stats.writes_seen) {
            self.stats.faults_fired += 1;
            if self.torn && len > 0 {
                let prefix = self.rng.below(len as usize);
                self.stats.bytes_admitted += prefix as u64;
                return WriteVerdict::Torn {
                    prefix,
                    kind: WriteFaultKind::Injected,
                };
            }
            return WriteVerdict::Reject(WriteFaultKind::Injected);
        }
        if let Some(quota) = self.quota_bytes {
            if self.stats.bytes_admitted + len > quota {
                let prefix = quota.saturating_sub(self.stats.bytes_admitted).min(len);
                self.stats.faults_fired += 1;
                self.stats.bytes_admitted += prefix;
                return WriteVerdict::Torn {
                    prefix: prefix as usize,
                    kind: WriteFaultKind::Quota,
                };
            }
        }
        self.stats.bytes_admitted += len;
        WriteVerdict::Persist
    }

    /// Adjudicates one content read at `path`; `true` means the read
    /// must fail. Out-of-scope reads succeed uncounted.
    pub(crate) fn on_read(&mut self, path: &VfsPath) -> bool {
        if !self.in_scope(path) {
            return false;
        }
        self.stats.reads_seen += 1;
        if self.fail_read_at == Some(self.stats.reads_seen) {
            self.stats.faults_fired += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> VfsPath {
        VfsPath::root()
    }

    #[test]
    fn empty_plan_only_counts() {
        let mut plan = FaultPlan::new(1);
        assert_eq!(plan.on_write(&root(), 10), WriteVerdict::Persist);
        assert!(!plan.on_read(&root()));
        assert_eq!(
            plan.stats(),
            FaultStats {
                writes_seen: 1,
                reads_seen: 1,
                bytes_admitted: 10,
                faults_fired: 0,
            }
        );
    }

    #[test]
    fn nth_write_fails_and_the_rest_pass() {
        let mut plan = FaultPlan::new(1).fail_write(2);
        assert_eq!(plan.on_write(&root(), 5), WriteVerdict::Persist);
        assert_eq!(
            plan.on_write(&root(), 5),
            WriteVerdict::Reject(WriteFaultKind::Injected)
        );
        assert_eq!(plan.on_write(&root(), 5), WriteVerdict::Persist);
        assert_eq!(plan.stats().faults_fired, 1);
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        for seed in 0..32 {
            let mut plan = FaultPlan::new(seed).torn_write(1);
            match plan.on_write(&root(), 100) {
                WriteVerdict::Torn { prefix, kind } => {
                    assert!(prefix < 100, "prefix must be strict");
                    assert_eq!(kind, WriteFaultKind::Injected);
                }
                v => panic!("expected torn verdict, got {v:?}"),
            }
        }
    }

    #[test]
    fn torn_write_of_empty_payload_degrades_to_reject() {
        let mut plan = FaultPlan::new(9).torn_write(1);
        assert_eq!(
            plan.on_write(&root(), 0),
            WriteVerdict::Reject(WriteFaultKind::Injected)
        );
    }

    #[test]
    fn quota_admits_the_fitting_prefix_then_nothing() {
        let mut plan = FaultPlan::new(3).quota(12);
        assert_eq!(plan.on_write(&root(), 10), WriteVerdict::Persist);
        assert_eq!(
            plan.on_write(&root(), 10),
            WriteVerdict::Torn {
                prefix: 2,
                kind: WriteFaultKind::Quota
            }
        );
        assert_eq!(
            plan.on_write(&root(), 10),
            WriteVerdict::Torn {
                prefix: 0,
                kind: WriteFaultKind::Quota
            }
        );
        assert_eq!(plan.stats().bytes_admitted, 12);
        assert_eq!(plan.stats().faults_fired, 2);
    }

    #[test]
    fn nth_read_fails_transiently() {
        let mut plan = FaultPlan::new(4).fail_read(2);
        assert!(!plan.on_read(&root()));
        assert!(plan.on_read(&root()));
        assert!(!plan.on_read(&root()));
        assert_eq!(plan.stats().reads_seen, 3);
    }

    #[test]
    fn scoped_plan_ignores_foreign_traffic() {
        let shard = VfsPath::parse("/backup/shard-1").unwrap();
        let inside = VfsPath::parse("/backup/shard-1/journal.log").unwrap();
        let outside = VfsPath::parse("/backup/shard-0/journal.log").unwrap();
        let mut plan = FaultPlan::new(5).torn_write(1).scope(&shard);
        assert_eq!(plan.on_write(&outside, 64), WriteVerdict::Persist);
        assert!(!plan.on_read(&outside));
        assert_eq!(plan.stats(), FaultStats::default());
        assert!(matches!(
            plan.on_write(&inside, 64),
            WriteVerdict::Torn { .. }
        ));
        assert_eq!(plan.stats().writes_seen, 1);
        assert_eq!(plan.stats().faults_fired, 1);
    }

    #[test]
    fn path_filter_targets_matching_writes_only() {
        let delta = VfsPath::parse("/backup/delta-3.ck.tmp").unwrap();
        let image = VfsPath::parse("/backup/oms.img.tmp").unwrap();
        let mut plan = FaultPlan::new(7)
            .torn_write(1)
            .only_paths_containing("delta-");
        // Non-matching traffic is invisible to every counter/trigger.
        assert_eq!(plan.on_write(&image, 64), WriteVerdict::Persist);
        assert_eq!(plan.stats(), FaultStats::default());
        assert!(matches!(
            plan.on_write(&delta, 64),
            WriteVerdict::Torn { .. }
        ));
        assert_eq!(plan.stats().faults_fired, 1);
        // Composes with a directory scope: both must match.
        let other_dir = VfsPath::parse("/elsewhere/delta-1.ck").unwrap();
        let mut scoped = FaultPlan::new(7)
            .fail_write(1)
            .scope(&VfsPath::parse("/backup").unwrap())
            .only_paths_containing("delta-");
        assert_eq!(scoped.on_write(&other_dir, 8), WriteVerdict::Persist);
        assert_eq!(scoped.on_write(&image, 8), WriteVerdict::Persist);
        assert!(matches!(
            scoped.on_write(&delta, 8),
            WriteVerdict::Reject(WriteFaultKind::Injected)
        ));
    }

    #[test]
    fn same_seed_tears_at_the_same_prefix() {
        let tear = |seed: u64| match FaultPlan::new(seed).torn_write(1).on_write(&root(), 1000) {
            WriteVerdict::Torn { prefix, .. } => prefix,
            v => panic!("expected torn verdict, got {v:?}"),
        };
        assert_eq!(tear(42), tear(42));
    }
}
