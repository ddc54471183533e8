//! # rskip-store — persistent, integrity-checked model store
//!
//! The layer between RSkip's offline training phase and online
//! deployment: what deployment reads of the training output — the
//! merged training profiles and, per acceptable range, the
//! per-signature TP selections and memoization tables of paper §6 — is
//! persisted as a versioned, checksummed artifact that survives process
//! restarts and can be shipped to a fleet. The compile-time
//! `ProtectionPlan` is not persisted: it is recomputed from the module,
//! and its fingerprint is part of the cache key.
//!
//! Fittingly for a fault-protection system, the store assumes its own
//! bits can flip:
//!
//! * every section payload carries a CRC-32, the section table a CRC-32
//!   of its own, and the file a trailing FNV-1a-64 digest — a single
//!   flipped byte anywhere is detected and reported as a typed
//!   [`StoreError`] with section and offset detail, never deployed as a
//!   garbage predictor;
//! * a corrupted section is *selectively* recoverable: intact sections
//!   still warm-start, and the stored training profiles let a damaged
//!   model section be retrained without re-profiling;
//! * artifacts are addressed by a [`CacheKey`] — a content hash of the
//!   module IR, the protection plan's fingerprint and the training
//!   configuration — and the key is recorded
//!   inside the artifact, so a stale or renamed file can never be loaded
//!   against a mismatched binary.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "RSKM" | version u16 | section table | header CRC-32
//!              | payloads…   | file FNV-1a-64 digest
//! ```
//!
//! A model artifact's sections are `meta`, `profiles` and one
//! `models/<AR>` per acceptable range ([`ModelArtifact`]). Files of the
//! earlier layout also carry `plan` and `supervisor` sections; those are
//! CRC-checked and otherwise ignored, so such files still load.
//!
//! Payloads are serde-JSON-encoded plain-data DTOs ([`dto`]); the
//! conversions to live runtime objects are fallible, so even
//! checksum-valid-but-inconsistent data is rejected with a description
//! instead of misbehaving at prediction time.

#![deny(missing_docs)]

pub mod digest;
pub mod dto;
pub mod format;
pub mod journal;
mod key;
mod profiles;
mod store;

pub use dto::{
    StoredDiModel, StoredMemoModel, StoredModels, StoredProfile, StoredQuantizer, StoredRegionModel,
};
pub use format::{Section, StoreError, MAGIC, VERSION};
pub use journal::{JournalFile, JournalOpen, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use key::{CacheKey, CacheKeyBuilder};
pub use profiles::{ProfileCache, ProfileRecord};
pub use store::{
    ArtifactMeta, FileReport, LoadOutcome, ModelArtifact, PartialArtifact, Store, ARTIFACT_EXT,
    SECTION_META, SECTION_MODELS_PREFIX, SECTION_PROFILES,
};
