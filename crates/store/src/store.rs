//! The on-disk store: a directory of `.rsm` artifacts addressed by
//! `(benchmark, cache key)`.
//!
//! One artifact holds what deployment reads of the offline training for
//! one benchmark binary: a `meta` section (provenance), the merged
//! training `profiles`, and one `models/<AR>` section per
//! acceptable-range setting. The protection plan is not stored: the
//! cache key already covers it through its fingerprint. Files written
//! before this layout may also hold `plan` and `supervisor` sections;
//! those are CRC-checked like every section and otherwise ignored, so
//! they still load as a [`Hit`]. Loading is
//! corruption-aware — [`Store::load`] distinguishes a clean [`Hit`], a
//! [`Partial`] artifact whose intact sections can still warm-start while
//! the corrupt ones are retrained, and a [`Rejected`] file that must not
//! be trusted at all (header damage or a cache-key mismatch).
//!
//! [`Hit`]: LoadOutcome::Hit
//! [`Partial`]: LoadOutcome::Partial
//! [`Rejected`]: LoadOutcome::Rejected

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::dto::{StoredModels, StoredProfile};
use crate::format::{self, Section, StoreError};
use crate::key::CacheKey;

/// Artifact file extension.
pub const ARTIFACT_EXT: &str = "rsm";

/// Section names with fixed meaning.
pub const SECTION_META: &str = "meta";
/// The merged training profiles.
pub const SECTION_PROFILES: &str = "profiles";
/// Prefix of the per-AR model sections (`models/AR20`, …).
pub const SECTION_MODELS_PREFIX: &str = "models/";

/// Provenance of one artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Benchmark name.
    pub bench: String,
    /// The cache key the artifact was trained for, in hex. Cross-checked
    /// against the requested key on load so a renamed file cannot smuggle
    /// a stale model in.
    pub key: String,
    /// Workload size label (`tiny`/`small`/`full`).
    pub size: String,
    /// Training input seeds.
    pub train_seeds: Vec<u64>,
}

/// One benchmark's complete training output.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelArtifact {
    /// Provenance.
    pub meta: ArtifactMeta,
    /// Merged per-region training profiles.
    pub profiles: Vec<StoredProfile>,
    /// AR label (e.g. `"AR20"`) → trained models.
    pub models: BTreeMap<String, StoredModels>,
}

/// What survived of a damaged artifact.
#[derive(Clone, Debug)]
pub struct PartialArtifact {
    /// Provenance (the meta section must be intact, or the whole file is
    /// rejected).
    pub meta: ArtifactMeta,
    /// The profiles, if their section was intact — enough to retrain any
    /// corrupt model section without re-profiling.
    pub profiles: Option<Vec<StoredProfile>>,
    /// The model sections that were intact.
    pub models: BTreeMap<String, StoredModels>,
    /// Why the rest is missing.
    pub errors: Vec<StoreError>,
}

/// Result of a [`Store::load`].
#[derive(Clone, Debug)]
pub enum LoadOutcome {
    /// No artifact on disk for this `(bench, key)`.
    Miss,
    /// Fully intact artifact.
    Hit(Box<ModelArtifact>),
    /// Some sections corrupt; the intact ones are usable.
    Partial(Box<PartialArtifact>),
    /// Nothing in the file can be trusted (header corruption, unreadable
    /// meta, or a cache-key mismatch).
    Rejected(Vec<StoreError>),
}

/// Integrity report for one artifact file (from [`Store::verify`]).
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The artifact path.
    pub path: PathBuf,
    /// Every problem found; empty means intact.
    pub errors: Vec<StoreError>,
}

/// A store directory.
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
}

fn json_decode_section<T: Deserialize>(s: &Section) -> Result<T, StoreError> {
    let text = std::str::from_utf8(&s.payload).map_err(|e| StoreError::Decode {
        section: s.name.clone(),
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| StoreError::Decode {
        section: s.name.clone(),
        detail: e.to_string(),
    })
}

fn json_section<T: Serialize>(name: &str, value: &T) -> Section {
    Section {
        name: name.to_string(),
        payload: serde_json::to_string(value)
            .expect("store DTOs serialize infallibly")
            .into_bytes(),
    }
}

impl ModelArtifact {
    /// The artifact as container sections, in canonical order.
    pub fn to_sections(&self) -> Vec<Section> {
        let mut sections = vec![
            json_section(SECTION_META, &self.meta),
            json_section(SECTION_PROFILES, &self.profiles),
        ];
        for (label, models) in &self.models {
            sections.push(json_section(
                &format!("{SECTION_MODELS_PREFIX}{label}"),
                models,
            ));
        }
        sections
    }
}

impl Store {
    /// Opens (lazily — the directory is created on first save) a store at
    /// `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A namespaced sub-store rooted at `dir/<namespace>` — one isolated
    /// artifact root per tenant of the campaign service. Rejects (with
    /// `None`) any name that is empty, longer than 64 bytes, or contains
    /// characters outside `[a-z0-9_-]`, so a wire-supplied tenant string
    /// can never traverse outside the root or collide with another
    /// tenant's directory via case folding.
    #[must_use]
    pub fn namespace(&self, namespace: &str) -> Option<Store> {
        if namespace.is_empty()
            || namespace.len() > 64
            || !namespace
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        {
            return None;
        }
        Some(Store {
            dir: self.dir.join(namespace),
        })
    }

    /// The path an artifact for `(bench, key)` lives at.
    pub fn path_for(&self, bench: &str, key: CacheKey) -> PathBuf {
        self.dir
            .join(format!("{bench}-{}.{ARTIFACT_EXT}", key.hex()))
    }

    /// Writes an artifact (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Any filesystem failure, as [`StoreError::Io`].
    pub fn save(&self, artifact: &ModelArtifact) -> Result<PathBuf, StoreError> {
        let key = CacheKey::parse(&artifact.meta.key).ok_or_else(|| StoreError::Decode {
            section: SECTION_META.to_string(),
            detail: format!("meta.key `{}` is not a cache key", artifact.meta.key),
        })?;
        let io = |path: &Path, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        fs::create_dir_all(&self.dir).map_err(|e| io(&self.dir, e))?;
        let bytes = format::encode(&artifact.to_sections());
        let path = self.path_for(&artifact.meta.bench, key);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &bytes).map_err(|e| io(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io(&path, e))?;
        Ok(path)
    }

    /// Loads the artifact for `(bench, key)`, classifying corruption.
    pub fn load(&self, bench: &str, key: CacheKey) -> LoadOutcome {
        let path = self.path_for(bench, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(e) => {
                return LoadOutcome::Rejected(vec![StoreError::Io {
                    path,
                    detail: e.to_string(),
                }])
            }
        };
        let (sections, mut errors) = match format::decode_lenient(&bytes) {
            Ok(r) => r,
            Err(e) => return LoadOutcome::Rejected(vec![e]),
        };

        let find = |name: &str| sections.iter().find(|s| s.name == name);

        // The meta section is the trust anchor: without it there is no
        // provenance, so nothing else is usable.
        let meta: ArtifactMeta = match find(SECTION_META) {
            None => {
                errors.push(StoreError::MissingSection {
                    section: SECTION_META.to_string(),
                });
                return LoadOutcome::Rejected(errors);
            }
            Some(s) => match json_decode_section(s) {
                Ok(m) => m,
                Err(e) => {
                    errors.push(e);
                    return LoadOutcome::Rejected(errors);
                }
            },
        };
        if meta.key != key.hex() {
            errors.push(StoreError::KeyMismatch {
                expected: key.hex(),
                found: meta.key.clone(),
            });
            return LoadOutcome::Rejected(errors);
        }

        // Remaining sections: a decode failure demotes the section to
        // "corrupt" (recorded, not fatal) exactly like a CRC failure.
        // Sections of other names (an older file's `plan`/`supervisor`)
        // were CRC-checked above and are otherwise ignored.
        let mut profiles: Option<Vec<StoredProfile>> = None;
        let mut models: BTreeMap<String, StoredModels> = BTreeMap::new();
        for s in &sections {
            if s.name == SECTION_PROFILES {
                match json_decode_section(s) {
                    Ok(p) => profiles = Some(p),
                    Err(e) => errors.push(e),
                }
            } else if let Some(label) = s.name.strip_prefix(SECTION_MODELS_PREFIX) {
                match json_decode_section(s) {
                    Ok(m) => {
                        models.insert(label.to_string(), m);
                    }
                    Err(e) => errors.push(e),
                }
            }
        }

        match (profiles, errors.is_empty()) {
            (Some(profiles), true) => LoadOutcome::Hit(Box::new(ModelArtifact {
                meta,
                profiles,
                models,
            })),
            (profiles, _) => LoadOutcome::Partial(Box::new(PartialArtifact {
                meta,
                profiles,
                models,
                errors,
            })),
        }
    }

    /// Every artifact file in the store, sorted by path.
    pub fn list(&self) -> Vec<PathBuf> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == ARTIFACT_EXT))
            .collect();
        files.sort();
        files
    }

    /// Walks the store, recomputes every checksum, and additionally
    /// checks that each intact section decodes as its DTO. One report per
    /// artifact; a report with no errors means the file is fully intact.
    pub fn verify(&self) -> Vec<FileReport> {
        self.list()
            .into_iter()
            .map(|path| {
                let errors = match fs::read(&path) {
                    Err(e) => vec![StoreError::Io {
                        path: path.clone(),
                        detail: e.to_string(),
                    }],
                    Ok(bytes) => {
                        let mut errors = format::validate(&bytes);
                        if let Ok((sections, _)) = format::decode_lenient(&bytes) {
                            errors.extend(sections.iter().filter_map(decode_check));
                        }
                        errors
                    }
                };
                FileReport { path, errors }
            })
            .collect()
    }

    /// Human-readable description of every artifact (for
    /// `rskip-eval inspect`).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let files = self.list();
        if files.is_empty() {
            let _ = writeln!(out, "store {}: empty", self.dir.display());
            return out;
        }
        for path in files {
            let _ = writeln!(out, "{}", path.display());
            match fs::read(&path) {
                Err(e) => {
                    let _ = writeln!(out, "  unreadable: {e}");
                }
                Ok(bytes) => match format::describe(&bytes) {
                    Ok(d) => out.push_str(&d),
                    Err(e) => {
                        let _ = writeln!(out, "  corrupt header: {e}");
                    }
                },
            }
        }
        out
    }
}

/// Decodes one intact section as its expected DTO, reporting schema-level
/// damage that checksums cannot see.
fn decode_check(s: &Section) -> Option<StoreError> {
    let check = |r: Result<(), StoreError>| r.err();
    if s.name == SECTION_META {
        check(json_decode_section::<ArtifactMeta>(s).map(|_| ()))
    } else if s.name == SECTION_PROFILES {
        check(json_decode_section::<Vec<StoredProfile>>(s).map(|_| ()))
    } else if s.name.starts_with(SECTION_MODELS_PREFIX) {
        check(json_decode_section::<StoredModels>(s).map(|_| ()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dto::{StoredDiModel, StoredRegionModel};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store() -> Store {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rskip-store-unit-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir)
    }

    fn sample_artifact(key: CacheKey) -> ModelArtifact {
        let mut models = BTreeMap::new();
        for label in ["AR20", "AR100"] {
            let mut m = StoredModels::default();
            m.regions.insert(
                0,
                StoredRegionModel {
                    di: StoredDiModel {
                        signature_tp: [("312".to_string(), 0.8)].into_iter().collect(),
                        default_tp: 0.5,
                        trained_skip_rate: 0.9,
                    },
                    memo: None,
                },
            );
            models.insert(label.to_string(), m);
        }
        ModelArtifact {
            meta: ArtifactMeta {
                bench: "conv1d".to_string(),
                key: key.hex(),
                size: "tiny".to_string(),
                train_seeds: vec![1000, 1001],
            },
            profiles: vec![StoredProfile {
                outputs: vec![1.0, 2.0, 3.0],
                samples: vec![(vec![1.0], 1.0)],
            }],
            models,
        }
    }

    fn key() -> CacheKey {
        CacheKey::builder().text("test module").finish()
    }

    #[test]
    fn save_load_hit_round_trip() {
        let store = temp_store();
        let artifact = sample_artifact(key());
        assert!(matches!(store.load("conv1d", key()), LoadOutcome::Miss));
        let path = store.save(&artifact).unwrap();
        assert!(path.exists());
        match store.load("conv1d", key()) {
            LoadOutcome::Hit(loaded) => assert_eq!(*loaded, artifact),
            other => panic!("expected Hit, got {other:?}"),
        }
        let reports = store.verify();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].errors.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// `sample_artifact` as the previous layout wrote it: a `plan`
    /// section after `meta` and, when `supervisor` is set, a `supervisor`
    /// section before the models. The payloads are that layout's JSON,
    /// copied verbatim.
    fn legacy_file(store: &Store, supervisor: bool) -> PathBuf {
        let artifact = sample_artifact(key());
        let path = store.save(&artifact).unwrap();
        let mut sections = artifact.to_sections();
        let raw = |name: &str, json: &str| Section {
            name: name.to_string(),
            payload: json.as_bytes().to_vec(),
        };
        sections.insert(
            1,
            raw(
                "plan",
                r#"{"regions":[{"region":0,"has_body":true,"memoizable":false,"acceptable_range":null}]}"#,
            ),
        );
        if supervisor {
            sections.insert(
                3,
                raw(
                    "supervisor",
                    r#"{"window":128,"max_reject_rate":0.5,"max_fault_rate":0.05,"drift_windows":2,"cooldown":512,"probe_stride":4,"probe_window":32,"min_probe_agreement":0.75}"#,
                ),
            );
        }
        fs::write(&path, format::encode(&sections)).unwrap();
        path
    }

    #[test]
    fn old_artifact_without_supervisor_section_still_hits() {
        // What the previous layout actually wrote: its supervisor policy
        // was always `None`, so the file holds meta, plan, profiles and
        // the models.
        let store = temp_store();
        legacy_file(&store, false);
        match store.load("conv1d", key()) {
            LoadOutcome::Hit(loaded) => assert_eq!(*loaded, sample_artifact(key())),
            other => panic!("expected Hit for legacy artifact, got {other:?}"),
        }
        assert!(store.verify()[0].errors.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn previous_section_set_loads_as_hit_and_verifies_intact() {
        let store = temp_store();
        let path = legacy_file(&store, true);
        let names: Vec<String> = format::decode(&fs::read(&path).unwrap())
            .unwrap()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "meta",
                "plan",
                "profiles",
                "supervisor",
                "models/AR100",
                "models/AR20"
            ]
        );
        match store.load("conv1d", key()) {
            LoadOutcome::Hit(loaded) => assert_eq!(*loaded, sample_artifact(key())),
            other => panic!("expected Hit for legacy artifact, got {other:?}"),
        }
        let reports = store.verify();
        assert!(reports[0].errors.is_empty(), "{:?}", reports[0].errors);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_supervisor_section_demotes_to_partial() {
        // A legacy section is never decoded, but its CRC is still checked:
        // damage there means the file is not what was written.
        let store = temp_store();
        let path = legacy_file(&store, true);
        let mut bytes = fs::read(&path).unwrap();
        let needle = br#"{"window":128"#;
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == &needle[..])
            .unwrap();
        bytes[pos + 2] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        match store.load("conv1d", key()) {
            LoadOutcome::Partial(p) => {
                assert!(p.profiles.is_some());
                assert_eq!(p.models.len(), 2);
                assert!(p.errors.iter().any(
                    |e| matches!(e, StoreError::SectionChecksum { section, .. } if section == "supervisor"),
                ));
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert!(!store.verify()[0].errors.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn plan_fingerprint_matches_the_previous_format() {
        // Cache keys hash this text: any change to its format orphans
        // every stored artifact.
        use rskip_core::{ProtectionPlan, RegionPlan};
        let plan = ProtectionPlan {
            regions: vec![
                RegionPlan {
                    region: 1,
                    has_body: false,
                    memoizable: true,
                    acceptable_range: Some(0.5),
                },
                RegionPlan {
                    region: 0,
                    has_body: true,
                    memoizable: false,
                    acceptable_range: None,
                },
            ],
        };
        assert_eq!(
            plan.fingerprint(),
            "r0:body=1,memo=0,ar=none;r1:body=0,memo=1,ar=3fe0000000000000"
        );
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let store = temp_store();
        let artifact = sample_artifact(key());
        let path = store.save(&artifact).unwrap();
        // Simulate a renamed/stale file: same content, different requested key.
        let other = CacheKey::builder().text("different module").finish();
        fs::rename(&path, store.path_for("conv1d", other)).unwrap();
        match store.load("conv1d", other) {
            LoadOutcome::Rejected(errors) => {
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, StoreError::KeyMismatch { .. })));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_model_section_loads_partially() {
        let store = temp_store();
        let artifact = sample_artifact(key());
        let path = store.save(&artifact).unwrap();
        // Flip a byte inside the AR100 models payload.
        let mut bytes = fs::read(&path).unwrap();
        let sections = format::decode(&bytes).unwrap();
        let target = sections
            .iter()
            .position(|s| s.name == "models/AR100")
            .unwrap();
        // Payload offsets: find the target payload in the file by scanning
        // for its bytes (payloads are concatenated after the header).
        let needle = &sections[target].payload;
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == &needle[..])
            .unwrap();
        bytes[pos] ^= 0x04;
        fs::write(&path, &bytes).unwrap();

        match store.load("conv1d", key()) {
            LoadOutcome::Partial(p) => {
                assert!(p.profiles.is_some());
                assert!(p.models.contains_key("AR20"));
                assert!(!p.models.contains_key("AR100"));
                assert!(p
                    .errors
                    .iter()
                    .any(|e| matches!(e, StoreError::SectionChecksum { section, .. } if section == "models/AR100")));
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        // verify reports the same damage.
        let reports = store.verify();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].errors.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn verify_catches_schema_damage_behind_valid_checksums() {
        let store = temp_store();
        let artifact = sample_artifact(key());
        let path = store.save(&artifact).unwrap();
        // Re-encode with a profiles section that is valid JSON of the
        // wrong shape — checksums all pass, only decode_check can see it.
        let mut sections = format::decode(&fs::read(&path).unwrap()).unwrap();
        let profiles = sections
            .iter_mut()
            .find(|s| s.name == SECTION_PROFILES)
            .unwrap();
        profiles.payload = b"[1,2,3]".to_vec();
        fs::write(&path, format::encode(&sections)).unwrap();
        let reports = store.verify();
        assert!(reports[0].errors.iter().any(
            |e| matches!(e, StoreError::Decode { section, .. } if section == SECTION_PROFILES)
        ));
        // And load degrades to Partial, not garbage.
        match store.load("conv1d", key()) {
            LoadOutcome::Partial(p) => assert!(p.profiles.is_none()),
            other => panic!("expected Partial, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn namespace_isolates_and_sanitizes() {
        let store = temp_store();
        let alpha = store.namespace("tenant-a_1").unwrap();
        assert_eq!(alpha.dir(), store.dir().join("tenant-a_1"));
        // Two namespaces never share artifact paths.
        let beta = store.namespace("tenant-b").unwrap();
        assert_ne!(
            alpha.path_for("conv1d", key()),
            beta.path_for("conv1d", key())
        );
        // A namespaced save lands under the tenant root and loads back.
        alpha.save(&sample_artifact(key())).unwrap();
        assert!(matches!(alpha.load("conv1d", key()), LoadOutcome::Hit(_)));
        assert!(matches!(beta.load("conv1d", key()), LoadOutcome::Miss));
        // Hostile or malformed names are rejected outright.
        for bad in ["", "..", "a/b", "a\\b", "UPPER", "with space", "é"] {
            assert!(store.namespace(bad).is_none(), "accepted {bad:?}");
        }
        assert!(store.namespace(&"x".repeat(65)).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn describe_mentions_every_section() {
        let store = temp_store();
        store.save(&sample_artifact(key())).unwrap();
        let d = store.describe();
        for name in ["meta", "profiles", "models/AR20", "models/AR100"] {
            assert!(d.contains(name), "describe missing `{name}`:\n{d}");
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}
