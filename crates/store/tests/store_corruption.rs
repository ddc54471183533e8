//! Corruption resistance of the on-disk artifact format.
//!
//! The acceptance bar is strict: *any* single-byte flip anywhere in an
//! artifact must make strict decoding fail — there is no byte whose
//! corruption yields wrong-but-loadable data. On top of the exhaustive
//! sweep, boundary bytes of every region of the container are checked
//! for the *right* [`StoreError`] variant, and the directory-level
//! [`Store`] is checked to never report a corrupted file as a clean hit.

use std::collections::BTreeMap;

use rskip_store::format::{decode, decode_lenient, validate};
use rskip_store::{
    ArtifactMeta, CacheKey, LoadOutcome, ModelArtifact, Store, StoreError, StoredDiModel,
    StoredModels, StoredProfile, StoredRegionModel,
};

fn test_key() -> CacheKey {
    CacheKey::builder().text("corruption-test").finish()
}

/// A small but fully populated artifact (all three section kinds).
fn sample_artifact() -> ModelArtifact {
    let mut signature_tp = BTreeMap::new();
    signature_tp.insert("17".to_string(), 0.25);
    signature_tp.insert("42".to_string(), 0.75);
    let mut models = StoredModels::default();
    models.regions.insert(
        0,
        StoredRegionModel {
            di: StoredDiModel {
                signature_tp,
                default_tp: 0.5,
                trained_skip_rate: 0.9,
            },
            memo: None,
        },
    );
    let mut per_ar = BTreeMap::new();
    per_ar.insert("AR50".to_string(), models.clone());
    per_ar.insert("AR100".to_string(), models);

    ModelArtifact {
        meta: ArtifactMeta {
            bench: "corrupt-bench".to_string(),
            key: test_key().hex(),
            size: "tiny".to_string(),
            train_seeds: vec![1, 2],
        },
        profiles: vec![StoredProfile {
            outputs: vec![1.0, 2.0, 3.0],
            samples: vec![(vec![0.5, 0.25], 1.0), (vec![1.5, 0.75], 2.0)],
        }],
        models: per_ar,
    }
}

fn encoded() -> (Vec<u8>, Vec<(String, usize, usize)>) {
    let sections = sample_artifact().to_sections();
    let bytes = rskip_store::format::encode(&sections);
    // Recompute the layout independently of the decoder: header is
    // magic(4) + version(2) + count(2) + per-section entries
    // (name_len(2) + name + payload_len(8) + crc(4)) + header crc(4);
    // payloads follow in order; the file digest is the final 8 bytes.
    let mut offset = 4 + 2 + 2;
    for s in &sections {
        offset += 2 + s.name.len() + 8 + 4;
    }
    offset += 4;
    let mut spans = Vec::new();
    for s in &sections {
        spans.push((s.name.clone(), offset, s.payload.len()));
        offset += s.payload.len();
    }
    assert_eq!(offset + 8, bytes.len(), "layout model must match encoder");
    (bytes, spans)
}

/// Every single-byte flip anywhere in the file breaks strict decoding.
#[test]
fn every_single_byte_flip_fails_decode() {
    let (bytes, _) = encoded();
    decode(&bytes).expect("pristine artifact must decode");
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        assert!(
            decode(&bad).is_err(),
            "flip at offset {i}/{} decoded anyway",
            bytes.len()
        );
        assert!(
            !validate(&bad).is_empty(),
            "flip at offset {i} passed validation"
        );
    }
}

/// Boundary bytes of each container region produce the *matching* error
/// variant, with the damaged section named.
#[test]
fn boundary_flips_report_the_right_error() {
    let (bytes, spans) = encoded();

    // Magic.
    for i in 0..4 {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            matches!(decode(&bad), Err(StoreError::BadMagic { .. })),
            "magic byte {i}"
        );
    }
    // Version (little-endian u16 right after the magic).
    for i in 4..6 {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            matches!(decode(&bad), Err(StoreError::UnsupportedVersion { .. })),
            "version byte {i}"
        );
    }
    // First byte of a section-table name: caught by the header checksum
    // (the flipped name still parses, so the CRC is the only witness).
    {
        let mut bad = bytes.clone();
        bad[8 + 2] ^= 0x01;
        assert!(
            matches!(decode(&bad), Err(StoreError::HeaderChecksum { .. })),
            "section-table name byte"
        );
    }
    // First and last byte of every payload: section checksum, naming the
    // section and its offset.
    for (name, offset, len) in &spans {
        for &i in &[*offset, *offset + len - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            match decode(&bad) {
                Err(StoreError::SectionChecksum {
                    section,
                    offset: reported,
                    ..
                }) => {
                    assert_eq!(&section, name, "flip at {i}");
                    assert_eq!(reported, *offset, "flip at {i}");
                }
                other => panic!("payload flip at {i} in `{name}`: got {other:?}"),
            }
        }
    }
    // Trailing digest: every section checksum passes, the file digest
    // catches it.
    for i in bytes.len() - 8..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            matches!(decode(&bad), Err(StoreError::FileDigest { .. })),
            "digest byte {i}"
        );
    }
}

/// Truncation at any length fails with an error (never a short read that
/// silently drops sections).
#[test]
fn every_truncation_fails_decode() {
    let (bytes, _) = encoded();
    for len in 0..bytes.len() {
        assert!(
            decode(&bytes[..len]).is_err(),
            "truncation to {len}/{} decoded anyway",
            bytes.len()
        );
    }
}

/// Lenient decoding of a payload-corrupted file recovers exactly the
/// intact sections and reports the damaged one.
#[test]
fn lenient_decode_recovers_intact_sections() {
    let (bytes, spans) = encoded();
    let (damaged_name, offset, _) = &spans[2];
    let mut bad = bytes.clone();
    bad[*offset] ^= 0xFF;
    let (sections, errors) = decode_lenient(&bad).expect("header is intact");
    assert_eq!(sections.len(), spans.len() - 1);
    assert!(sections.iter().all(|s| &s.name != damaged_name));
    assert!(errors.iter().any(
        |e| matches!(e, StoreError::SectionChecksum { section, .. } if section == damaged_name)
    ));
}

fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!("rskip-corruption-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir)
}

/// Directory-level sweep: a store never serves a corrupted artifact as a
/// clean hit, and corrupt meta poisons trust in the whole file.
#[test]
fn store_never_hits_on_a_corrupted_artifact() {
    let store = temp_store("load");
    let artifact = sample_artifact();
    let path = store.save(&artifact).expect("save");
    let pristine = std::fs::read(&path).expect("read back");
    match store.load("corrupt-bench", test_key()) {
        LoadOutcome::Hit(loaded) => assert_eq!(*loaded, artifact),
        other => panic!("pristine artifact must hit, got {other:?}"),
    }

    for i in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[i] ^= 0xA5;
        std::fs::write(&path, &bad).expect("write corrupted");
        match store.load("corrupt-bench", test_key()) {
            LoadOutcome::Hit(_) => panic!("flip at offset {i} loaded as a clean hit"),
            LoadOutcome::Partial(partial) => {
                // Whatever survived must equal the original sections —
                // recovery never invents data.
                assert_eq!(partial.meta, artifact.meta, "flip at {i}");
                if let Some(profiles) = &partial.profiles {
                    assert_eq!(profiles, &artifact.profiles, "flip at {i}");
                }
                for (label, models) in &partial.models {
                    assert_eq!(models, &artifact.models[label], "flip at {i}");
                }
                assert!(!partial.errors.is_empty(), "flip at {i}");
            }
            LoadOutcome::Rejected(errors) => {
                assert!(!errors.is_empty(), "flip at {i}")
            }
            LoadOutcome::Miss => panic!("artifact exists; flip at {i} cannot miss"),
        }
        // `verify` must flag the same corruption.
        let reports = store.verify();
        assert_eq!(reports.len(), 1);
        assert!(
            !reports[0].errors.is_empty(),
            "verify missed the flip at offset {i}"
        );
    }

    std::fs::remove_dir_all(store.dir()).ok();
}

/// A stale artifact renamed to another key's filename is rejected via the
/// meta cross-check, not trusted.
#[test]
fn renamed_artifact_is_rejected_by_key_cross_check() {
    let store = temp_store("rename");
    let artifact = sample_artifact();
    let path = store.save(&artifact).expect("save");
    let other_key = CacheKey::builder().text("some-other-config").finish();
    let masquerade = store.path_for("corrupt-bench", other_key);
    std::fs::rename(&path, &masquerade).expect("rename");
    match store.load("corrupt-bench", other_key) {
        LoadOutcome::Rejected(errors) => assert!(errors
            .iter()
            .any(|e| matches!(e, StoreError::KeyMismatch { .. }))),
        other => panic!("expected rejection, got {other:?}"),
    }
    std::fs::remove_dir_all(store.dir()).ok();
}
