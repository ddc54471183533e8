//! Plain-data transfer objects — what actually goes on disk.
//!
//! The live training artifacts (`TrainedModel`, `Memoizer`, …) aggregate
//! predictor objects with private state and run-time statistics. The
//! store persists *plain data* instead: every DTO here is a struct of
//! public fields with no behaviour, serialized via the vendored serde.
//! Conversions are lossless for everything a deployment needs (run-time
//! statistics are deliberately reset on import), and the live-object
//! direction is **fallible**: data that passed its checksum but is
//! structurally inconsistent (schema drift, hand-edited files) is
//! rejected with a description instead of panicking deep inside a
//! predictor.
//!
//! Conversions to/from `rskip-runtime`'s `TrainedModel`/`RegionProfile`
//! live in that crate (`rskip_runtime::stored`) — the store sits below
//! the runtime in the dependency order.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rskip_predict::{Memoizer, Quantizer};

/// One quantizer's sorted level boundaries.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredQuantizer {
    /// Sorted boundaries; level = number of boundaries below the input.
    pub boundaries: Vec<f64>,
}

/// A memoization lookup table in plain-data form (paper §4.2's
/// second-level predictor).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredMemoModel {
    /// Per-input quantizers.
    pub quantizers: Vec<StoredQuantizer>,
    /// Per-input address-bit allocation (bit tuning result).
    pub bits: Vec<u32>,
    /// The table: `None` cells were never populated during training.
    pub table: Vec<Option<f64>>,
}

/// A dynamic-interpolation model in plain-data form: the per-signature
/// TP selections of paper §6.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredDiModel {
    /// Signature → best tuning parameter (the QoS table).
    pub signature_tp: BTreeMap<String, f64>,
    /// TP used before the first signature match.
    pub default_tp: f64,
    /// Simulated skip rate at `default_tp` on the training data.
    pub trained_skip_rate: f64,
}

/// One region's trained models.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredRegionModel {
    /// First-level predictor model.
    pub di: StoredDiModel,
    /// Second-level predictor table, when one was deployed.
    pub memo: Option<StoredMemoModel>,
}

/// All regions' trained models — the payload of one `models/<AR>`
/// section (`rskip-runtime` converts it to and from a `TrainedModel`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredModels {
    /// Region id → model.
    pub regions: BTreeMap<u32, StoredRegionModel>,
}

/// One region's raw training profile. Stored so a corrupted model
/// section can be *retrained* without re-profiling, and so figure 2
/// (which analyzes the sampled outputs) runs on the warm path.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StoredProfile {
    /// Output values in observation order.
    pub outputs: Vec<f64>,
    /// `(arguments, output)` pairs.
    pub samples: Vec<(Vec<f64>, f64)>,
}

// --- memoizer conversions ---

impl From<&Quantizer> for StoredQuantizer {
    fn from(q: &Quantizer) -> Self {
        StoredQuantizer {
            boundaries: q.boundaries().to_vec(),
        }
    }
}

impl From<&Memoizer> for StoredMemoModel {
    fn from(m: &Memoizer) -> Self {
        StoredMemoModel {
            quantizers: m.quantizers().iter().map(StoredQuantizer::from).collect(),
            bits: m.bits().to_vec(),
            table: m.table().to_vec(),
        }
    }
}

impl TryFrom<&StoredMemoModel> for Memoizer {
    type Error = String;

    fn try_from(m: &StoredMemoModel) -> Result<Self, String> {
        let quantizers = m
            .quantizers
            .iter()
            .map(|q| Quantizer::from_boundaries(q.boundaries.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Memoizer::from_parts(quantizers, m.bits.clone(), m.table.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_predict::{MemoConfig, MemoTrainer};

    fn trained_memoizer() -> Memoizer {
        let mut t = MemoTrainer::new(2);
        for i in 0..2000 {
            let x = (i as f64 * 0.61803399).fract() * 10.0;
            let y = (i as f64 * 0.41421356).fract() * 4.0;
            t.add_sample(&[x, y], 3.0 * x + y);
        }
        t.build(&MemoConfig {
            table_bits: 10,
            hist_bins: 64,
        })
    }

    #[test]
    fn memoizer_round_trip_preserves_predictions() {
        let live = trained_memoizer();
        let dto = StoredMemoModel::from(&live);
        let back = Memoizer::try_from(&dto).expect("exported model must re-import");
        assert_eq!(back.bits(), live.bits());
        assert_eq!(back.table_len(), live.table_len());
        for i in 0..200 {
            let x = (i as f64 * 0.771).fract() * 10.0;
            let y = (i as f64 * 0.3317).fract() * 4.0;
            assert_eq!(back.predict_quiet(&[x, y]), live.predict_quiet(&[x, y]));
        }
        // Statistics start fresh after import.
        assert_eq!(back.stats().lookups, 0);
        // And the DTO direction is lossless.
        assert_eq!(StoredMemoModel::from(&back), dto);
    }

    #[test]
    fn inconsistent_memo_dto_is_rejected_not_panicking() {
        let live = trained_memoizer();
        let mut dto = StoredMemoModel::from(&live);
        dto.table.truncate(dto.table.len() / 2);
        assert!(Memoizer::try_from(&dto).is_err());

        let mut dto = StoredMemoModel::from(&live);
        dto.bits = vec![40, 40];
        assert!(Memoizer::try_from(&dto).is_err());

        let mut dto = StoredMemoModel::from(&live);
        dto.quantizers[0].boundaries = vec![3.0, 1.0, 2.0];
        assert!(Memoizer::try_from(&dto).is_err());

        let mut dto = StoredMemoModel::from(&live);
        dto.quantizers[0].boundaries[0] = f64::NAN;
        assert!(Memoizer::try_from(&dto).is_err());
    }

    #[test]
    fn models_serialize_round_trip() {
        let mut models = StoredModels::default();
        let mut sig = BTreeMap::new();
        sig.insert("312".to_string(), 0.8);
        models.regions.insert(
            0,
            StoredRegionModel {
                di: StoredDiModel {
                    signature_tp: sig,
                    default_tp: 0.5,
                    trained_skip_rate: 0.93,
                },
                memo: Some(StoredMemoModel::from(&trained_memoizer())),
            },
        );
        let json = serde_json::to_string(&models).unwrap();
        let parsed: StoredModels = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, models);
    }
}
