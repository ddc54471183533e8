//! The protection plan — the contract between the compile-time pass
//! driver and the deployment runtime.
//!
//! The pass driver decides, per detected loop region, whether a
//! prediction-protected (PP) body exists, whether approximate memoization
//! may be deployed, and whether a pragma overrides the acceptable range.
//! The runtime needs exactly those facts to size its region table. This
//! module is that contract, so `rskip-runtime` no longer hand-maintains a
//! mirror of `rskip-passes::RegionSpec`.

/// What the protection pass decided for one region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionPlan {
    /// Region id (dense, 0-based).
    pub region: u32,
    /// Whether a PP body exists.
    pub has_body: bool,
    /// Whether approximate memoization may be deployed.
    pub memoizable: bool,
    /// Per-loop acceptable-range override (pragma).
    pub acceptable_range: Option<f64>,
}

impl RegionPlan {
    /// A plan for a region the pass left untouched (no PP body, nothing
    /// deployable) — what the runtime assumes for ids it has no record of.
    pub fn unprotected(region: u32) -> Self {
        RegionPlan {
            region,
            has_body: false,
            memoizable: false,
            acceptable_range: None,
        }
    }
}

/// The full per-module plan: one entry per protected region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProtectionPlan {
    /// Per-region decisions, in no particular order (ids may be sparse).
    pub regions: Vec<RegionPlan>,
}

impl ProtectionPlan {
    /// The plan for one region id, if the pass recorded one.
    pub fn region(&self, id: u32) -> Option<&RegionPlan> {
        self.regions.iter().find(|r| r.region == id)
    }

    /// One past the highest region id mentioned (the runtime's region
    /// table size).
    pub fn num_regions(&self) -> u32 {
        self.regions
            .iter()
            .map(|r| r.region)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// A stable textual fingerprint of the plan, independent of the
    /// `regions` vector's order. Content-hash cache keys for persisted
    /// training artifacts include it, so any change to what the pass
    /// decided invalidates stored models. (`rskip-core` is dependency-
    /// free, so this is text the store layer hashes, not a hash itself.)
    pub fn fingerprint(&self) -> String {
        let mut parts: Vec<String> = self
            .regions
            .iter()
            .map(|r| {
                // The override is fingerprinted by bit pattern: exact,
                // and no two distinct floats ever collide.
                let ar = match r.acceptable_range {
                    Some(v) => format!("{:016x}", v.to_bits()),
                    None => "none".to_string(),
                };
                format!(
                    "r{}:body={},memo={},ar={ar}",
                    r.region, r.has_body as u8, r.memoizable as u8
                )
            })
            .collect();
        parts.sort();
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_sizing() {
        let plan = ProtectionPlan {
            regions: vec![
                RegionPlan {
                    region: 2,
                    has_body: true,
                    memoizable: false,
                    acceptable_range: Some(0.5),
                },
                RegionPlan::unprotected(0),
            ],
        };
        assert_eq!(plan.num_regions(), 3);
        assert!(plan.region(2).unwrap().has_body);
        assert!(!plan.region(0).unwrap().has_body);
        assert!(plan.region(1).is_none());
        assert_eq!(ProtectionPlan::default().num_regions(), 0);
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let a = RegionPlan {
            region: 0,
            has_body: true,
            memoizable: false,
            acceptable_range: None,
        };
        let b = RegionPlan {
            region: 1,
            has_body: false,
            memoizable: true,
            acceptable_range: Some(0.5),
        };
        let fwd = ProtectionPlan {
            regions: vec![a.clone(), b.clone()],
        };
        let rev = ProtectionPlan {
            regions: vec![b, a],
        };
        assert_eq!(fwd.fingerprint(), rev.fingerprint());

        let mut changed = fwd.clone();
        changed.regions[0].memoizable = true;
        assert_ne!(fwd.fingerprint(), changed.fingerprint());

        let mut ar_changed = fwd.clone();
        ar_changed.regions[1].acceptable_range = Some(0.8);
        assert_ne!(fwd.fingerprint(), ar_changed.fingerprint());
    }
}
