//! Per-network energy accounting.
//!
//! The energy report realizes §4's "lookup table" idea at network
//! granularity: every layer's MAC count priced by the paper's Eq. 3–4
//! model. Batch norm is not folded into the convolutions here; it stays a
//! separate digital layer, as in the paper's Table 2 study of what
//! retraining it recovers.

use ams_core::energy::mac_energy_pj;
use serde::{Deserialize, Serialize};

/// One layer's line in a network energy report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerEnergy {
    /// Layer name.
    pub name: String,
    /// MAC operations per inference (one image).
    pub macs: usize,
    /// Multiplies per output activation (`N_tot`).
    pub n_tot: usize,
    /// Energy for this layer per inference, in pJ (0 when the network has
    /// no VMAC configured).
    pub energy_pj: f64,
}

/// A per-network energy estimate under the paper's Eq. 3–4 model.
///
/// Produced by [`crate::AmsModel::energy_report`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Per-layer breakdown in forward order.
    pub layers: Vec<LayerEnergy>,
}

impl EnergyReport {
    /// Total MACs per inference.
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total energy per inference in pJ.
    pub fn total_pj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_pj).sum()
    }

    /// Average energy per MAC in fJ (`None` for an empty report or zero
    /// MACs).
    pub fn fj_per_mac(&self) -> Option<f64> {
        let macs = self.total_macs();
        (macs > 0).then(|| self.total_pj() * 1e3 / macs as f64)
    }
}

/// Prices `macs` MAC operations on a VMAC with the given resolution and
/// fan-in (Eq. 3–4), in pJ.
pub(crate) fn layer_energy_pj(macs: usize, enob: f64, n_mult: usize) -> f64 {
    macs as f64 * mac_energy_pj(enob, n_mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_report_aggregation() {
        let report = EnergyReport {
            layers: vec![
                LayerEnergy {
                    name: "a".into(),
                    macs: 1000,
                    n_tot: 27,
                    energy_pj: 2.0,
                },
                LayerEnergy {
                    name: "b".into(),
                    macs: 3000,
                    n_tot: 72,
                    energy_pj: 6.0,
                },
            ],
        };
        assert_eq!(report.total_macs(), 4000);
        assert!((report.total_pj() - 8.0).abs() < 1e-12);
        assert!((report.fj_per_mac().expect("macs > 0") - 2.0).abs() < 1e-12);
        assert!(EnergyReport::default().fj_per_mac().is_none());
    }

    #[test]
    fn layer_energy_uses_eq3_eq4() {
        // 1000 MACs at ENOB 12 / N_mult 8 ≈ 1000 · 313 fJ.
        let pj = layer_energy_pj(1000, 12.0, 8);
        assert!((pj - 313.0).abs() < 15.0, "{pj}");
    }
}
