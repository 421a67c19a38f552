//! The AMS VMAC error and energy models of Rekhi et al., DAC 2019.
//!
//! This crate is the paper's primary contribution, implemented as a
//! library. The paper abstracts *any* analog/mixed-signal (AMS) vector
//! multiply-accumulate unit — resistive crossbar, switched capacitor, or
//! otherwise — into an **error-free dot product plus additive error**
//! referred to the input of the ADC that digitizes the analog partial sum.
//! Two parameters describe the hardware:
//!
//! * `N_mult` — how many weight–activation products are summed in the
//!   analog domain per conversion, and
//! * `ENOB_VMAC` — the effective number of bits of the conversion,
//!   absorbing multiplier noise/nonlinearity and ADC noise, nonlinearity
//!   and quantization.
//!
//! # Map of the crate
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Eq. 1 & 2 — error variance, Fig. 2 — precision budget | [`vmac`] |
//! | Fig. 3 — forward-pass-only Gaussian injection | [`inject`] |
//! | Eq. 3 & 4 — ADC / MAC energy bounds, Fig. 7 — survey | [`energy`] |
//! | Fig. 8 — (ENOB, N_mult) design space, energy–accuracy tradeoff | [`tradeoff`] |
//! | §4 — per-VMAC simulation, ΔΣ error recycling, reference scaling | [`vmac_sim`] |
//! | §4 — multiplication partitioning | [`partition`] |
//! | §4 — pluggable error-model selection (lumped / composite / per-VMAC) | [`error_model`] |
//!
//! # Example: the paper's headline numbers
//!
//! ```
//! use ams_core::vmac::Vmac;
//! use ams_core::energy::mac_energy_fj;
//!
//! // A VMAC summing 8 products, digitized at 12 effective bits:
//! let vmac = Vmac::new(8, 8, 8, 12.0);
//! // ResNet-50's most common 3x3x512 convolution needs N_tot = 4608
//! // multiplies per output activation.
//! let sigma = vmac.total_error_sigma(4608);
//! assert!(sigma > 0.0);
//! // The paper's ~313 fJ/MAC figure is this design point's energy:
//! let e = mac_energy_fj(12.0, 8);
//! assert!((e - 313.0).abs() < 15.0, "{e}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod energy;
pub mod error_model;
pub mod inject;
pub mod mismatch;
pub mod partition;
pub mod tradeoff;
pub mod vmac;
pub mod vmac_sim;

pub use energy::{adc_energy_pj, mac_energy_fj, mac_energy_pj};
pub use error_model::{
    ErrorModelConfig, ErrorModelKind, LayerError, NoiseContext, PartitionSpec, DRIFT_T0,
};
pub use inject::GaussianInjector;
pub use tradeoff::{AccuracyCurve, DesignPoint, TradeoffGrid};
pub use vmac::{PrecisionBudget, Vmac};
