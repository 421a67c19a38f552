//! The (ENOB, N_mult) design space and the energy–accuracy tradeoff
//! (paper Fig. 8).
//!
//! The paper measures accuracy loss only at `N_mult = 8` and maps it to
//! every other `N_mult` through the error model: two design points inject
//! the same per-layer error — and therefore cost the same accuracy — when
//! `N_mult · 4^−ENOB` matches (Eq. 2). On the energy side, thermal-noise-
//! limited ADCs quadruple in energy per extra bit while `N_mult` amortizes
//! the conversion linearly (Eq. 3–4), so *the same trade* keeps energy
//! constant too: accuracy-loss and energy level curves are parallel, and
//! each loss target maps to a unique minimum energy per MAC.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

use crate::energy::{mac_energy_fj, ENOB_BREAKPOINT};

/// Error building an [`AccuracyCurve`].
#[derive(Debug, Clone, PartialEq)]
pub enum CurveError {
    /// Fewer than two points were supplied.
    TooFewPoints,
    /// Two points share the same ENOB.
    DuplicateEnob(f64),
    /// A point has a non-finite coordinate.
    NonFinite,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::TooFewPoints => write!(f, "accuracy curve needs at least two points"),
            CurveError::DuplicateEnob(e) => write!(f, "duplicate ENOB {e} in accuracy curve"),
            CurveError::NonFinite => write!(f, "accuracy curve contains a non-finite coordinate"),
        }
    }
}

impl Error for CurveError {}

/// A measured top-1 accuracy-loss curve at a reference `N_mult`, with
/// linear interpolation in ENOB.
///
/// This is the paper's Fig. 4 data reduced to a lookup: the `fig8`
/// machinery maps any `(ENOB, N_mult)` to an equivalent ENOB at the
/// reference fan-in and reads the loss off this curve.
///
/// # Example
///
/// ```
/// use ams_core::tradeoff::AccuracyCurve;
///
/// let curve = AccuracyCurve::new(8, vec![(9.0, 0.10), (11.0, 0.01), (13.0, 0.0)])?;
/// assert!((curve.loss_at(10.0) - 0.055).abs() < 1e-9); // interpolated
/// assert_eq!(curve.loss_at(20.0), 0.0);                // clamped right
/// # Ok::<(), ams_core::tradeoff::CurveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyCurve {
    reference_n_mult: usize,
    points: Vec<(f64, f64)>,
}

impl AccuracyCurve {
    /// Builds a curve from `(ENOB, top-1 loss)` samples measured at
    /// `reference_n_mult`; points are sorted by ENOB.
    ///
    /// # Errors
    ///
    /// Returns a [`CurveError`] if fewer than two points are given, any
    /// coordinate is non-finite, or two points share an ENOB.
    pub fn new(reference_n_mult: usize, mut points: Vec<(f64, f64)>) -> Result<Self, CurveError> {
        if points.len() < 2 {
            return Err(CurveError::TooFewPoints);
        }
        if points.iter().any(|(e, l)| !e.is_finite() || !l.is_finite()) {
            return Err(CurveError::NonFinite);
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in points.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(CurveError::DuplicateEnob(w[0].0));
            }
        }
        assert!(
            reference_n_mult > 0,
            "AccuracyCurve: reference n_mult must be positive"
        );
        Ok(AccuracyCurve {
            reference_n_mult,
            points,
        })
    }

    /// The `N_mult` the samples were measured at.
    pub fn reference_n_mult(&self) -> usize {
        self.reference_n_mult
    }

    /// The `(ENOB, loss)` samples in ascending ENOB order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Loss at an arbitrary ENOB (reference `N_mult`), linearly
    /// interpolated and clamped to the measured range's end values.
    pub fn loss_at(&self, enob: f64) -> f64 {
        let pts = &self.points;
        if enob <= pts[0].0 {
            return pts[0].1;
        }
        if enob >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let ((e0, l0), (e1, l1)) = (w[0], w[1]);
            if enob <= e1 {
                let t = (enob - e0) / (e1 - e0);
                return l0 + t * (l1 - l0);
            }
        }
        unreachable!("enob within range must fall in a window")
    }

    /// Loss at an arbitrary `(ENOB, N_mult)` design point via the
    /// equal-error mapping (paper Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if `n_mult == 0`.
    pub fn loss_at_design(&self, enob: f64, n_mult: usize) -> f64 {
        self.loss_at(equivalent_enob(enob, n_mult, self.reference_n_mult))
    }

    /// The paper's ResNet-50/ImageNet retrained accuracy-loss curve
    /// (digitized from Fig. 4's "retrained" series, `N_mult = 8`).
    ///
    /// Feeding this curve to [`TradeoffGrid::evaluate`] reproduces the
    /// paper's headline numbers — < 0.4 % loss ⇒ ~313 fJ/MAC, < 1 % ⇒
    /// ~78 fJ/MAC — from this crate's energy model and mapping alone,
    /// independent of any local training substrate.
    pub fn paper_resnet50_reference() -> Self {
        AccuracyCurve::new(
            8,
            vec![
                (9.0, 0.055),
                (9.5, 0.042),
                (10.0, 0.030),
                (10.5, 0.020),
                (11.0, 0.0095),
                (11.5, 0.006),
                (12.0, 0.0035),
                (12.5, 0.001),
                (13.0, 0.0),
            ],
        )
        .expect("static reference curve is valid")
    }
}

/// Maps a design point's ENOB to the ENOB that injects the *same*
/// per-layer error at the reference fan-in:
/// `ENOB' = ENOB − ½·log2(N_mult / N_ref)` (from Eq. 2's
/// `Var ∝ N_mult · 4^−ENOB`).
///
/// # Panics
///
/// Panics if either fan-in is zero.
pub fn equivalent_enob(enob: f64, n_mult: usize, reference_n_mult: usize) -> f64 {
    assert!(
        n_mult > 0 && reference_n_mult > 0,
        "equivalent_enob: fan-ins must be positive"
    );
    enob - 0.5 * (n_mult as f64 / reference_n_mult as f64).log2()
}

/// One evaluated cell of the Fig. 8 design-space grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Conversion resolution.
    pub enob: f64,
    /// Analog fan-in.
    pub n_mult: usize,
    /// Predicted top-1 accuracy loss (fraction, relative to the quantized
    /// baseline).
    pub loss: f64,
    /// Minimum energy per MAC in fJ (paper Eq. 3–4).
    pub mac_energy_fj: f64,
}

/// The evaluated (ENOB × N_mult) grid — the paper's Fig. 8 as data.
///
/// Cells are stored row-major: all `n_mults` for the first ENOB, then the
/// next ENOB, and so on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffGrid {
    enobs: Vec<f64>,
    n_mults: Vec<usize>,
    cells: Vec<DesignPoint>,
}

impl TradeoffGrid {
    /// Evaluates the grid from a measured accuracy curve.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn evaluate(curve: &AccuracyCurve, enobs: &[f64], n_mults: &[usize]) -> Self {
        assert!(
            !enobs.is_empty() && !n_mults.is_empty(),
            "TradeoffGrid: empty axis"
        );
        let mut cells = Vec::with_capacity(enobs.len() * n_mults.len());
        for &enob in enobs {
            for &n_mult in n_mults {
                cells.push(DesignPoint {
                    enob,
                    n_mult,
                    loss: curve.loss_at_design(enob, n_mult),
                    mac_energy_fj: mac_energy_fj(enob, n_mult),
                });
            }
        }
        TradeoffGrid {
            enobs: enobs.to_vec(),
            n_mults: n_mults.to_vec(),
            cells,
        }
    }

    /// The ENOB axis.
    pub fn enobs(&self) -> &[f64] {
        &self.enobs
    }

    /// The N_mult axis.
    pub fn n_mults(&self) -> &[usize] {
        &self.n_mults
    }

    /// All evaluated cells, row-major in (ENOB, N_mult).
    pub fn cells(&self) -> &[DesignPoint] {
        &self.cells
    }

    /// The cell at `(enob_idx, n_mult_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, enob_idx: usize, n_mult_idx: usize) -> &DesignPoint {
        assert!(enob_idx < self.enobs.len(), "enob index out of range");
        assert!(n_mult_idx < self.n_mults.len(), "n_mult index out of range");
        &self.cells[enob_idx * self.n_mults.len() + n_mult_idx]
    }

    /// The cheapest design meeting a loss target, if any cell qualifies —
    /// the paper's "< 0.4 % accuracy loss requires ≥ ~313 fJ/MAC" query.
    pub fn min_energy_for_loss(&self, max_loss: f64) -> Option<DesignPoint> {
        self.cells
            .iter()
            .filter(|c| c.loss < max_loss)
            .min_by(|a, b| {
                a.mac_energy_fj
                    .partial_cmp(&b.mac_energy_fj)
                    .expect("finite energy")
            })
            .copied()
    }

    /// Verifies the paper's parallel-level-curve claim over this grid's
    /// thermal-noise-limited region: along any equal-loss trade
    /// (`N_mult → 2·N_mult`, `ENOB → ENOB + ½`), energy stays constant.
    /// Returns the maximum relative energy deviation observed.
    pub fn level_curve_deviation(&self) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.cells {
            if c.enob <= ENOB_BREAKPOINT {
                continue; // flat-energy region: the claim holds only in the thermal regime
            }
            let traded = mac_energy_fj(c.enob + 0.5, c.n_mult * 2);
            let dev = (traded / c.mac_energy_fj - 1.0).abs();
            worst = worst.max(dev);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmac::Vmac;

    fn toy_curve() -> AccuracyCurve {
        AccuracyCurve::new(
            8,
            vec![
                (9.0, 0.12),
                (10.0, 0.06),
                (11.0, 0.02),
                (12.0, 0.004),
                (13.0, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn interpolation_and_clamping() {
        let c = toy_curve();
        assert_eq!(c.loss_at(9.0), 0.12);
        assert!((c.loss_at(10.5) - 0.04).abs() < 1e-12);
        assert_eq!(c.loss_at(5.0), 0.12);
        assert_eq!(c.loss_at(99.0), 0.0);
    }

    #[test]
    fn equivalent_enob_doubles() {
        // Doubling N_mult costs half a bit.
        assert!((equivalent_enob(12.0, 16, 8) - 11.5).abs() < 1e-12);
        assert!((equivalent_enob(12.0, 4, 8) - 12.5).abs() < 1e-12);
        assert_eq!(equivalent_enob(12.0, 8, 8), 12.0);
    }

    #[test]
    fn equal_error_mapping_preserves_sigma() {
        // (ENOB, N_mult) and (equivalent ENOB, ref N_mult) inject the same σ.
        let n_tot = 4608;
        let sigma = |enob, n_mult| Vmac::new(8, 8, n_mult, enob).total_error_sigma(n_tot);
        for &(enob, n_mult) in &[(12.0f64, 64usize), (10.5, 2), (13.0, 256)] {
            let direct = sigma(enob, n_mult);
            let mapped = sigma(equivalent_enob(enob, n_mult, 8), 8);
            assert!((direct / mapped - 1.0).abs() < 1e-9, "{enob},{n_mult}");
        }
    }

    #[test]
    fn grid_level_curves_parallel_in_thermal_region() {
        let c = toy_curve();
        let enobs: Vec<f64> = (0..8).map(|i| 10.75 + 0.25 * i as f64).collect();
        let n_mults = vec![2usize, 4, 8, 16, 32, 64];
        let grid = TradeoffGrid::evaluate(&c, &enobs, &n_mults);
        // The 6.02 dB/bit constant in Eq. 3 rounds 20·log10(2) = 6.0206…,
        // so the ×4-per-bit identity holds to ~1e-4 relative.
        assert!(
            grid.level_curve_deviation() < 1e-3,
            "{}",
            grid.level_curve_deviation()
        );
    }

    #[test]
    fn min_energy_for_loss_is_monotone() {
        let c = toy_curve();
        let enobs: Vec<f64> = (0..17).map(|i| 9.0 + 0.25 * i as f64).collect();
        let n_mults = vec![2usize, 4, 8, 16, 32, 64, 128];
        let grid = TradeoffGrid::evaluate(&c, &enobs, &n_mults);
        let e_04 = grid
            .min_energy_for_loss(0.004)
            .expect("some design meets 0.4%");
        let e_1 = grid
            .min_energy_for_loss(0.01)
            .expect("some design meets 1%");
        assert!(
            e_04.mac_energy_fj >= e_1.mac_energy_fj,
            "tighter accuracy must cost at least as much energy"
        );
    }

    #[test]
    fn grid_indexing() {
        let c = toy_curve();
        let grid = TradeoffGrid::evaluate(&c, &[10.0, 11.0], &[4, 8]);
        assert_eq!(grid.cells().len(), 4);
        let p = grid.cell(1, 0);
        assert_eq!((p.enob, p.n_mult), (11.0, 4));
    }

    #[test]
    fn curve_validation() {
        assert_eq!(
            AccuracyCurve::new(8, vec![(9.0, 0.1)]).unwrap_err(),
            CurveError::TooFewPoints
        );
        assert_eq!(
            AccuracyCurve::new(8, vec![(9.0, 0.1), (9.0, 0.2)]).unwrap_err(),
            CurveError::DuplicateEnob(9.0)
        );
        assert_eq!(
            AccuracyCurve::new(8, vec![(9.0, 0.1), (f64::NAN, 0.2)]).unwrap_err(),
            CurveError::NonFinite
        );
    }
}
