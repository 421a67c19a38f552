//! The AMS VMAC cell: configuration, error model (paper Eq. 1–2) and
//! precision budget (paper Fig. 2).

use serde::{Deserialize, Serialize};

/// Configuration of one AMS vector multiply-accumulate cell (paper Fig. 1).
///
/// The cell takes `n_mult` weight–activation pairs (`B_W`- and `B_X`-bit
/// sign-magnitude operands), multiplies each pair in the analog domain,
/// sums the products, and digitizes the sum with an effective resolution of
/// `enob` bits. `enob` is the single independent variable that lumps *all*
/// AMS error sources — multiplier thermal noise and nonlinearity, ADC
/// thermal noise, nonlinearity and quantization — referred to the ADC
/// input.
///
/// DoReFa quantization bounds every product to `[-1, 1]`, so the analog
/// sum lives in `[-n_mult, n_mult]` and the effective LSB is
/// `2·n_mult / 2^enob = n_mult · 2^−(enob−1)` (paper Eq. 1).
///
/// # Example
///
/// ```
/// use ams_core::vmac::Vmac;
///
/// let v = Vmac::new(8, 8, 8, 10.0);
/// // Eq. 1: Var = (N_mult · 2^-(ENOB-1))² / 12
/// let lsb = 8.0 * 2f64.powf(-9.0);
/// assert!((v.error_variance() - lsb * lsb / 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vmac {
    /// Weight operand bit-width `B_W` (sign-magnitude).
    pub bw: u32,
    /// Activation operand bit-width `B_X` (sign-magnitude).
    pub bx: u32,
    /// Products summed in the analog domain per conversion (`N_mult`).
    pub n_mult: usize,
    /// Effective number of bits of the conversion (`ENOB_VMAC`); may be
    /// fractional (the paper sweeps half-bit steps).
    pub enob: f64,
}

impl Vmac {
    /// Creates a VMAC configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bw` or `bx` is outside `1..=32`, `n_mult == 0`, or
    /// `enob` is not a positive finite number.
    pub fn new(bw: u32, bx: u32, n_mult: usize, enob: f64) -> Self {
        assert!(
            (1..=32).contains(&bw),
            "Vmac: bw must be in 1..=32, got {bw}"
        );
        assert!(
            (1..=32).contains(&bx),
            "Vmac: bx must be in 1..=32, got {bx}"
        );
        assert!(n_mult > 0, "Vmac: n_mult must be positive");
        assert!(
            enob.is_finite() && enob > 0.0,
            "Vmac: enob must be positive and finite, got {enob}"
        );
        Vmac {
            bw,
            bx,
            n_mult,
            enob,
        }
    }

    /// Returns a copy with a different `ENOB` (convenient in sweeps).
    pub fn with_enob(mut self, enob: f64) -> Self {
        assert!(
            enob.is_finite() && enob > 0.0,
            "Vmac: enob must be positive and finite, got {enob}"
        );
        self.enob = enob;
        self
    }

    /// Returns a copy with a different `N_mult`.
    pub fn with_n_mult(mut self, n_mult: usize) -> Self {
        assert!(n_mult > 0, "Vmac: n_mult must be positive");
        self.n_mult = n_mult;
        self
    }

    /// The effective LSB of the conversion in product units:
    /// `LSB = 2^(1 + log2(N_mult) − ENOB) = N_mult · 2^−(ENOB−1)`.
    pub fn lsb(&self) -> f64 {
        self.n_mult as f64 * 2f64.powf(-(self.enob - 1.0))
    }

    /// Error variance at the output of one VMAC conversion (paper Eq. 1):
    /// `Var(E_VMAC) = LSB² / 12`.
    ///
    /// By definition of ENOB this holds regardless of the error's
    /// distribution (Pelgrom, *Analog-to-Digital Conversion*).
    pub fn error_variance(&self) -> f64 {
        let lsb = self.lsb();
        lsb * lsb / 12.0
    }

    /// Total error variance after digitally accumulating the
    /// `N_tot / N_mult` VMAC outputs needed for one output activation
    /// (paper Eq. 2), assuming independent, identically distributed VMAC
    /// errors:
    /// `Var(E_tot) = (N_tot / N_mult) · Var(E_VMAC)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_tot == 0`.
    pub fn total_error_variance(&self, n_tot: usize) -> f64 {
        assert!(n_tot > 0, "total_error_variance: n_tot must be positive");
        (n_tot as f64 / self.n_mult as f64) * self.error_variance()
    }

    /// Standard deviation of the total error (√ of
    /// [`Vmac::total_error_variance`]); the σ of the Gaussian the paper
    /// injects at each convolution output.
    ///
    /// Simplifies to `√(N_tot·N_mult) · 2^−(ENOB−1) / √12`.
    ///
    /// # Panics
    ///
    /// Panics if `n_tot == 0`.
    pub fn total_error_sigma(&self, n_tot: usize) -> f64 {
        self.total_error_variance(n_tot).sqrt()
    }

    /// Number of VMAC conversions needed per output activation, rounded up.
    ///
    /// # Panics
    ///
    /// Panics if `n_tot == 0`.
    pub fn conversions_per_output(&self, n_tot: usize) -> usize {
        assert!(n_tot > 0, "conversions_per_output: n_tot must be positive");
        n_tot.div_ceil(self.n_mult)
    }

    /// The precision budget of this cell (paper Fig. 2).
    pub fn precision_budget(&self) -> PrecisionBudget {
        PrecisionBudget::new(self.bw, self.bx, self.n_mult, self.enob)
    }
}

impl Default for Vmac {
    /// The paper's baseline configuration: `B_W = B_X = 8`, `N_mult = 8`,
    /// `ENOB = 12` (the knee of Fig. 4).
    fn default() -> Self {
        Vmac::new(8, 8, 8, 12.0)
    }
}

impl std::fmt::Display for Vmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VMAC(BW={}, BX={}, Nmult={}, ENOB={:.1})",
            self.bw, self.bx, self.n_mult, self.enob
        )
    }
}

/// The ideal-vs-recovered bit budget of an AMS dot product (paper Fig. 2).
///
/// The ideal product of sign-magnitude operands has `B_W + B_X − 2`
/// magnitude bits plus a sign; analog accumulation of `N_mult` products
/// adds `log2(N_mult)` bits; the ADC recovers only the `ENOB` most
/// significant of these, losing the rest.
///
/// # Example
///
/// ```
/// use ams_core::vmac::PrecisionBudget;
///
/// let b = PrecisionBudget::new(8, 8, 8, 12.0);
/// assert_eq!(b.ideal_bits(), 1.0 + 14.0 + 3.0);
/// assert_eq!(b.lost_bits(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionBudget {
    product_magnitude_bits: u32,
    accumulation_bits: f64,
    recovered_bits: f64,
}

impl PrecisionBudget {
    /// Computes the budget for the given operand widths, fan-in and ENOB.
    ///
    /// # Panics
    ///
    /// Panics if `bw` or `bx` is zero or `n_mult == 0`.
    pub fn new(bw: u32, bx: u32, n_mult: usize, enob: f64) -> Self {
        assert!(
            bw >= 1 && bx >= 1,
            "PrecisionBudget: operand widths must be positive"
        );
        assert!(n_mult > 0, "PrecisionBudget: n_mult must be positive");
        PrecisionBudget {
            product_magnitude_bits: bw + bx - 2,
            accumulation_bits: (n_mult as f64).log2(),
            recovered_bits: enob,
        }
    }

    /// Magnitude bits of the ideal pairwise product (`B_W + B_X − 2`).
    pub fn product_magnitude_bits(&self) -> u32 {
        self.product_magnitude_bits
    }

    /// Extra bits contributed by summing `N_mult` products
    /// (`log2(N_mult)`).
    pub fn accumulation_bits(&self) -> f64 {
        self.accumulation_bits
    }

    /// Total bits of the ideal digital dot product, including the sign:
    /// `1 + (B_W + B_X − 2) + log2(N_mult)`.
    pub fn ideal_bits(&self) -> f64 {
        1.0 + self.product_magnitude_bits as f64 + self.accumulation_bits
    }

    /// Bits the ADC recovers (the MSB of which is the sign): `ENOB`.
    pub fn recovered_bits(&self) -> f64 {
        self.recovered_bits
    }

    /// Bits of lesser significance lost to the AMS implementation
    /// (never negative; an over-provisioned ADC loses nothing).
    pub fn lost_bits(&self) -> f64 {
        (self.ideal_bits() - self.recovered_bits).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_closed_form() {
        // Var(E_VMAC) = (N_mult · 2^-(ENOB-1))² / 12 at several points.
        for &(n_mult, enob) in &[(8usize, 9.0f64), (16, 12.5), (64, 11.0), (1, 6.0)] {
            let v = Vmac::new(8, 8, n_mult, enob);
            let expected = (n_mult as f64 * 2f64.powf(-(enob - 1.0))).powi(2) / 12.0;
            assert!((v.error_variance() - expected).abs() < 1e-15 * expected.max(1.0));
        }
    }

    #[test]
    fn eq2_scales_linearly_in_ntot() {
        let v = Vmac::new(8, 8, 8, 10.0);
        let v1 = v.total_error_variance(576);
        let v2 = v.total_error_variance(1152);
        assert!((v2 / v1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_simplified_form() {
        // σ = √(N_tot·N_mult) · 2^-(ENOB-1) / √12
        let v = Vmac::new(8, 8, 8, 11.5);
        let n_tot = 4608;
        let direct = v.total_error_sigma(n_tot);
        let simplified = ((n_tot * 8) as f64).sqrt() * 2f64.powf(-10.5) / 12f64.sqrt();
        assert!((direct - simplified).abs() < 1e-12);
    }

    #[test]
    fn extra_bit_quarters_variance() {
        // "for each extra digitized bit, the variance of the total error
        //  drops by a factor of four" (paper §4).
        let v = Vmac::new(8, 8, 8, 10.0);
        let r = v.total_error_variance(1000) / v.with_enob(11.0).total_error_variance(1000);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn nmult_linear_dependence() {
        // "higher N_mult introduces quadratically greater error per VMAC
        //  but requires linearly fewer VMACs, resulting in an overall
        //  linear dependence" (paper §4).
        let a = Vmac::new(8, 8, 8, 10.0).total_error_variance(4096);
        let b = Vmac::new(8, 8, 16, 10.0).total_error_variance(4096);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn conversions_round_up() {
        let v = Vmac::new(8, 8, 8, 10.0);
        assert_eq!(v.conversions_per_output(8), 1);
        assert_eq!(v.conversions_per_output(9), 2);
        assert_eq!(v.conversions_per_output(576), 72);
    }

    #[test]
    fn fig2_budget() {
        let b = PrecisionBudget::new(6, 4, 16, 9.0);
        assert_eq!(b.product_magnitude_bits(), 8);
        assert_eq!(b.accumulation_bits(), 4.0);
        assert_eq!(b.ideal_bits(), 13.0);
        assert_eq!(b.lost_bits(), 4.0);
        assert_eq!(PrecisionBudget::new(6, 4, 16, 13.0).lost_bits(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let v = Vmac::new(6, 6, 32, 12.5);
        assert_eq!(v.to_string(), "VMAC(BW=6, BX=6, Nmult=32, ENOB=12.5)");
    }

    #[test]
    #[should_panic(expected = "enob must be positive")]
    fn rejects_nonpositive_enob() {
        Vmac::new(8, 8, 8, 0.0);
    }
}
