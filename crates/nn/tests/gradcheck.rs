//! Randomized finite-difference gradient checks for the digital layers:
//! batch norm, the clipped ReLU and pooling.
//!
//! The straight-through estimators in downstream crates only make sense if
//! the *exact* layers here have correct gradients; these tests pin them
//! against central differences on random configurations. The convolution
//! and fully-connected cores are checked in `functional.rs`, and their
//! composition with batch norm and the clipped ReLU in `ams-models`'
//! block tests.

use ams_nn::{BatchNorm2d, ClippedRelu, GlobalAvgPool, Layer, MaxPool2d, Mode};
use ams_tensor::{rng, ExecCtx, Tensor};

/// ½‖y‖² loss: dL/dy = y, so one forward gives the backward seed.
fn loss_and_seed(layer: &mut dyn Layer, x: &Tensor) -> (f32, Tensor) {
    let y = layer.forward(&ExecCtx::serial(), x, Mode::Train);
    (0.5 * y.data().iter().map(|v| v * v).sum::<f32>(), y)
}

fn loss_only(layer: &mut dyn Layer, x: &Tensor) -> f32 {
    let y = layer.forward(&ExecCtx::serial(), x, Mode::Train);
    0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
}

/// Central-difference check of dL/dx on a sample of coordinates.
///
/// `fresh` must build an identical layer every call (weights included),
/// since layers mutate caches during forward.
fn check_input_gradient(
    mut fresh: impl FnMut() -> Box<dyn Layer>,
    x: &Tensor,
    eps: f32,
    tol: f32,
    skip_small: f32,
) {
    let mut layer = fresh();
    let (_, y) = loss_and_seed(layer.as_mut(), x);
    let dx = layer.backward(&ExecCtx::serial(), &y);
    let stride = (x.len() / 7).max(1);
    let mut checked = 0;
    for i in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = loss_only(fresh().as_mut(), &xp);
        let lm = loss_only(fresh().as_mut(), &xm);
        let l0 = loss_only(fresh().as_mut(), x);
        let num = (lp - lm) / (2.0 * eps);
        let ana = dx.data()[i];
        if num.abs() < skip_small && ana.abs() < skip_small {
            continue; // non-smooth kink (ReLU boundary, pooling tie)
        }
        // A kink inside [x−ε, x+ε] makes the central difference
        // meaningless. Through batch norm a single-coordinate perturbation
        // shifts every activation in the batch, so any ReLU corner or
        // pooling argmax switch anywhere can be crossed — detect it by the
        // two one-sided differences disagreeing beyond curvature effects
        // (for smooth f they differ by O(ε·f″), far below `tol` here).
        let fwd = (lp - l0) / eps;
        let bwd = (l0 - lm) / eps;
        if (fwd - bwd).abs() > tol * (1.0 + num.abs().max(ana.abs())) {
            continue;
        }
        assert!(
            (num - ana).abs() < tol * (1.0 + ana.abs()),
            "coordinate {i}: numeric {num} vs analytic {ana}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no coordinates were checkable");
}

fn random_input(dims: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let mut r = rng::seeded(seed);
    rng::fill_uniform(&mut t, lo, hi, &mut r);
    t
}

#[test]
fn batchnorm_input_gradient() {
    // ½‖y‖² is *invariant* under batch norm (Σx̂² is pinned by the
    // normalization), so use an elementwise-weighted loss
    // L = ½·Σ wᵢ·yᵢ² with fixed random weights to break the symmetry.
    let x = random_input(&[4, 3, 3, 3], 7, -2.0, 2.0);
    let w = random_input(&[4, 3, 3, 3], 77, 0.2, 2.0);
    let loss_of = |x_: &Tensor| -> f32 {
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(&ExecCtx::serial(), x_, Mode::Train);
        0.5 * y
            .data()
            .iter()
            .zip(w.data())
            .map(|(v, wi)| wi * v * v)
            .sum::<f32>()
    };
    let mut bn = BatchNorm2d::new("bn", 3);
    let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
    let seed = y.mul(&w); // dL/dy = w ⊙ y
    let dx = bn.backward(&ExecCtx::serial(), &seed);
    let eps = 1e-2;
    let mut checked = 0;
    for i in (0..x.len()).step_by(13) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
        let ana = dx.data()[i];
        assert!(
            (num - ana).abs() < 0.1 * (1.0 + ana.abs()),
            "coordinate {i}: numeric {num} vs analytic {ana}"
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn clipped_relu_input_gradient() {
    let x = random_input(&[2, 2, 4, 4], 8, -1.0, 2.0);
    check_input_gradient(
        || Box::new(ClippedRelu::new("c")),
        &x,
        1e-3,
        0.05,
        1e-2, // skip kink coordinates
    );
}

#[test]
fn pooling_input_gradients() {
    let x = random_input(&[2, 2, 4, 4], 9, -1.0, 1.0);
    check_input_gradient(|| Box::new(MaxPool2d::new("p", 2)), &x, 1e-3, 0.05, 1e-2);
    check_input_gradient(|| Box::new(GlobalAvgPool::new("g")), &x, 1e-3, 0.05, 0.0);
}
