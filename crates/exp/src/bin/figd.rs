//! Regenerates Figure D (top-1 accuracy vs simulated inference time
//! under conductance drift, with and without per-layer compensation).

use ams_exp::{run_bin, Experiments};

fn main() {
    run_bin(
        Experiments::figd,
        &[
            "Expected shape: drifting-pcm accuracy decays with inference time while the",
            "time-invariant anchor stays flat; the compensated series claws back part of",
            "the drift-induced loss (see DESIGN.md §15).",
        ],
    );
}
