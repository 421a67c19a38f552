//! Named-tensor checkpoints.
//!
//! The paper's workflow moves weights between networks: a pretrained FP32
//! ResNet is "modified to reflect the intended underlying hardware" and then
//! retrained (paper §3). Here that is a [`Checkpoint`] saved from the FP32
//! model and loaded into its quantized/AMS twin — both expose the same
//! stable state names through [`crate::Layer::for_each_state`].

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::Path;

use ams_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::layer::Layer;

/// A snapshot of a model's persistent state (parameters and buffers),
/// keyed by stable hierarchical names.
///
/// # Example
///
/// ```
/// use ams_nn::{BatchNorm2d, Checkpoint, Layer, Mode};
/// use ams_tensor::{ExecCtx, Tensor};
///
/// let ctx = ExecCtx::serial();
/// let mut a = BatchNorm2d::new("bn", 2);
/// let batch = Tensor::from_vec(&[2, 2, 1, 1], vec![1.0, 2.0, 3.0, 5.0]).unwrap();
/// a.forward(&ctx, &batch, Mode::Train); // moves the running statistics
/// let ckpt = Checkpoint::from_layer(&mut a);
///
/// let mut b = BatchNorm2d::new("bn", 2); // fresh statistics
/// ckpt.load_into(&mut b).unwrap();
/// let x = Tensor::ones(&[1, 2, 1, 1]);
/// assert_eq!(a.forward(&ctx, &x, Mode::Eval), b.forward(&ctx, &x, Mode::Eval));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Checkpoint {
    entries: BTreeMap<String, Tensor>,
}

/// Error returned when a checkpoint does not match the target model.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The model has a state tensor the checkpoint lacks.
    Missing {
        /// Name of the missing entry.
        name: String,
    },
    /// A checkpoint entry exists but its shape disagrees with the model.
    ShapeMismatch {
        /// Name of the mismatched entry.
        name: String,
        /// Shape expected by the model.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        got: Vec<usize>,
    },
    /// The checkpoint file could not be read or parsed.
    Io(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Missing { name } => write!(f, "checkpoint is missing entry {name:?}"),
            LoadError::ShapeMismatch {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "checkpoint entry {name:?} has shape {got:?}, model expects {expected:?}"
                )
            }
            LoadError::Io(msg) => write!(f, "checkpoint i/o failure: {msg}"),
        }
    }
}

impl Error for LoadError {}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots all persistent state of `layer`.
    pub fn from_layer(layer: &mut dyn Layer) -> Self {
        let mut entries = BTreeMap::new();
        layer.for_each_state(&mut |name, t| {
            entries.insert(name.to_string(), t.clone());
        });
        Checkpoint { entries }
    }

    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Iterates over `(name, tensor)` entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Copies matching entries into `layer`.
    ///
    /// Every state tensor of the model must be present in the checkpoint
    /// with the same shape; extra checkpoint entries are ignored (so a
    /// larger model's snapshot can seed a subset model).
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Missing`] or [`LoadError::ShapeMismatch`]; in
    /// both cases the model may be partially updated.
    pub fn load_into(&self, layer: &mut dyn Layer) -> Result<(), LoadError> {
        let mut result = Ok(());
        layer.for_each_state(&mut |name, t| {
            if result.is_err() {
                return;
            }
            match self.entries.get(name) {
                None => {
                    result = Err(LoadError::Missing {
                        name: name.to_string(),
                    })
                }
                Some(src) if src.dims() != t.dims() => {
                    result = Err(LoadError::ShapeMismatch {
                        name: name.to_string(),
                        expected: t.dims().to_vec(),
                        got: src.dims().to_vec(),
                    })
                }
                Some(src) => *t = src.clone(),
            }
        });
        result
    }

    /// Snapshots every parameter's momentum buffer, keyed by parameter
    /// name.
    ///
    /// Momentum is optimizer state, not model state, so it is absent from
    /// [`Checkpoint::from_layer`]; a resumable training loop must persist
    /// it separately or the first post-resume update diverges from the
    /// uninterrupted run (DESIGN.md §9).
    pub fn velocities_from(layer: &mut dyn Layer) -> Self {
        let mut entries = BTreeMap::new();
        layer.for_each_param(&mut |p| {
            entries.insert(p.name().to_string(), p.velocity.clone());
        });
        Checkpoint { entries }
    }

    /// Restores momentum buffers captured by [`Checkpoint::velocities_from`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Missing`] or [`LoadError::ShapeMismatch`] (the
    /// model may be partially updated on error), mirroring
    /// [`Checkpoint::load_into`].
    pub fn load_velocities_into(&self, layer: &mut dyn Layer) -> Result<(), LoadError> {
        let mut result = Ok(());
        layer.for_each_param(&mut |p| {
            if result.is_err() {
                return;
            }
            match self.entries.get(p.name()) {
                None => {
                    result = Err(LoadError::Missing {
                        name: p.name().to_string(),
                    })
                }
                Some(src) if src.dims() != p.velocity.dims() => {
                    result = Err(LoadError::ShapeMismatch {
                        name: p.name().to_string(),
                        expected: p.velocity.dims().to_vec(),
                        got: src.dims().to_vec(),
                    })
                }
                Some(src) => p.velocity = src.clone(),
            }
        });
        result
    }

    /// Serializes to a JSON file.
    ///
    /// The write is crash-safe (tmp file + fsync + rename via
    /// [`ams_obs::fsio::atomic_write`]): a process killed mid-save leaves
    /// either the previous checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Io`] on filesystem or serialization failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), LoadError> {
        let json = serde_json::to_string(self).map_err(|e| LoadError::Io(e.to_string()))?;
        ams_obs::fsio::atomic_write(path, json.as_bytes()).map_err(|e| LoadError::Io(e.to_string()))
    }

    /// Deserializes from a JSON file written by [`Checkpoint::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Io`] on filesystem or parse failure.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io(e.to_string()))?;
        serde_json::from_str(&text).map_err(|e| LoadError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Mode};
    use ams_tensor::{rng, ExecCtx};

    /// A batch norm whose parameters, gradients and running statistics
    /// all differ from a fresh one's.
    fn trained_bn(name: &str, channels: usize, seed: u64) -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(name, channels);
        let mut x = Tensor::zeros(&[4, channels, 2, 2]);
        rng::fill_normal(&mut x, 0.5, 2.0, &mut rng::seeded(seed));
        let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
        bn.backward(&ExecCtx::serial(), &y);
        crate::Sgd::with_momentum(0.1, 0.9).step(&mut bn);
        bn
    }

    #[test]
    fn round_trip_through_json() {
        let mut bn = trained_bn("bn", 2, 0);
        let ckpt = Checkpoint::from_layer(&mut bn);
        let dir = std::env::temp_dir().join("ams_nn_ckpt_test.json");
        ckpt.save_json(&dir).unwrap();
        let loaded = Checkpoint::load_json(&dir).unwrap();
        assert_eq!(ckpt.len(), loaded.len());
        for ((n1, t1), (n2, t2)) in ckpt.iter().zip(loaded.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2);
        }
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn velocities_round_trip() {
        // One real momentum step gives the buffers non-trivial content.
        let mut a = trained_bn("bn", 2, 4);
        let snap = Checkpoint::velocities_from(&mut a);
        assert!(!snap.is_empty());

        let mut b = BatchNorm2d::new("bn", 2);
        snap.load_velocities_into(&mut b).unwrap();
        let mut pairs = Vec::new();
        b.for_each_param(&mut |p| pairs.push((p.name().to_string(), p.velocity.clone())));
        for (name, v) in pairs {
            assert_eq!(snap.get(&name).unwrap(), &v);
        }

        // A model with differently named params is rejected.
        let mut c = BatchNorm2d::new("other", 2);
        assert!(matches!(
            snap.load_velocities_into(&mut c),
            Err(LoadError::Missing { .. })
        ));
    }

    #[test]
    fn missing_entry_is_reported() {
        let ckpt = Checkpoint::from_layer(&mut BatchNorm2d::new("a", 2));
        let err = ckpt.load_into(&mut BatchNorm2d::new("b", 2)).unwrap_err();
        assert!(matches!(err, LoadError::Missing { .. }));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let ckpt = Checkpoint::from_layer(&mut BatchNorm2d::new("bn", 2));
        let err = ckpt.load_into(&mut BatchNorm2d::new("bn", 3)).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { .. }));
    }

    #[test]
    fn torn_tensor_fails_to_load() {
        let path =
            std::env::temp_dir().join(format!("ams_nn_ckpt_torn_{}.json", std::process::id()));
        let torn = r#"{"entries":{"bn.gamma":{"dims":[2,2],"data":[1.0,2.0,3.0]}}}"#;
        std::fs::write(&path, torn).unwrap();
        let got = Checkpoint::load_json(&path);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(got, Err(LoadError::Io(_))), "{got:?}");
    }
}
