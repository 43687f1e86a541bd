//! # revbifpn
//!
//! Reproduction of **RevBiFPN: The Fully Reversible Bidirectional Feature
//! Pyramid Network** (Chiley et al., MLSys 2023) — the backbone family
//! S0–S6, its invertible SpaceToDepth stem, the RevSilo-based reversible
//! body, classification neck/head, the compound-scaling rule, and analytic
//! parameter/MAC/memory models.
//!
//! The backbone trains with **O(nchw)** activation memory: only the output
//! feature pyramid is retained and every hidden state is reconstructed
//! during the backward pass (see `revbifpn-rev`).
//!
//! ```
//! use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
//! use revbifpn_tensor::{Shape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10));
//! let mut rng = StdRng::seed_from_u64(0);
//! let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
//! let logits = model.forward(&x, RunMode::Eval);
//! assert_eq!(logits.shape(), Shape::new(1, 10, 1, 1));
//! ```

#![warn(missing_docs)]

pub mod artifact;
mod backbone;
mod config;
mod freeze;
mod head;
mod model;
pub mod stats;
mod stem;

pub use backbone::RevBiFPN;
pub use config::{ConfigError, DownsampleMode, RevBiFPNConfig, SePlacement, StemKind, UpsampleMode};
pub use freeze::{FrozenBackbone, FrozenClassifier, FrozenClsHead, FrozenStem};
pub use head::{ClsHead, Neck};
pub use model::{RevBiFPNClassifier, RunMode};
pub use stem::Stem;
