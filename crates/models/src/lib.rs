//! Model zoo and data synthesis for the FedSZ reproduction.
//!
//! * [`spec`]/[`zoo`] — exact torchvision-shaped architecture inventories of
//!   AlexNet, MobileNetV2, and ResNet50 (every state-dict entry).
//! * [`synth`] — pretrained-like weight synthesis (per-layer Kaiming-scaled
//!   Gaussian + Laplace-tail mixtures matching Fig. 3).
//! * [`scidata`] — smooth MIRANDA-like field for the Fig. 2 contrast.

pub mod scidata;
pub mod spec;
pub mod synth;
pub mod zoo;

pub use spec::ModelSpec;

use fedsz_tensor::StateDict;

/// The three architectures Table III profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ~61.1 M trainable parameters.
    AlexNet,
    /// ~3.5 M trainable parameters.
    MobileNetV2,
    /// ~25.6 M trainable parameters.
    ResNet50,
}

impl ModelKind {
    /// All models in Table III row order (ascending size).
    pub fn all() -> [ModelKind; 3] {
        [
            ModelKind::MobileNetV2,
            ModelKind::ResNet50,
            ModelKind::AlexNet,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::AlexNet => "AlexNet",
            ModelKind::MobileNetV2 => "MobileNet-V2",
            ModelKind::ResNet50 => "ResNet50",
        }
    }

    /// Architecture spec with the given classifier width.
    pub fn spec(self, num_classes: usize) -> ModelSpec {
        match self {
            ModelKind::AlexNet => zoo::alexnet(num_classes),
            ModelKind::MobileNetV2 => zoo::mobilenet_v2(num_classes),
            ModelKind::ResNet50 => zoo::resnet50(num_classes),
        }
    }

    /// Synthesize a pretrained-like state dict (see [`synth::synthesize`]).
    pub fn synthesize(self, num_classes: usize, seed: u64) -> StateDict {
        synth::synthesize(&self.spec(num_classes), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_their_specs() {
        for kind in ModelKind::all() {
            let spec = kind.spec(10);
            assert_eq!(spec.name, kind.name());
            assert!(spec.num_trainable() > 1_000_000);
        }
    }

    #[test]
    fn synthesize_smoke() {
        let sd = ModelKind::MobileNetV2.synthesize(10, 1);
        assert_eq!(
            sd.num_params(),
            ModelKind::MobileNetV2.spec(10).num_state_values()
        );
    }
}
