//! Scaled-down trainable analogues of the paper's three architectures.
//!
//! The full 3.5–61 M-parameter torchvision models (described exactly in
//! `fedsz-models`) cannot be trained on a CPU budget; these analogues keep
//! the architectural features FedSZ interacts with — conv weight tensors,
//! batch-norm running statistics, depthwise convolutions, residual
//! connections, classifier heads — at a size where 50 federated rounds run
//! in seconds. State-dict names follow the same conventions, so the FedSZ
//! partition rule applies unchanged.

use fedsz_tensor::SplitMix64;

use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::layer::{Flatten, ReLU, Residual, Sequential};
use crate::network::Network;
use crate::norm::BatchNorm2d;
use crate::pool::{GlobalAvgPool, MaxPool2d};

/// Which analogue to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelArch {
    /// Conv stack + dense classifier (AlexNet analogue; no batch norm).
    AlexNetS,
    /// Inverted-residual depthwise blocks (MobileNetV2 analogue).
    MobileNetV2S,
    /// Residual bottleneck stages (ResNet50 analogue).
    ResNetS,
}

impl ModelArch {
    /// All analogues, matching the paper's model set.
    pub fn all() -> [ModelArch; 3] {
        [
            ModelArch::AlexNetS,
            ModelArch::MobileNetV2S,
            ModelArch::ResNetS,
        ]
    }

    /// Display name (the full architecture each stands in for).
    pub fn name(self) -> &'static str {
        match self {
            ModelArch::AlexNetS => "AlexNet",
            ModelArch::MobileNetV2S => "MobileNet-V2",
            ModelArch::ResNetS => "ResNet50",
        }
    }

    /// Build for the given input geometry.
    ///
    /// # Panics
    /// Panics if an `hw × hw` input is too small for the architecture.
    pub fn build(self, in_ch: usize, hw: usize, classes: usize, seed: u64) -> Network {
        match self {
            ModelArch::AlexNetS => alexnet_s(in_ch, hw, classes, seed),
            ModelArch::MobileNetV2S => mobilenet_v2_s(in_ch, hw, classes, seed),
            ModelArch::ResNetS => resnet_s(in_ch, hw, classes, seed),
        }
    }
}

/// AlexNet analogue: three conv+pool stages and a two-layer classifier.
pub(crate) fn alexnet_s(in_ch: usize, hw: usize, classes: usize, seed: u64) -> Network {
    let mut rng = SplitMix64::new(seed);
    let s = hw / 2 / 2 / 2; // three 2x2 pools
    assert!(s >= 1, "input {hw} too small for AlexNetS");
    let root = Sequential::new()
        .add(
            "features.0",
            Conv2d::new(in_ch, 16, 3, 1, 1, 1, true, &mut rng),
        )
        .add("relu0", ReLU::new())
        .add("pool0", MaxPool2d::new(2))
        .add(
            "features.3",
            Conv2d::new(16, 32, 3, 1, 1, 1, true, &mut rng),
        )
        .add("relu1", ReLU::new())
        .add("pool1", MaxPool2d::new(2))
        .add(
            "features.6",
            Conv2d::new(32, 64, 3, 1, 1, 1, true, &mut rng),
        )
        .add("relu2", ReLU::new())
        .add("pool2", MaxPool2d::new(2))
        .add("flatten", Flatten::new())
        .add("classifier.1", Dense::new(64 * s * s, 128, &mut rng))
        .add("relu3", ReLU::new())
        .add("classifier.4", Dense::new(128, classes, &mut rng));
    Network::new(root)
}

/// One inverted residual block: expand (1×1) → depthwise (3×3) → project (1×1).
fn inverted_residual(
    in_ch: usize,
    out_ch: usize,
    expand: usize,
    stride: usize,
    rng: &mut SplitMix64,
) -> Sequential {
    let hidden = in_ch * expand;
    Sequential::new()
        .add(
            "conv.0.0",
            Conv2d::new(in_ch, hidden, 1, 1, 0, 1, false, rng),
        )
        .add("conv.0.1", BatchNorm2d::new(hidden))
        .add("relu0", ReLU::new())
        .add(
            "conv.1.0",
            Conv2d::new(hidden, hidden, 3, stride, 1, hidden, false, rng),
        )
        .add("conv.1.1", BatchNorm2d::new(hidden))
        .add("relu1", ReLU::new())
        .add(
            "conv.2",
            Conv2d::new(hidden, out_ch, 1, 1, 0, 1, false, rng),
        )
        .add("conv.3", BatchNorm2d::new(out_ch))
}

/// MobileNetV2 analogue: stem + four inverted-residual blocks + head.
///
/// Every convolution pads its 3×3 window, so any non-empty input works.
pub(crate) fn mobilenet_v2_s(in_ch: usize, hw: usize, classes: usize, seed: u64) -> Network {
    assert!(hw >= 1, "input {hw} too small for MobileNetV2S");
    let mut rng = SplitMix64::new(seed);
    let root = Sequential::new()
        .add(
            "features.0.0",
            Conv2d::new(in_ch, 16, 3, 1, 1, 1, false, &mut rng),
        )
        .add("features.0.1", BatchNorm2d::new(16))
        .add("relu0", ReLU::new())
        // Shape-preserving block: residual.
        .add(
            "features.1",
            Residual::new(inverted_residual(16, 16, 2, 1, &mut rng)),
        )
        // Downsampling / widening blocks: plain.
        .add("features.2", inverted_residual(16, 32, 2, 2, &mut rng))
        .add(
            "features.3",
            Residual::new(inverted_residual(32, 32, 2, 1, &mut rng)),
        )
        .add("features.4", inverted_residual(32, 64, 2, 2, &mut rng))
        .add(
            "features.18.0",
            Conv2d::new(64, 128, 1, 1, 0, 1, false, &mut rng),
        )
        .add("features.18.1", BatchNorm2d::new(128))
        .add("relu_head", ReLU::new())
        .add("gap", GlobalAvgPool::new())
        .add("flatten", Flatten::new())
        .add("classifier.1", Dense::new(128, classes, &mut rng));
    Network::new(root)
}

/// One shape-preserving basic residual body (conv-bn-relu-conv-bn).
fn res_body(ch: usize, rng: &mut SplitMix64) -> Sequential {
    Sequential::new()
        .add("conv1", Conv2d::new(ch, ch, 3, 1, 1, 1, false, rng))
        .add("bn1", BatchNorm2d::new(ch))
        .add("relu", ReLU::new())
        .add("conv2", Conv2d::new(ch, ch, 3, 1, 1, 1, false, rng))
        .add("bn2", BatchNorm2d::new(ch))
}

/// ResNet analogue: stem + three residual stages with stride-2 transitions.
///
/// Every convolution pads its 3×3 window, so any non-empty input works.
pub(crate) fn resnet_s(in_ch: usize, hw: usize, classes: usize, seed: u64) -> Network {
    assert!(hw >= 1, "input {hw} too small for ResNetS");
    let mut rng = SplitMix64::new(seed);
    let root = Sequential::new()
        .add("conv1", Conv2d::new(in_ch, 16, 3, 1, 1, 1, false, &mut rng))
        .add("bn1", BatchNorm2d::new(16))
        .add("relu0", ReLU::new())
        .add("layer1.0", Residual::new(res_body(16, &mut rng)))
        .add(
            "layer2.0.downsample.0",
            Conv2d::new(16, 32, 3, 2, 1, 1, false, &mut rng),
        )
        .add("layer2.0.downsample.1", BatchNorm2d::new(32))
        .add("relu1", ReLU::new())
        .add("layer2.1", Residual::new(res_body(32, &mut rng)))
        .add(
            "layer3.0.downsample.0",
            Conv2d::new(32, 64, 3, 2, 1, 1, false, &mut rng),
        )
        .add("layer3.0.downsample.1", BatchNorm2d::new(64))
        .add("relu2", ReLU::new())
        .add("layer3.1", Residual::new(res_body(64, &mut rng)))
        .add("gap", GlobalAvgPool::new())
        .add("flatten", Flatten::new())
        .add("fc", Dense::new(64, classes, &mut rng));
    Network::new(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Act;
    use crate::data::DatasetKind;

    #[test]
    fn all_models_forward_on_all_dataset_geometries() {
        for arch in ModelArch::all() {
            for ds in DatasetKind::all() {
                let (c, h, _, classes) = ds.dims();
                let mut net = arch.build(c, h, classes, 1);
                let y = net.forward(Act::zeros(2, c, h, h), false);
                assert_eq!((y.n, y.c), (2, classes), "{arch:?} on {ds:?}");
            }
        }
    }

    #[test]
    fn every_architecture_refuses_an_input_it_cannot_take() {
        for (arch, hw) in [
            (ModelArch::AlexNetS, 7),
            (ModelArch::MobileNetV2S, 0),
            (ModelArch::ResNetS, 0),
        ] {
            let built = std::panic::catch_unwind(|| arch.build(3, hw, 10, 1));
            let msg = *built.err().expect("built").downcast::<String>().unwrap();
            assert!(msg.contains(&format!("input {hw} too small")), "{msg}");
        }
        // The smallest inputs each does take run end to end.
        for (arch, hw) in [
            (ModelArch::AlexNetS, 8),
            (ModelArch::MobileNetV2S, 1),
            (ModelArch::ResNetS, 1),
        ] {
            let y = arch
                .build(3, hw, 10, 1)
                .forward(Act::zeros(2, 3, hw, hw), false);
            assert_eq!((y.n, y.c), (2, 10), "{arch:?} at {hw}");
        }
    }

    #[test]
    fn models_have_batch_norm_where_expected() {
        let sd = ModelArch::ResNetS.build(3, 32, 10, 1).state_dict();
        assert!(sd.get("bn1.running_mean").is_some());
        assert!(sd.get("layer1.0.bn1.weight").is_some());
        let sd = ModelArch::AlexNetS.build(3, 32, 10, 1).state_dict();
        assert!(sd.entries().iter().all(|e| !e.name.contains("running")));
    }

    #[test]
    fn depthwise_block_present_in_mobilenet() {
        let sd = ModelArch::MobileNetV2S.build(3, 32, 10, 1).state_dict();
        let dw = sd.get("features.1.conv.1.0.weight").unwrap();
        assert_eq!(dw.shape()[1], 1, "depthwise conv has unit in-channels");
    }

    #[test]
    fn each_model_trains_above_chance() {
        let (train, test) = DatasetKind::Cifar10Like.generate(240, 120, 31);
        for arch in ModelArch::all() {
            let mut net = arch.build(3, 32, 10, 7);
            let mut rng = SplitMix64::new(8);
            for _ in 0..8 {
                net.train_epoch(&train, 32, 0.01, 0.9, &mut rng);
            }
            let acc = net.evaluate(&test);
            assert!(acc > 0.25, "{arch:?} accuracy {acc} barely above chance");
        }
    }

    #[test]
    fn state_dicts_load_across_instances() {
        for arch in ModelArch::all() {
            let a = arch.build(3, 32, 10, 1);
            let mut b = arch.build(3, 32, 10, 2);
            b.load_state_dict(&a.state_dict());
            assert_eq!(a.state_dict(), b.state_dict(), "{arch:?}");
        }
    }

    #[test]
    fn param_counts_are_small_but_nontrivial() {
        for arch in ModelArch::all() {
            let n = arch.build(3, 32, 10, 1).param_count();
            assert!((10_000..2_000_000).contains(&n), "{arch:?}: {n} params");
        }
    }
}
