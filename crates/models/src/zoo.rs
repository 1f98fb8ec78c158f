//! The three architectures the paper profiles (Table III): AlexNet,
//! MobileNetV2, and ResNet50, with every state-dict entry at its true
//! torchvision shape.

use crate::spec::ModelSpec;

/// torchvision AlexNet.
pub(crate) fn alexnet(num_classes: usize) -> ModelSpec {
    let mut s = ModelSpec {
        name: "AlexNet",
        params: Vec::new(),
    };
    s.conv("features.0", 64, 3, 11, true);
    s.conv("features.3", 192, 64, 5, true);
    s.conv("features.6", 384, 192, 3, true);
    s.conv("features.8", 256, 384, 3, true);
    s.conv("features.10", 256, 256, 3, true);
    s.linear("classifier.1", 4096, 256 * 6 * 6);
    s.linear("classifier.4", 4096, 4096);
    s.linear("classifier.6", num_classes, 4096);
    s
}

/// torchvision ResNet50 (Bottleneck blocks, layers = [3, 4, 6, 3]).
pub(crate) fn resnet50(num_classes: usize) -> ModelSpec {
    let mut s = ModelSpec {
        name: "ResNet50",
        params: Vec::new(),
    };
    s.conv("conv1", 64, 3, 7, false);
    s.batch_norm("bn1", 64);

    let layers = [
        (1usize, 3usize, 64usize),
        (2, 4, 128),
        (3, 6, 256),
        (4, 3, 512),
    ];
    let mut in_ch = 64usize;
    for (layer_idx, blocks, width) in layers {
        for b in 0..blocks {
            let p = format!("layer{layer_idx}.{b}");
            let out_ch = width * 4;
            s.conv(&format!("{p}.conv1"), width, in_ch, 1, false);
            s.batch_norm(&format!("{p}.bn1"), width);
            s.conv(&format!("{p}.conv2"), width, width, 3, false);
            s.batch_norm(&format!("{p}.bn2"), width);
            s.conv(&format!("{p}.conv3"), out_ch, width, 1, false);
            s.batch_norm(&format!("{p}.bn3"), out_ch);
            if b == 0 {
                s.conv(&format!("{p}.downsample.0"), out_ch, in_ch, 1, false);
                s.batch_norm(&format!("{p}.downsample.1"), out_ch);
            }
            in_ch = out_ch;
        }
    }
    s.linear("fc", num_classes, 2048);
    s
}

/// torchvision MobileNetV2 (inverted residuals, width multiplier 1.0).
pub(crate) fn mobilenet_v2(num_classes: usize) -> ModelSpec {
    let mut s = ModelSpec {
        name: "MobileNet-V2",
        params: Vec::new(),
    };
    // Stem.
    s.conv("features.0.0", 32, 3, 3, false);
    s.batch_norm("features.0.1", 32);

    // (expand_ratio, out_channels, repeats, stride)
    let settings = [
        (1usize, 16usize, 1usize),
        (6, 24, 2),
        (6, 32, 3),
        (6, 64, 4),
        (6, 96, 3),
        (6, 160, 3),
        (6, 320, 1),
    ];
    let mut in_ch = 32usize;
    let mut feat = 1usize;
    for (t, c, n) in settings {
        for _ in 0..n {
            let p = format!("features.{feat}.conv");
            let hidden = in_ch * t;
            let mut stage = 0usize;
            if t != 1 {
                // Pointwise expansion.
                s.conv(&format!("{p}.{stage}.0"), hidden, in_ch, 1, false);
                s.batch_norm(&format!("{p}.{stage}.1"), hidden);
                stage += 1;
            }
            // Depthwise 3x3 (groups = hidden, so in-channel dim is 1).
            s.push(
                format!("{p}.{stage}.0.weight"),
                vec![hidden, 1, 3, 3],
                fedsz_tensor::TensorKind::Weight,
            );
            s.batch_norm(&format!("{p}.{stage}.1"), hidden);
            stage += 1;
            // Pointwise linear projection.
            s.conv(&format!("{p}.{stage}"), c, hidden, 1, false);
            s.batch_norm(&format!("{p}.{}", stage + 1), c);
            in_ch = c;
            feat += 1;
        }
    }
    // Head.
    s.conv("features.18.0", 1280, in_ch, 1, false);
    s.batch_norm("features.18.1", 1280);
    s.linear("classifier.1", num_classes, 1280);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_parameter_count_matches_torchvision() {
        assert_eq!(alexnet(1000).num_trainable(), 61_100_840);
    }

    #[test]
    fn resnet50_parameter_count_matches_torchvision() {
        assert_eq!(resnet50(1000).num_trainable(), 25_557_032);
    }

    #[test]
    fn mobilenet_v2_parameter_count_matches_torchvision() {
        assert_eq!(mobilenet_v2(1000).num_trainable(), 3_504_872);
    }

    #[test]
    fn class_count_changes_only_the_head() {
        let base = alexnet(1000).num_trainable();
        let ten = alexnet(10).num_trainable();
        assert_eq!(base - ten, 990 * 4096 + 990);
    }

    #[test]
    fn alexnet_has_no_batch_norm() {
        assert!(alexnet(10)
            .params
            .iter()
            .all(|p| !p.name.contains("running")));
    }

    #[test]
    fn resnet_block_structure() {
        let s = resnet50(10);
        // 16 bottlenecks + 4 downsamples + stem + fc.
        let convs = s.params.iter().filter(|p| p.shape.len() == 4).count();
        assert_eq!(convs, 1 + 16 * 3 + 4);
        assert!(s
            .params
            .iter()
            .any(|p| p.name == "layer4.2.bn3.running_var"));
        assert!(s
            .params
            .iter()
            .any(|p| p.name == "layer2.0.downsample.0.weight"));
    }

    #[test]
    fn mobilenet_depthwise_convs_have_unit_in_channels() {
        let s = mobilenet_v2(10);
        let dw: Vec<_> = s
            .params
            .iter()
            .filter(|p| p.shape.len() == 4 && p.shape[1] == 1)
            .collect();
        assert_eq!(dw.len(), 17, "one depthwise conv per inverted residual");
    }

    #[test]
    fn state_dict_sizes_are_plausible() {
        // Table III quotes ~230 MB for AlexNet and ~14 MB for MobileNetV2.
        let alex_mb = alexnet(1000).nbytes() as f64 / 1e6;
        assert!((230.0..250.0).contains(&alex_mb), "{alex_mb}");
        let mob_mb = mobilenet_v2(1000).nbytes() as f64 / 1e6;
        assert!((14.0..14.7).contains(&mob_mb), "{mob_mb}");
    }
}
