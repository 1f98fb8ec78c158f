//! A trainable network: a named layer graph plus the training loop,
//! evaluation, and PyTorch-style state-dict import/export (the interface
//! FedSZ compresses against).

use fedsz_tensor::{SplitMix64, StateDict};

use crate::act::Act;
use crate::data::Dataset;
use crate::layer::{Layer, Sequential};
use crate::loss::{predictions, softmax_cross_entropy};

/// A model: its layer graph.
pub struct Network {
    root: Sequential,
}

impl Network {
    /// Wrap a layer graph.
    pub(crate) fn new(root: Sequential) -> Self {
        Self { root }
    }

    /// Trainable scalar count.
    #[cfg(test)]
    pub(crate) fn param_count(&self) -> usize {
        self.root.param_count()
    }

    /// Forward pass.
    #[cfg(test)]
    pub(crate) fn forward(&mut self, x: Act, train: bool) -> Act {
        self.root.forward(x, train)
    }

    /// One SGD step on a batch; returns the batch loss.
    fn train_batch(&mut self, images: Act, labels: &[usize], lr: f32, momentum: f32) -> f64 {
        let logits = self.root.forward(images, true);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.root.backward(grad);
        self.root.sgd_step(lr, momentum);
        loss
    }

    /// One epoch of shuffled mini-batch SGD; returns the mean batch loss.
    pub fn train_epoch(
        &mut self,
        ds: &Dataset,
        batch_size: usize,
        lr: f32,
        momentum: f32,
        rng: &mut SplitMix64,
    ) -> f64 {
        let mut order: Vec<usize> = (0..ds.n).collect();
        rng.shuffle(&mut order);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(batch_size) {
            let (images, labels) = ds.batch(chunk);
            total += self.train_batch(images, &labels, lr, momentum);
            batches += 1;
        }
        if batches == 0 {
            0.0
        } else {
            total / batches as f64
        }
    }

    /// Top-1 accuracy on a dataset (inference mode).
    pub fn evaluate(&mut self, ds: &Dataset) -> f64 {
        if ds.n == 0 {
            return 0.0;
        }
        let mut correct = 0usize;
        let indices: Vec<usize> = (0..ds.n).collect();
        for chunk in indices.chunks(64) {
            let (images, labels) = ds.batch(chunk);
            let logits = self.root.forward(images, false);
            for (p, l) in predictions(&logits).into_iter().zip(labels) {
                correct += usize::from(p == l);
            }
        }
        correct as f64 / ds.n as f64
    }

    /// Export all parameters and buffers.
    pub fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        self.root.export("", &mut sd);
        sd
    }

    /// Import parameters and buffers (resets optimizer momentum).
    pub fn load_state_dict(&mut self, sd: &StateDict) {
        self.root.import("", sd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::data::DatasetKind;
    use crate::dense::Dense;
    use crate::layer::{Flatten, ReLU};
    use crate::pool::MaxPool2d;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = SplitMix64::new(seed);
        let root = Sequential::new()
            .add("features.0", Conv2d::new(3, 8, 3, 1, 1, 1, true, &mut rng))
            .add("relu0", ReLU::new())
            .add("pool0", MaxPool2d::new(4))
            .add("flatten", Flatten::new())
            .add("classifier.1", Dense::new(8 * 8 * 8, 10, &mut rng));
        Network::new(root)
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (train, test) = DatasetKind::Cifar10Like.generate(200, 100, 21);
        let mut net = tiny_net(1);
        let mut rng = SplitMix64::new(2);
        let first = net.train_epoch(&train, 32, 0.05, 0.9, &mut rng);
        let mut last = first;
        for _ in 0..6 {
            last = net.train_epoch(&train, 32, 0.05, 0.9, &mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        let acc = net.evaluate(&test);
        assert!(acc > 0.3, "accuracy {acc} not above chance (0.1)");
    }

    #[test]
    fn state_dict_round_trip_preserves_behaviour() {
        let (train, test) = DatasetKind::Cifar10Like.generate(60, 40, 23);
        let mut net = tiny_net(3);
        let mut rng = SplitMix64::new(4);
        net.train_epoch(&train, 16, 0.05, 0.9, &mut rng);
        let acc1 = net.evaluate(&test);
        let sd = net.state_dict();

        let mut net2 = tiny_net(999); // different init
        net2.load_state_dict(&sd);
        let acc2 = net2.evaluate(&test);
        assert_eq!(acc1, acc2, "loaded model must evaluate identically");
    }

    #[test]
    fn state_dict_names_fit_the_fedsz_partition_rule() {
        let net = tiny_net(5);
        let sd = net.state_dict();
        let names: Vec<&str> = sd.entries().iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"features.0.weight"));
        assert!(names.contains(&"classifier.1.bias"));
    }

    #[test]
    fn param_count_matches_export() {
        let net = tiny_net(6);
        // Conv 8*3*9+8, dense 640*10+10.
        assert_eq!(net.param_count(), 8 * 27 + 8 + 8 * 64 * 10 + 10);
    }

    #[test]
    fn evaluate_empty_dataset() {
        let (ds, _) = DatasetKind::Cifar10Like.generate(10, 1, 1);
        let empty = ds.subset(&[]);
        assert_eq!(tiny_net(7).evaluate(&empty), 0.0);
    }
}
