//! Seeded synthetic image-classification datasets standing in for CIFAR-10,
//! Fashion-MNIST, and Caltech101 (Table IV).
//!
//! Each class is defined by a smooth random prototype image; samples are the
//! prototype under a random shift, additive Gaussian noise, and a brightness
//! jitter. The tasks are learnable but not trivial, which is all the
//! accuracy-vs-error-bound experiments need: compression error perturbs a
//! *trained* model, and what matters is how accuracy degrades with ε.
//!
//! Deviation from the paper: Caltech101 images are synthesized at 32×32
//! rather than 224×224 so that the 101-class task trains within a CPU
//! budget. Class count and relative difficulty are preserved (documented in
//! DESIGN.md §5).

use fedsz_tensor::SplitMix64;

use crate::act::Act;

/// An in-memory labelled image set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `n * c * h * w` pixel values.
    pub images: Vec<f32>,
    /// One label per image.
    pub labels: Vec<usize>,
    /// Number of images.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Values per image.
    pub(crate) fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Gather a batch of images by index.
    pub(crate) fn batch(&self, indices: &[usize]) -> (Act, Vec<usize>) {
        let len = self.image_len();
        let mut data = Vec::with_capacity(indices.len() * len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images[i * len..(i + 1) * len]);
            labels.push(self.labels[i]);
        }
        (
            Act::new(data, indices.len(), self.c, self.h, self.w),
            labels,
        )
    }

    /// Extract a subset by index (used for client sharding).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let len = self.image_len();
        let mut images = Vec::with_capacity(indices.len() * len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            images.extend_from_slice(&self.images[i * len..(i + 1) * len]);
            labels.push(self.labels[i]);
        }
        Dataset {
            images,
            labels,
            n: indices.len(),
            c: self.c,
            h: self.h,
            w: self.w,
            num_classes: self.num_classes,
        }
    }
}

/// The three benchmark tasks of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 32×32×3, 10 classes.
    Cifar10Like,
    /// 28×28×1, 10 classes.
    FashionMnistLike,
    /// 32×32×3 (paper: 224×224), 101 classes.
    Caltech101Like,
}

impl DatasetKind {
    /// All datasets in Table IV row order.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::Cifar10Like,
            DatasetKind::FashionMnistLike,
            DatasetKind::Caltech101Like,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR-10",
            DatasetKind::FashionMnistLike => "Fashion-MNIST",
            DatasetKind::Caltech101Like => "Caltech101",
        }
    }

    /// `(channels, height, width, classes)` as generated here.
    pub fn dims(self) -> (usize, usize, usize, usize) {
        match self {
            DatasetKind::Cifar10Like => (3, 32, 32, 10),
            DatasetKind::FashionMnistLike => (1, 28, 28, 10),
            DatasetKind::Caltech101Like => (3, 32, 32, 101),
        }
    }

    /// Table IV's reference characteristics: `(samples, input_side, classes)`.
    pub fn paper_characteristics(self) -> (usize, usize, usize) {
        match self {
            DatasetKind::Cifar10Like => (60_000, 32, 10),
            DatasetKind::FashionMnistLike => (70_000, 28, 10),
            DatasetKind::Caltech101Like => (9_000, 224, 101),
        }
    }

    /// Generate a train/test pair.
    pub fn generate(self, n_train: usize, n_test: usize, seed: u64) -> (Dataset, Dataset) {
        let (c, h, w, classes) = self.dims();
        let mut rng = SplitMix64::new(seed ^ 0x0DA7_A5E7);
        let prototypes = make_prototypes(&mut rng, classes, c, h, w);
        let train = sample_set(&mut rng, &prototypes, n_train, c, h, w, classes);
        let test = sample_set(&mut rng, &prototypes, n_test, c, h, w, classes);
        (train, test)
    }
}

/// Smooth per-class prototype images from superposed low-frequency modes.
fn make_prototypes(
    rng: &mut SplitMix64,
    classes: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Vec<Vec<f32>> {
    (0..classes)
        .map(|_| {
            let mut img = vec![0.0f32; c * h * w];
            for ch in 0..c {
                const MODES: usize = 5;
                let modes: Vec<(f64, f64, f64, f64)> = (0..MODES)
                    .map(|_| {
                        (
                            rng.uniform(0.5, 3.5) as f64,
                            rng.uniform(0.5, 3.5) as f64,
                            rng.uniform(0.3, 1.0) as f64,
                            rng.uniform(0.0, std::f32::consts::TAU) as f64,
                        )
                    })
                    .collect();
                for y in 0..h {
                    for x in 0..w {
                        let (xf, yf) = (x as f64 / w as f64, y as f64 / h as f64);
                        let mut v = 0.0;
                        for &(fx, fy, amp, ph) in &modes {
                            v += amp * (std::f64::consts::TAU * (fx * xf + fy * yf) + ph).sin();
                        }
                        img[ch * h * w + y * w + x] = v as f32;
                    }
                }
            }
            img
        })
        .collect()
}

fn sample_set(
    rng: &mut SplitMix64,
    prototypes: &[Vec<f32>],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    classes: usize,
) -> Dataset {
    const NOISE_STD: f64 = 0.45;
    const MAX_SHIFT: i64 = 3;
    let mut images = Vec::with_capacity(n * c * h * w);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % classes; // balanced classes
        let proto = &prototypes[label];
        let dx = rng.below((2 * MAX_SHIFT + 1) as usize) as i64 - MAX_SHIFT;
        let dy = rng.below((2 * MAX_SHIFT + 1) as usize) as i64 - MAX_SHIFT;
        let brightness = rng.normal_with(0.0, 0.2) as f32;
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    // Toroidal shift keeps statistics uniform.
                    let sy = (y as i64 + dy).rem_euclid(h as i64) as usize;
                    let sx = (x as i64 + dx).rem_euclid(w as i64) as usize;
                    let v = proto[ch * h * w + sy * w + sx]
                        + rng.normal_with(0.0, NOISE_STD) as f32
                        + brightness;
                    images.push(v);
                }
            }
        }
        labels.push(label);
    }
    Dataset {
        images,
        labels,
        n,
        c,
        h,
        w,
        num_classes: classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_match_table_iv() {
        assert_eq!(DatasetKind::Cifar10Like.dims(), (3, 32, 32, 10));
        assert_eq!(DatasetKind::FashionMnistLike.dims(), (1, 28, 28, 10));
        assert_eq!(DatasetKind::Caltech101Like.dims(), (3, 32, 32, 101));
    }

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let (a, _) = DatasetKind::Cifar10Like.generate(100, 20, 5);
        let (b, _) = DatasetKind::Cifar10Like.generate(100, 20, 5);
        assert_eq!(a.images, b.images);
        // Balanced labels.
        for cls in 0..10 {
            assert_eq!(a.labels.iter().filter(|&&l| l == cls).count(), 10);
        }
    }

    #[test]
    fn train_test_are_distinct_samples() {
        let (train, test) = DatasetKind::FashionMnistLike.generate(50, 50, 9);
        assert_ne!(train.images, test.images);
        assert_eq!(train.image_len(), 28 * 28);
    }

    #[test]
    fn batch_gathers_requested_indices() {
        let (ds, _) = DatasetKind::Cifar10Like.generate(30, 5, 3);
        let (act, labels) = ds.batch(&[3, 7]);
        assert_eq!((act.n, act.c, act.h, act.w), (2, 3, 32, 32));
        assert_eq!(labels, [ds.labels[3], ds.labels[7]]);
        assert_eq!(
            act.sample(1),
            &ds.images[7 * ds.image_len()..8 * ds.image_len()]
        );
    }

    #[test]
    fn subset_extracts_consistently() {
        let (ds, _) = DatasetKind::Caltech101Like.generate(202, 5, 3);
        let sub = ds.subset(&[0, 101]);
        assert_eq!(sub.n, 2);
        assert_eq!(sub.labels, [0, 0]); // 0 % 101 and 101 % 101
        assert_eq!(sub.num_classes, 101);
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Nearest-prototype classification on clean prototypes should beat
        // chance by a wide margin — sanity that the task is learnable.
        let (train, test) = DatasetKind::Cifar10Like.generate(200, 100, 11);
        // Estimate class means from train.
        let len = train.image_len();
        let mut means = vec![vec![0.0f64; len]; 10];
        let mut counts = [0usize; 10];
        for i in 0..train.n {
            let l = train.labels[i];
            counts[l] += 1;
            for (m, &v) in means[l]
                .iter_mut()
                .zip(&train.images[i * len..(i + 1) * len])
            {
                *m += v as f64;
            }
        }
        for (m, &cnt) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= cnt.max(1) as f64;
            }
        }
        let mut correct = 0usize;
        for i in 0..test.n {
            let img = &test.images[i * len..(i + 1) * len];
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f64 = means[a]
                        .iter()
                        .zip(img)
                        .map(|(m, &v)| (m - v as f64).powi(2))
                        .sum();
                    let db: f64 = means[b]
                        .iter()
                        .zip(img)
                        .map(|(m, &v)| (m - v as f64).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == test.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.n as f64;
        assert!(acc > 0.5, "nearest-prototype accuracy only {acc}");
    }
}
