//! Client data sharding: IID partitions.

use fedsz_dnn::Dataset;
use fedsz_tensor::SplitMix64;

/// Split a dataset into `n_clients` IID shards of (near-)equal size.
pub(crate) fn iid(ds: &Dataset, n_clients: usize, rng: &mut SplitMix64) -> Vec<Dataset> {
    assert!(n_clients > 0);
    let mut order: Vec<usize> = (0..ds.n).collect();
    rng.shuffle(&mut order);
    let base = ds.n / n_clients;
    let extra = ds.n % n_clients;
    let mut shards = Vec::with_capacity(n_clients);
    let mut offset = 0usize;
    for i in 0..n_clients {
        let take = base + usize::from(i < extra);
        shards.push(ds.subset(&order[offset..offset + take]));
        offset += take;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_dnn::DatasetKind;

    #[test]
    fn iid_covers_everything_once() {
        let (ds, _) = DatasetKind::Cifar10Like.generate(103, 10, 1);
        let mut rng = SplitMix64::new(2);
        let shards = iid(&ds, 4, &mut rng);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.n).sum();
        assert_eq!(total, 103);
        // Near-equal sizes.
        for s in &shards {
            assert!(s.n == 25 || s.n == 26);
        }
    }

    #[test]
    fn iid_shards_are_roughly_balanced_in_labels() {
        let (ds, _) = DatasetKind::Cifar10Like.generate(400, 10, 3);
        let mut rng = SplitMix64::new(4);
        let shards = iid(&ds, 4, &mut rng);
        for s in &shards {
            for cls in 0..10 {
                let count = s.labels.iter().filter(|&&l| l == cls).count();
                assert!((2..=30).contains(&count), "class {cls}: {count}");
            }
        }
    }
}
