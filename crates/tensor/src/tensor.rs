//! Dense `f32` tensor with a shape, the unit of everything FedSZ compresses.

/// Role a tensor plays inside a model state dictionary.
///
/// The FedSZ partitioning rule (Algorithm 1 in the paper) keys off the
/// parameter *name*, but carrying the kind explicitly lets the model zoo and
/// the partitioner cross-check each other and lets experiments report the
/// lossy/lossless census per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Trainable weight tensor (conv kernels, dense matrices).
    Weight,
    /// Trainable bias vector.
    Bias,
    /// Batch-norm running mean (non-trainable state).
    RunningMean,
    /// Batch-norm running variance (non-trainable state).
    RunningVar,
    /// Integer-valued bookkeeping stored as float (e.g. `num_batches_tracked`).
    Counter,
}

impl TensorKind {
    /// Conventional PyTorch-style suffix for this kind, used when the model
    /// zoo manufactures state-dict names.
    pub fn suffix(self) -> &'static str {
        match self {
            TensorKind::Weight => "weight",
            TensorKind::Bias => "bias",
            TensorKind::RunningMean => "running_mean",
            TensorKind::RunningVar => "running_var",
            TensorKind::Counter => "num_batches_tracked",
        }
    }

    /// Stable one-byte tag used by every on-disk and on-wire format that
    /// serializes state dictionaries (FedSZ updates, checkpoints).
    pub fn tag(self) -> u8 {
        match self {
            TensorKind::Weight => 0,
            TensorKind::Bias => 1,
            TensorKind::RunningMean => 2,
            TensorKind::RunningVar => 3,
            TensorKind::Counter => 4,
        }
    }

    /// Inverse of [`TensorKind::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TensorKind::Weight,
            1 => TensorKind::Bias,
            2 => TensorKind::RunningMean,
            3 => TensorKind::RunningVar,
            4 => TensorKind::Counter,
            _ => return None,
        })
    }
}

/// A dense tensor of `f32` values with row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a shape and matching data buffer.
    ///
    /// # Panics
    /// Panics if the product of `shape` does not equal `data.len()`.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} implies {numel} elements but buffer has {}",
            data.len()
        );
        Self { shape, data }
    }

    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![value; numel],
        }
    }

    /// 1-D tensor borrowing nothing: takes ownership of `data`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            shape: vec![data.len()],
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Size in bytes when stored as `f32`.
    pub fn nbytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Flat read-only view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shape() {
        let t = Tensor::new(vec![2, 3], vec![1.0; 6]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.nbytes(), 24);
        assert_eq!(t.ndim(), 2);
    }

    #[test]
    #[should_panic(expected = "implies 6 elements")]
    fn new_rejects_mismatch() {
        Tensor::new(vec![2, 3], vec![1.0; 5]);
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(vec![4]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::full(vec![4], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0]);
        let b = Tensor::from_vec(vec![1.5, -2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn kind_suffixes_are_pytorch_style() {
        assert_eq!(TensorKind::Weight.suffix(), "weight");
        assert_eq!(TensorKind::Counter.suffix(), "num_batches_tracked");
    }
}
