//! Batched activation tensor: `[N, C, H, W]` in a dense row-major buffer.
//! Dense layers use `H = W = 1`.

/// A batch of activations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Act {
    /// Dense values, `n * c * h * w` long, row-major NCHW.
    pub data: Vec<f32>,
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Act {
    /// Construct, validating the buffer length.
    ///
    /// # Panics
    /// Panics if `data.len() != n * c * h * w`.
    pub fn new(data: Vec<f32>, n: usize, c: usize, h: usize, w: usize) -> Self {
        assert_eq!(data.len(), n * c * h * w, "activation shape mismatch");
        Self { data, n, c, h, w }
    }

    /// Zero-filled activation.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self {
            data: vec![0.0; n * c * h * w],
            n,
            c,
            h,
            w,
        }
    }

    /// Values per sample.
    pub(crate) fn sample_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Slice of one sample's values.
    pub fn sample(&self, i: usize) -> &[f32] {
        let len = self.sample_len();
        &self.data[i * len..(i + 1) * len]
    }

    /// Mutable slice of one sample's values.
    pub(crate) fn sample_mut(&mut self, i: usize) -> &mut [f32] {
        let len = self.sample_len();
        &mut self.data[i * len..(i + 1) * len]
    }

    /// Reinterpret as `[N, C*H*W, 1, 1]` (flatten spatial dims).
    pub(crate) fn flattened(mut self) -> Act {
        self.c *= self.h * self.w;
        self.h = 1;
        self.w = 1;
        self
    }

    /// Reinterpret with new per-sample dims of equal volume.
    ///
    /// # Panics
    /// Panics if volumes differ.
    pub fn reshaped(mut self, c: usize, h: usize, w: usize) -> Act {
        assert_eq!(self.sample_len(), c * h * w, "reshape changes volume");
        self.c = c;
        self.h = h;
        self.w = w;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_samples() {
        let a = Act::new((0..24).map(|i| i as f32).collect(), 2, 3, 2, 2);
        assert_eq!(a.sample_len(), 12);
        assert_eq!(a.sample(1)[0], 12.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_length_rejected() {
        Act::new(vec![0.0; 5], 1, 2, 2, 2);
    }

    #[test]
    fn flatten_preserves_data() {
        let a = Act::new((0..8).map(|i| i as f32).collect(), 1, 2, 2, 2).flattened();
        assert_eq!((a.c, a.h, a.w), (8, 1, 1));
        assert_eq!(a.data[3], 3.0);
    }

    #[test]
    fn reshape_checks_volume() {
        let a = Act::zeros(1, 8, 1, 1).reshaped(2, 2, 2);
        assert_eq!((a.c, a.h, a.w), (2, 2, 2));
    }
}
