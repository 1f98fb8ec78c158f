//! Architecture descriptions: every state-dict entry of a model, with its
//! true shape and role, independent of any weight values.

use fedsz_tensor::TensorKind;

/// Description of one state-dict entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParamSpec {
    /// Dotted PyTorch-style name (ends in `weight`, `bias`, `running_mean`,
    /// `running_var`, or `num_batches_tracked`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Role of the tensor.
    pub kind: TensorKind,
}

impl ParamSpec {
    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }
}

/// A full architecture description.
#[derive(Debug, Clone)]
// fedsz-lint: allow(dead-pub) -- returned by `ModelKind::spec`, which the bench tables call
pub struct ModelSpec {
    /// Human-readable architecture name.
    pub name: &'static str,
    /// Every state-dict entry in order.
    pub(crate) params: Vec<ParamSpec>,
}

impl ModelSpec {
    /// Total scalar count across all state-dict entries (including
    /// non-trainable running statistics and counters).
    pub(crate) fn num_state_values(&self) -> usize {
        self.params.iter().map(|p| p.numel()).sum()
    }

    /// Trainable parameter count (weights and biases only) — the number
    /// PyTorch's `numel()` census reports and Table III quotes.
    pub fn num_trainable(&self) -> usize {
        self.params
            .iter()
            .filter(|p| matches!(p.kind, TensorKind::Weight | TensorKind::Bias))
            .map(|p| p.numel())
            .sum()
    }

    /// State-dict size in bytes at `f32`.
    pub fn nbytes(&self) -> usize {
        self.num_state_values() * 4
    }

    /// Helpers for building specs.
    pub(crate) fn push(&mut self, name: String, shape: Vec<usize>, kind: TensorKind) {
        self.params.push(ParamSpec { name, shape, kind });
    }

    /// Add a conv layer's weight (and optional bias).
    pub(crate) fn conv(&mut self, prefix: &str, out_ch: usize, in_ch: usize, k: usize, bias: bool) {
        self.push(
            format!("{prefix}.weight"),
            vec![out_ch, in_ch, k, k],
            TensorKind::Weight,
        );
        if bias {
            self.push(format!("{prefix}.bias"), vec![out_ch], TensorKind::Bias);
        }
    }

    /// Add a linear layer's weight and bias.
    pub(crate) fn linear(&mut self, prefix: &str, out_f: usize, in_f: usize) {
        self.push(
            format!("{prefix}.weight"),
            vec![out_f, in_f],
            TensorKind::Weight,
        );
        self.push(format!("{prefix}.bias"), vec![out_f], TensorKind::Bias);
    }

    /// Add a batch-norm layer's five entries.
    pub(crate) fn batch_norm(&mut self, prefix: &str, ch: usize) {
        self.push(format!("{prefix}.weight"), vec![ch], TensorKind::Weight);
        self.push(format!("{prefix}.bias"), vec![ch], TensorKind::Bias);
        self.push(
            format!("{prefix}.running_mean"),
            vec![ch],
            TensorKind::RunningMean,
        );
        self.push(
            format!("{prefix}.running_var"),
            vec![ch],
            TensorKind::RunningVar,
        );
        self.push(
            format!("{prefix}.num_batches_tracked"),
            vec![1],
            TensorKind::Counter,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_entries() {
        let mut spec = ModelSpec {
            name: "toy",
            params: Vec::new(),
        };
        spec.conv("c", 8, 3, 3, true);
        spec.batch_norm("bn", 8);
        spec.linear("fc", 10, 8);
        assert_eq!(spec.params.len(), 2 + 5 + 2);
        assert_eq!(spec.num_trainable(), 8 * 3 * 9 + 8 + 8 + 8 + 10 * 8 + 10);
        // Running stats + counter are state values but not trainable.
        assert_eq!(spec.num_state_values(), spec.num_trainable() + 8 + 8 + 1);
    }

    #[test]
    fn names_carry_pytorch_suffixes() {
        let mut spec = ModelSpec {
            name: "toy",
            params: Vec::new(),
        };
        spec.batch_norm("features.1.bn", 4);
        let names: Vec<&str> = spec.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "features.1.bn.weight",
                "features.1.bn.bias",
                "features.1.bn.running_mean",
                "features.1.bn.running_var",
                "features.1.bn.num_batches_tracked"
            ]
        );
    }
}
