//! Softmax cross-entropy loss with mean reduction.

use crate::act::Act;

/// Compute mean cross-entropy loss and the gradient w.r.t. the logits.
///
/// `logits` must be `[N, C, 1, 1]`; `labels[i] < C`.
pub(crate) fn softmax_cross_entropy(logits: &Act, labels: &[usize]) -> (f64, Act) {
    assert_eq!(logits.h * logits.w, 1, "logits must be flat");
    assert_eq!(logits.n, labels.len(), "label count mismatch");
    let n = logits.n;
    let c = logits.c;
    let mut grad = Act::zeros(n, c, 1, 1);
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.sample(i);
        assert!(label < c, "label {label} out of range");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let mut denom = 0.0f64;
        for &v in row {
            denom += (v as f64 - max).exp();
        }
        let log_denom = denom.ln() + max;
        loss += log_denom - row[label] as f64;
        let g = grad.sample_mut(i);
        for (j, &v) in row.iter().enumerate() {
            let p = (v as f64 - log_denom).exp();
            g[j] = ((p - f64::from(j == label)) / n as f64) as f32;
        }
    }
    (loss / n as f64, grad)
}

/// Argmax class per sample.
pub(crate) fn predictions(logits: &Act) -> Vec<usize> {
    (0..logits.n)
        .map(|i| {
            logits
                .sample(i)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Act::zeros(2, 4, 1, 1);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f64).ln()).abs() < 1e-9);
        // Gradient sums to zero per sample.
        for i in 0..2 {
            let s: f32 = grad.sample(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let mut logits = Act::zeros(1, 3, 1, 1);
        logits.data[1] = 20.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut logits = Act::new(vec![0.3, -0.7, 1.1, 0.2, 0.0, -0.4], 2, 3, 1, 1);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let orig = logits.data[idx];
            logits.data[idx] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&logits, &labels);
            logits.data[idx] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&logits, &labels);
            logits.data[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - grad.data[idx]).abs() < 1e-3,
                "idx {idx}: {numeric} vs {}",
                grad.data[idx]
            );
        }
    }

    #[test]
    fn predictions_take_argmax() {
        let logits = Act::new(vec![0.1, 0.9, 0.0, 2.0, -1.0, 0.5], 2, 3, 1, 1);
        assert_eq!(predictions(&logits), [1, 0]);
    }

    #[test]
    fn numerically_stable_for_large_logits() {
        let logits = Act::new(vec![1000.0, -1000.0], 1, 2, 1, 1);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.data.iter().all(|g| g.is_finite()));
    }
}
