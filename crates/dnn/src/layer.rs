//! The layer abstraction plus the structural combinators (`Sequential`,
//! `Residual`) that express the scaled model analogues.

use fedsz_tensor::StateDict;

use crate::act::Act;

/// A differentiable layer with internal parameter storage.
///
/// `forward` caches whatever `backward` needs; one `backward` per `forward`.
/// Gradients are overwritten per batch (the loss gradient is already
/// mean-normalized), and `sgd_step` applies momentum SGD in place.
pub(crate) trait Layer: Send {
    /// Forward pass. `train` enables batch statistics and caching.
    fn forward(&mut self, x: Act, train: bool) -> Act;
    /// Backward pass from the output gradient to the input gradient.
    fn backward(&mut self, grad: Act) -> Act;
    /// Apply one momentum-SGD update to the layer's parameters.
    fn sgd_step(&mut self, _lr: f32, _momentum: f32) {}
    /// Export parameters into a state dict under `prefix`.
    fn export(&self, _prefix: &str, _sd: &mut StateDict) {}
    /// Import parameters from a state dict under `prefix`.
    fn import(&mut self, _prefix: &str, _sd: &StateDict) {}
    /// Number of trainable scalars.
    #[cfg(test)]
    fn param_count(&self) -> usize {
        0
    }
}

/// Join a prefix and a layer name with a dot, omitting the dot at the root.
pub fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Named chain of layers.
#[derive(Default)]
pub(crate) struct Sequential {
    items: Vec<(String, Box<dyn Layer>)>,
}

impl Sequential {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named layer, builder style.
    pub fn add(mut self, name: impl Into<String>, layer: impl Layer + 'static) -> Self {
        self.items.push((name.into(), Box::new(layer)));
        self
    }
}

impl Layer for Sequential {
    fn forward(&mut self, mut x: Act, train: bool) -> Act {
        for (_, l) in &mut self.items {
            x = l.forward(x, train);
        }
        x
    }

    fn backward(&mut self, mut grad: Act) -> Act {
        for (_, l) in self.items.iter_mut().rev() {
            grad = l.backward(grad);
        }
        grad
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for (_, l) in &mut self.items {
            l.sgd_step(lr, momentum);
        }
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        for (name, l) in &self.items {
            l.export(&join(prefix, name), sd);
        }
    }

    fn import(&mut self, prefix: &str, sd: &StateDict) {
        for (name, l) in &mut self.items {
            l.import(&join(prefix, name), sd);
        }
    }

    #[cfg(test)]
    fn param_count(&self) -> usize {
        self.items.iter().map(|(_, l)| l.param_count()).sum()
    }
}

/// Identity skip connection around a body: `y = x + body(x)`.
///
/// The body must preserve the activation shape.
pub(crate) struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wrap a shape-preserving body.
    pub fn new(body: Sequential) -> Self {
        Self { body }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        let mut y = self.body.forward(x.clone(), train);
        assert_eq!(
            (y.n, y.c, y.h, y.w),
            (x.n, x.c, x.h, x.w),
            "residual body changed the activation shape"
        );
        for (a, b) in y.data.iter_mut().zip(&x.data) {
            *a += b;
        }
        y
    }

    fn backward(&mut self, grad: Act) -> Act {
        let mut gx = self.body.backward(grad.clone());
        for (a, b) in gx.data.iter_mut().zip(&grad.data) {
            *a += b;
        }
        gx
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        self.body.sgd_step(lr, momentum);
    }

    fn export(&self, prefix: &str, sd: &mut StateDict) {
        self.body.export(prefix, sd);
    }

    fn import(&mut self, prefix: &str, sd: &StateDict) {
        self.body.import(prefix, sd);
    }

    #[cfg(test)]
    fn param_count(&self) -> usize {
        self.body.param_count()
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub(crate) struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, mut x: Act, train: bool) -> Act {
        if train {
            self.mask.clear();
            self.mask.extend(x.data.iter().map(|&v| v > 0.0));
        }
        for v in &mut x.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        x
    }

    fn backward(&mut self, mut grad: Act) -> Act {
        assert_eq!(
            grad.data.len(),
            self.mask.len(),
            "ReLU backward without forward"
        );
        for (g, &m) in grad.data.iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
        grad
    }
}

/// Flatten spatial dimensions into channels.
#[derive(Default)]
pub(crate) struct Flatten {
    dims: (usize, usize, usize),
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Act, _train: bool) -> Act {
        self.dims = (x.c, x.h, x.w);
        x.flattened()
    }

    fn backward(&mut self, grad: Act) -> Act {
        let (c, h, w) = self.dims;
        grad.reshaped(c, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = ReLU::new();
        let x = Act::new(vec![-1.0, 2.0, -3.0, 4.0], 1, 4, 1, 1);
        let y = relu.forward(x, true);
        assert_eq!(y.data, [0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(Act::new(vec![1.0; 4], 1, 4, 1, 1));
        assert_eq!(g.data, [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn residual_adds_identity() {
        // Empty body: y = x + x? No — empty body is identity, so y = 2x.
        let mut r = Residual::new(Sequential::new());
        let x = Act::new(vec![1.0, 2.0], 1, 2, 1, 1);
        let y = r.forward(x, true);
        assert_eq!(y.data, [2.0, 4.0]);
        let g = r.backward(Act::new(vec![1.0, 1.0], 1, 2, 1, 1));
        assert_eq!(g.data, [2.0, 2.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Act::zeros(2, 3, 4, 4);
        let y = f.forward(x, true);
        assert_eq!((y.c, y.h, y.w), (48, 1, 1));
        let g = f.backward(Act::zeros(2, 48, 1, 1));
        assert_eq!((g.c, g.h, g.w), (3, 4, 4));
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("", "conv1"), "conv1");
        assert_eq!(join("features", "0"), "features.0");
    }
}
