//! Pooling layers: 2×2 max pooling and global average pooling.

use crate::act::Act;
use crate::layer::Layer;

/// Max pooling with a square window and stride equal to the window.
pub(crate) struct MaxPool2d {
    k: usize,
    argmax: Vec<u32>,
    in_dims: (usize, usize, usize, usize),
}

impl MaxPool2d {
    /// New pooling layer with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            argmax: Vec::new(),
            in_dims: (0, 0, 0, 0),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        let oh = x.h / self.k;
        let ow = x.w / self.k;
        assert!(oh > 0 && ow > 0, "pool window larger than input");
        let mut out = Vec::with_capacity(x.n * x.c * oh * ow);
        let mut argmax = Vec::with_capacity(out.capacity());
        for i in 0..x.n {
            let xs = x.sample(i);
            for c in 0..x.c {
                let plane = &xs[c * x.h * x.w..(c + 1) * x.h * x.w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let idx = (oy * self.k + ky) * x.w + ox * self.k + kx;
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out.push(best);
                        argmax.push((i * x.c * x.h * x.w + c * x.h * x.w + best_idx) as u32);
                    }
                }
            }
        }
        if train {
            self.argmax = argmax;
            self.in_dims = (x.n, x.c, x.h, x.w);
        }
        Act::new(out, x.n, x.c, oh, ow)
    }

    fn backward(&mut self, grad: Act) -> Act {
        let (n, c, h, w) = self.in_dims;
        assert_eq!(
            grad.data.len(),
            self.argmax.len(),
            "pool backward without forward"
        );
        let mut gx = Act::zeros(n, c, h, w);
        for (&idx, &g) in self.argmax.iter().zip(&grad.data) {
            gx.data[idx as usize] += g;
        }
        gx
    }
}

/// Global average pooling to `[N, C, 1, 1]`.
#[derive(Default)]
pub(crate) struct GlobalAvgPool {
    in_dims: (usize, usize, usize, usize),
}

impl GlobalAvgPool {
    /// New global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Act, train: bool) -> Act {
        if train {
            self.in_dims = (x.n, x.c, x.h, x.w);
        }
        let plane = x.h * x.w;
        let mut out = Vec::with_capacity(x.n * x.c);
        for i in 0..x.n {
            let xs = x.sample(i);
            for c in 0..x.c {
                let s: f32 = xs[c * plane..(c + 1) * plane].iter().sum();
                out.push(s / plane as f32);
            }
        }
        Act::new(out, x.n, x.c, 1, 1)
    }

    fn backward(&mut self, grad: Act) -> Act {
        let (n, c, h, w) = self.in_dims;
        let plane = h * w;
        let mut gx = Act::zeros(n, c, h, w);
        for i in 0..n {
            for ch in 0..c {
                let g = grad.data[i * c + ch] / plane as f32;
                let off = i * c * plane + ch * plane;
                for v in &mut gx.data[off..off + plane] {
                    *v = g;
                }
            }
        }
        gx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let mut p = MaxPool2d::new(2);
        let x = Act::new(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 1.0, 2.0, 3.0, //
                1.0, 1.0, 4.0, 1.0,
            ],
            1,
            1,
            4,
            4,
        );
        let y = p.forward(x, true);
        assert_eq!(y.data, [4.0, 8.0, 9.0, 4.0]);
        let g = p.backward(Act::new(vec![1.0, 2.0, 3.0, 4.0], 1, 1, 2, 2));
        assert_eq!(g.data[5], 1.0); // position of 4.0
        assert_eq!(g.data[7], 2.0); // position of 8.0
        assert_eq!(g.data[8], 3.0); // position of 9.0
        assert_eq!(g.data[14], 4.0); // position of second 4.0
        assert_eq!(g.data.iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn maxpool_odd_sizes_truncate() {
        let mut p = MaxPool2d::new(2);
        let y = p.forward(Act::zeros(1, 1, 5, 5), false);
        assert_eq!((y.h, y.w), (2, 2));
    }

    #[test]
    fn global_avg_pool_averages() {
        let mut p = GlobalAvgPool::new();
        let x = Act::new(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], 1, 2, 2, 2);
        let y = p.forward(x, true);
        assert_eq!(y.data, [2.5, 25.0]);
        let g = p.backward(Act::new(vec![4.0, 8.0], 1, 2, 1, 1));
        assert_eq!(g.data, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
